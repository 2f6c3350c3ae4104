import numpy as np
import pytest

from airfl import secrecy
from airfl.channel import (
    ChannelConfig,
    awgn,
    db_to_linear,
    gain_blocks,
    sample_channel,
    sample_gains,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSampleChannel:
    def test_fixed_gains_verbatim(self):
        cfg = ChannelConfig(fading_mode="fixed", fixed_gains=(4.0, 9.0))
        assert np.array_equal(sample_channel(cfg, 2, rng()), [4.0, 9.0])

    def test_rayleigh_unit_mean(self):
        cfg = ChannelConfig()
        h2 = sample_channel(cfg, 10**6, rng(7))
        assert abs(h2.mean() - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        cfg = ChannelConfig()
        a = sample_channel(cfg, 5, rng(42))
        b = sample_channel(cfg, 5, rng(42))
        assert np.array_equal(a, b)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="empty system"):
            sample_channel(ChannelConfig(), 0, rng())

    def test_fixed_gains_length_mismatch(self):
        cfg = ChannelConfig(fading_mode="fixed", fixed_gains=(1.0,))
        with pytest.raises(ValueError, match="length"):
            sample_channel(cfg, 2, rng())


class TestConfigValidation:
    def test_negative_sigma_z2_rejected(self):
        with pytest.raises(ValueError, match="sigma_z2 must be nonnegative"):
            ChannelConfig(sigma_z2=-0.1)

    @pytest.mark.parametrize("field", ["sigma_z2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChannelConfig(**{field: value})

    def test_non_finite_fixed_gain_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ChannelConfig(fading_mode="fixed", fixed_gains=(1.0, float("nan")))

    def test_fixed_mode_needs_gains(self):
        with pytest.raises(ValueError):
            ChannelConfig(fading_mode="fixed")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(fading_mode="rician")


class TestAwgn:
    def test_zero_variance_is_zero_vector(self):
        assert np.array_equal(awgn(3, 0.0, rng()), np.zeros(3))

    def test_shape(self):
        assert awgn(17, 1.0, rng()).shape == (17,)

    def test_empirical_moments(self):
        z = awgn(10**6, 1.0, rng(11))
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.01

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            awgn(3, -1.0, rng())


def test_db_to_linear():
    assert db_to_linear(30.0) == pytest.approx(1000.0)
    assert db_to_linear(0.0) == 1.0


def test_sample_gains_draws_like_sample_channel():
    # one Rayleigh draw serves both: same seed, same gains
    cfg = ChannelConfig()
    assert np.array_equal(sample_gains(cfg, 7, rng(4)), sample_channel(cfg, 7, rng(4)))


def test_sample_gains_matches_model():
    g = sample_gains(ChannelConfig(), 10**5, rng(5))
    assert abs(g.mean() - 1.0) < 0.03
    # the fixed gains of a link are not a Monte Carlo model
    with pytest.raises(ValueError, match="sample_gains draws Rayleigh gains"):
        sample_gains(ChannelConfig(fading_mode="fixed", fixed_gains=(2.5,)), 10, rng())


@pytest.mark.parametrize("n, block", [(1, None), (7, None), (1003, None),
                                      (123_457, 1000), (3 * 10**6, None)])
def test_gain_blocks_draw_like_sample_gains(monkeypatch, n, block):
    # one leaf, n not a multiple of 8, many small leaves and the 3e6 tree:
    # the same gains and the same generator state as one sample_gains call,
    # and as the Rayleigh law written out with one draw per component
    if block is not None:
        monkeypatch.setattr(secrecy, "_BLOCK", block)
    blocks = secrecy._tree_blocks(n)
    r_blocks, r_once, r_law = rng(n), rng(n), rng(n)
    leaves = list(gain_blocks(ChannelConfig(), n, r_blocks, blocks))
    assert [leaf.size for leaf in leaves] == [b.stop - b.start for b in blocks]
    h2 = np.concatenate(leaves)
    assert np.array_equal(h2, sample_gains(ChannelConfig(), n, r_once))
    re = r_law.normal(0.0, np.sqrt(0.5), size=n)
    im = r_law.normal(0.0, np.sqrt(0.5), size=n)
    assert np.array_equal(h2, re**2 + im**2)
    assert r_blocks.bit_generator.state == r_once.bit_generator.state == r_law.bit_generator.state


@pytest.mark.parametrize("blocks", [[], [slice(0, 4)], [slice(0, 5), slice(6, 10)],
                                    [slice(0, 10, 2)], [slice(1, 10)]])
def test_gain_blocks_must_tile_the_samples(blocks):
    with pytest.raises(ValueError, match="must tile range"):
        next(gain_blocks(ChannelConfig(), 10, rng(), blocks))
