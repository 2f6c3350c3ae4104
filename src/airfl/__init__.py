"""Seedable simulator and analysis library for over-the-air federated
learning protected by pairwise-cancellable random artificial noise."""

from .aircomp import (
    LinkPlan,
    clip_gradient,
    draw_noise,
    plan_link,
    simulate_aggregation_rounds,
    simulate_round,
)
from .channel import (
    ChannelConfig,
    awgn,
    db_to_linear,
    sample_channel,
    sample_gains,
)
from .fl_core import (
    BoundInputs,
    SyntheticTask,
    TrainState,
    all_local_gradients,
    centralized_gd,
    convergence_bound,
    draw_link,
    global_loss,
    make_task,
    optimal_model,
    train_over_air,
)
from .pcran import (
    NoiseStats,
    Pairing,
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    draw_pcran,
    draw_secrets,
    form_pairs,
    optimize_beta_dp,
)
from .secrecy import (
    SecrecyPoint,
    SecrecySweep,
    monte_carlo_secrecy,
    secrecy_point,
)

__version__ = "0.1.0"
