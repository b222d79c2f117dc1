"""Flow-level and bin-level sticky load balancing: models, solvers, simulators.

The package splits into shared value types (core), analytic fixed points and
mean-field integration (mean_field), delay/violation metrics (metrics), exact
event simulators at flow and bin granularity (flow_sim, bin_sim), and an
experiment CLI (cli).
"""

from .core import (
    BinBased,
    FlowDistribution,
    PowerOfD,
    PullBased,
    SchemeConfig,
    Shedding,
    SystemParams,
    TransferToInvite,
    TransferToLeastLoaded,
    total_variation,
)
from .mean_field import (
    BracketError,
    NumericalError,
    OdeResult,
    SolveDiagnostics,
    UnsupportedConfigError,
    fixed_point,
    fixed_point_residual,
    integrate_ode,
    jsq_fixed_point,
    jsq_two_level_mass,
    join_probs,
    power_of_d_tail_bound,
    shedding_fixed_point,
    solve_least_loaded_fixed_point,
    solve_pull_fixed_point,
    solve_transfer_invite_fixed_point,
)
from .metrics import (
    TradeoffPoint,
    delay_tail_flow_jsq,
    delay_tail_packet_random,
    delay_tail_prob,
    delay_tail_shedding,
    flow_average,
    shedding_violation,
    tradeoff_curve,
)
from .flow_sim import (
    RngStream,
    SimConfig,
    SimStats,
    run_flow_sim,
)
from .bin_sim import (
    BinSimStats,
    BinTable,
    hash_flow_to_bin,
    run_bin_sim,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "SystemParams",
    "FlowDistribution",
    "total_variation",
    "PowerOfD",
    "PullBased",
    "Shedding",
    "TransferToInvite",
    "TransferToLeastLoaded",
    "BinBased",
    "SchemeConfig",
    # mean_field
    "NumericalError",
    "BracketError",
    "UnsupportedConfigError",
    "SolveDiagnostics",
    "OdeResult",
    "join_probs",
    "fixed_point",
    "fixed_point_residual",
    "jsq_fixed_point",
    "jsq_two_level_mass",
    "shedding_fixed_point",
    "power_of_d_tail_bound",
    "solve_pull_fixed_point",
    "solve_transfer_invite_fixed_point",
    "solve_least_loaded_fixed_point",
    "integrate_ode",
    # metrics
    "delay_tail_prob",
    "flow_average",
    "delay_tail_flow_jsq",
    "delay_tail_packet_random",
    "delay_tail_shedding",
    "shedding_violation",
    "TradeoffPoint",
    "tradeoff_curve",
    # flow_sim
    "RngStream",
    "SimConfig",
    "SimStats",
    "run_flow_sim",
    # bin_sim
    "BinTable",
    "BinSimStats",
    "hash_flow_to_bin",
    "run_bin_sim",
]
