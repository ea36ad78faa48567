"""Markov models of the fork-following fraction in a proof-of-work network.

The package has three layers. ``markov`` builds two analytical transition
models over a partition of [0, 1] into mining-strategy intervals and solves
their stationary distributions. ``network`` simulates a regional latency
network whose shortest-path races produce a gamma time series. ``inference``
bins such a series into transition counts and scores any candidate model by
its log-likelihood gap to the empirical maximum-likelihood matrix. The
``cli`` module ties the layers into file-producing commands.
"""

from .inference import (
    LikelihoodReport,
    TransitionCounts,
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
    log_likelihood,
    occupancy_fractions,
    relative_likelihood,
    score_model,
)
from .markov import (
    KernelConfig,
    StateDistribution,
    TransitionMatrix,
    is_irreducible,
    kernel_box_integral,
    model1_transition_matrix,
    model2_transition_matrix,
    sq_exp_kernel,
    stationary_distribution,
)
from .network import (
    CentralityVector,
    GammaSeries,
    NetworkState,
    RegionConfig,
    default_region_config,
    eigenvector_centrality,
    evolve_network,
    gamma_of,
    init_network,
    moving_average,
    sample_skew_normal,
    shortest_latencies,
    simulate_gamma_series,
)
from .partition import Interval, StrategyPartition, default_partition

__version__ = "0.1.0"

__all__ = [
    "CentralityVector",
    "GammaSeries",
    "Interval",
    "KernelConfig",
    "LikelihoodReport",
    "NetworkState",
    "RegionConfig",
    "StateDistribution",
    "StrategyPartition",
    "TransitionCounts",
    "TransitionMatrix",
    "count_transitions",
    "default_partition",
    "default_region_config",
    "eigenvector_centrality",
    "empirical_transition_matrix",
    "evolve_network",
    "gamma_of",
    "init_network",
    "is_irreducible",
    "kernel_box_integral",
    "load_reference_counts",
    "log_likelihood",
    "model1_transition_matrix",
    "model2_transition_matrix",
    "moving_average",
    "occupancy_fractions",
    "relative_likelihood",
    "sample_skew_normal",
    "score_model",
    "shortest_latencies",
    "simulate_gamma_series",
    "sq_exp_kernel",
    "stationary_distribution",
    "__version__",
]
