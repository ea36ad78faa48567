"""Markov models of the fork-following fraction in a proof-of-work network.

The package has three layers. ``markov`` builds two analytical transition
models over a partition of [0, 1] into mining-strategy intervals and solves
their stationary distributions. ``network`` simulates a regional latency
network whose shortest-path races produce a gamma time series. ``inference``
holds the series type, bins a series into transition counts and scores any
candidate model by its log-likelihood gap to the empirical maximum-likelihood
matrix. The ``cli`` module ties the layers into file-producing commands.

Importing the package loads none of its layers: each public name is
imported from its module on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = {
    "inference": (
        "GammaSeries",
        "LikelihoodReport",
        "TransitionCounts",
        "count_transitions",
        "empirical_transition_matrix",
        "load_reference_counts",
        "log_likelihood",
        "moving_average",
        "occupancy_fractions",
        "relative_likelihood",
        "score_model",
    ),
    "markov": (
        "KernelConfig",
        "StateDistribution",
        "TransitionMatrix",
        "is_irreducible",
        "kernel_box_integral",
        "model1_transition_matrix",
        "model2_transition_matrix",
        "sq_exp_kernel",
        "stationary_distribution",
    ),
    "network": (
        "NetworkState",
        "RegionConfig",
        "default_region_config",
        "eigenvector_centrality",
        "evolve_network",
        "gamma_of",
        "init_network",
        "sample_skew_normal",
        "shortest_latencies",
        "simulate_gamma_series",
    ),
    "partition": ("StrategyPartition", "default_partition"),
}
_MODULE_OF = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
