"""The names the benchmark harness in ``perfbench/`` imports or wraps.

Its tracer wraps an attribute only if the owner defines it, and skips a
missing one without a word, so a rename would leave its span reporting
zero calls. These tests fail instead: every name must exist where the
harness looks for it, the calls it times must accept the arguments it
passes, and the CLI runs it times must reach the spans that wrap CLI calls.
"""

import functools
import importlib

import numpy as np

from gammachain import cli, network
from gammachain.network import GammaSeries

# names the harness imports from gammachain.network or wraps there
NETWORK_NAMES = (
    "init_network",
    "evolve_network",
    "gamma_of",
    "shortest_latencies",
    "simulate_gamma_series",
    "perturb_weights",
    "default_region_config",
)

# (owner, attribute) of the spans a CLI run must reach
CLI_SPANS = (
    (cli, "simulate_gamma_series"),
    (cli, "count_transitions"),
    (GammaSeries, "from_csv"),
    (GammaSeries, "to_csv"),
    (network, "perturb_weights"),
)


def test_imported_and_wrapped_names_exist():
    for name in NETWORK_NAMES:
        assert callable(vars(network).get(name)), f"network.{name}"
    importlib.import_module("gammachain._kernels")


def test_network_calls_take_the_harness_arguments():
    # the shapes of the harness's setup snippet and its direct per-call timings
    config = network.default_region_config().scaled_to(12)
    state = network.init_network(config, seed=0)
    rng = np.random.default_rng(12)
    state = network.evolve_network(state, 1.0, config, seed=rng)
    pair = tuple(int(v) for v in rng.choice(12, 2, replace=False))
    assert 0.0 <= network.gamma_of(state, *pair) < 1.0
    latencies = network.shortest_latencies(state, pair[0])
    assert latencies.shape == (12,) and latencies[pair[0]] == 0.0


def test_analytic_calls_take_the_harness_arguments():
    # the harness's analytic-layer import and the calls it times, with its arguments; quadrature needs scipy
    from gammachain import (
        default_partition,
        load_reference_counts,
        model1_transition_matrix,
        model2_transition_matrix,
        relative_likelihood,
        stationary_distribution,
    )

    partition = default_partition()
    counts = load_reference_counts(partition)
    model = model1_transition_matrix(partition)
    quadrature = model2_transition_matrix(partition, method="quadrature")
    for matrix in (model, model2_transition_matrix(partition), quadrature):
        assert matrix.labels == partition.labels
    assert stationary_distribution(model).labels == partition.labels
    assert relative_likelihood(model, counts) >= 0.0


def test_cli_runs_reach_every_wrapped_span(tmp_path, monkeypatch):
    calls = {}

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in CLI_SPANS:
        key = f"{owner.__name__}.{name}"
        calls[key] = 0
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            monkeypatch.setattr(owner, name, classmethod(counted(key, raw.__func__)))
        else:
            monkeypatch.setattr(owner, name, counted(key, raw))
    assert cli.main(["pipeline", "--steps", "3", "--out", str(tmp_path / "pipeline")]) == 0
    series_file = tmp_path / "pipeline" / "series.csv"
    assert cli.main(["analyze", "--series", str(series_file), "--out", str(tmp_path / "analyze")]) == 0
    assert not [key for key, count in calls.items() if count == 0]
