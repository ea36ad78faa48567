"""The names the benchmark harness in ``perfbench/`` imports or wraps.

Its tracer wraps an attribute only if the owner defines it, and skips a
missing one without a word, so a rename would leave its span reporting
zero calls. These tests fail instead: every name must exist where the
harness looks for it, and the CLI runs it times must reach the spans
that wrap CLI calls.
"""

import functools
import importlib

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
