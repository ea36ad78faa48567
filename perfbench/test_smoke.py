"""Smoke test of the benchmark itself, in short runs.

Checks that a one-second run of every workload prints every metric that
BENCHMARK.json declares, with its unit, that a tampered digest fails the
gate, that spans report zero for functions a refactor removed, and that the
benchmark refuses to run without the package source.

Run from the repository root (takes about two minutes):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
        value = result["metrics"][name]["value"]
        assert math.isfinite(value)
        if not trace:
            assert value > 0, name


def test_tampered_digest_fails_the_gate():
    sys.path.insert(0, str(run.SRC))
    steps, seed, nodes, good = run.SIM100_DIGESTS[0]
    tampered = good[:-1] + ("1" if good[-1] == "0" else "0")
    checks = run.Checks()
    run.check_series_digests(checks, [(steps, seed, nodes, good)])
    assert checks.failures == []
    run.check_series_digests(checks, [(steps, seed, nodes, tampered)])
    assert checks.attempted == 2 and len(checks.failures) == 1


def test_spans_report_zero_for_missing_functions_and_restore_originals():
    def inner():
        return 1

    space = types.SimpleNamespace(inner=inner)
    space.outer = lambda: space.inner() + 1
    tracer = Tracer()
    targets = [(space, "outer", "outer"), (space, "inner", "inner"), (space, "gone", "gone")]
    with tracer.installed(targets):
        assert space.outer() == 2
    assert space.inner is inner
    assert tracer.calls("outer") == tracer.calls("inner") == 1
    assert 0 <= tracer.self_s("outer") <= tracer.total_s("outer")
    assert tracer.calls("gone") == 0 and tracer.per_call_ms("gone") == 0.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
