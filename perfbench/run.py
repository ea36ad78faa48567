"""Layered benchmark for gammachain: simulator steps/s, CLI cold start, analysis.

Run from the repository root:

    python3 perfbench/run.py --workload {sim-100,sim-400} --seed N \
        --seconds S --trace {0,1} [--report PATH]

Each workload spends the first part of ``--seconds`` (30% on sim-100, 50%
on sim-400) on back-to-back ``simulate_gamma_series`` calls and the rest on
CLI commands, one at a time, each in a fresh interpreter: ``compare``,
``model --kind kernel``, ``analyze --series <CSV>`` and a short
``pipeline``. ``sim-100`` uses the default 100-node layout, the paper's
configuration; ``sim-400`` uses ``default_region_config().scaled_to(400)``,
as ``--nodes 400`` does. See perfbench/README.md for why.

Every run passes a correctness gate (pinned digests, repeatability, CLI
exit status and artifact contents) before it reports anything; a failed
check is counted, makes the result incorrect, and is never skipped. With
``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured by wrapping the package's public functions from outside (see
spans.py). Exits 2 without a result when the package source is missing,
and 1 when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, simulator_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# (steps, seed, nodes, sha256 of simulate_gamma_series(np.arange(steps,
# dtype=float), seed, config).values.tobytes()). The 100-node digests are
# the ROADMAP's behaviour pins; the 400-node one was recorded at the commit
# that introduced this benchmark.
SIM100_DIGESTS = (
    (500, 3, 100, "d260d3269b9e3a9204b2166a10819ef9c7696b84f546c67b9340f7de50ff3db9"),
    (5000, 3, 100, "ed1fb806d230a8a2ee073f56b03b17184c4241adbe09e5dee90f95d33b3dd6f1"),
)
SIM400_DIGESTS = (
    (40, 3, 400, "b48429cdc87c75c1406bd8c65e0b5f1f17497e24d2dbfdaf9966c103f9c774be"),
)

# steps is the length of every simulated series, in-process and in pipeline.
# sim_share is the part of --seconds spent on in-process series; the CLI
# commands get the rest. Over ten runs, sim-400's ms/step median spread by
# 6-8% with a share of 0.3 and by 2-3% with 0.5.
WORKLOADS = {
    "sim-100": {"nodes": 100, "steps": 250, "digests": SIM100_DIGESTS, "sim_share": 0.3},
    "sim-400": {"nodes": 400, "steps": 40, "digests": SIM400_DIGESTS, "sim_share": 0.5},
}

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
DIRECT_CALLS = 30
SUBPROCESS_TIMEOUT_S = 120

# analyze input: a synthetic gamma series drawn by the benchmark itself
ANALYZE_ROWS = 200_000
BIN_EDGES = np.array([0.0, 0.675, 0.76, 0.761, 1.0])  # HM, SM, LSM, EFSM
BIN_WEIGHTS = (0.4, 0.25, 0.1, 0.25)

# values computed at the commit that introduced this benchmark
REFERENCE_RELATIVE_LIKELIHOOD = {"model1": 231.18286549400273, "model2": 620.8800184704714}
KERNEL_STATIONARY = (0.7047175470052702, 0.09210794354873895, 0.0010365518730937294, 0.20213795757289713)
REL_TOL = 1e-9

# About the SpeedProbe time in the faster phase of the machine the bounds
# were set on (2 vCPUs, Python 3.11, numpy 2.4); reported times are scaled
# to this probe speed.
PROBE_REFERENCE_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "ms_per_step.p50": "ms",
    "cli.compare_s.p50": "s",
    "cli.model_kernel_s.p50": "s",
    "cli.analyze_s.p50": "s",
    "cli.pipeline_s.p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "_kernels.dijkstra_dense_ms": "ms/step",
    "_kernels.dijkstra_dense_calls": "calls/series",
    "network.gamma_of.self_ms": "ms/step",
    "network.evolve_network_ms": "ms/step",
    "network.evolve_network.self_ms": "ms/step",
    "_kernels.perturb_weights_ms": "ms/step",
    "network.evolve_calls": "calls/series",
    "network.gamma_calls": "calls/series",
    "network.race_share": "ratio",
    "network.evolve_share": "ratio",
    "network.init_network_ms": "ms",
    "network.evolve_network.direct_ms": "ms",
    "network.gamma_of.direct_ms": "ms",
    "network.shortest_latencies.direct_ms": "ms",
    "import.gammachain_ms": "ms",
    "import.gammachain.markov_ms": "ms",
    "import.scipy.integrate_ms": "ms",
    "network.GammaSeries.from_csv_ms": "ms",
    "inference.count_transitions_ms": "ms",
    "network.GammaSeries.to_csv_ms": "ms",
    "cli.bytes_written": "bytes",
    "markov.model1_ms": "ms",
    "markov.model2_closed_form_ms": "ms",
    "markov.stationary_distribution_ms": "ms",
    "inference.relative_likelihood_ms": "ms",
    "markov.model2_quadrature_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

SETUP_SNIPPET = """
import time
start = time.perf_counter()
import gammachain.cli
from gammachain.network import default_region_config, init_network
init_network(default_region_config().scaled_to({nodes}), seed=0)
print(time.perf_counter() - start)
"""


class Checks:
    """Counts attempted operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _dense_dijkstra(weights: np.ndarray, source: int) -> np.ndarray:
    n = len(weights)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmin(np.where(done, np.inf, dist)))
        if done[u] or not np.isfinite(dist[u]):
            break
        done[u] = True
        np.minimum(dist, np.where(done, np.inf, dist[u] + weights[u]), out=dist)
    return dist


class SpeedProbe:
    """Fixed CPU work owned by the benchmark, timed between samples.

    The CPU speed of a small shared VM drifts: on the 2-vCPU machine the
    bounds were set on, it switched between a fast and a 1.5x slower phase,
    each lasting tens of seconds, and this probe slowed down with the
    simulator (correlation 0.92). Each sample is therefore scaled by
    PROBE_REFERENCE_S over the mean probe time just before and after it.
    The probe mixes an interpreted loop with small numpy operations, like
    the program, and nothing in the program under test runs inside it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(1.0, 300.0, (100, 100))
        weights[rng.random((100, 100)) < 0.1] = np.inf
        np.fill_diagonal(weights, 0.0)
        self.weights = weights
        self.times: list[float] = []

    def measure(self) -> float:
        start = perf_counter()
        total = 0
        for k in range(200_000):
            total += k
        for source in range(16):
            _dense_dijkstra(self.weights, source)
        self.times.append(perf_counter() - start)
        return self.times[-1]

    def time(self, fn):
        """Run ``fn``; return its result, its wall seconds, and the speed factor."""
        before = self.times[-1] if self.times else self.measure()
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        after = self.measure()
        return result, elapsed, 2.0 * PROBE_REFERENCE_S / (before + after)

    def run_factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.times)


@contextmanager
def one_cpu():
    """Keep the calling thread, and the children it starts, on one CPU.

    Every sample then runs on the CPU the probe measures; the two vCPUs of
    the machine the bounds were set on drift in speed independently. Only
    the calling thread moves: threads a library already started keep their
    CPUs.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(cmd, cwd) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child if the timeout expires
    return subprocess.run(
        cmd, cwd=cwd, env=_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)


def series_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def region_config(nodes: int):
    from gammachain.network import default_region_config

    return default_region_config().scaled_to(nodes)


def simulate(steps: int, seed: int, config) -> np.ndarray:
    # looked up through the module so that installed spans see the call
    from gammachain import network

    schedule = np.arange(steps, dtype=float)
    return network.simulate_gamma_series(schedule, seed=seed, config=config).values


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


# ---------------------------------------------------------------- gate


def check_series_digests(checks: Checks, cases) -> None:
    for steps, seed, nodes, expected in cases:
        got = digest(simulate(steps, seed, region_config(nodes)))
        checks.expect(got == expected, f"seed-{seed} digest at N={steps}, {nodes} nodes is {got}")


def check_series_shape(checks: Checks, values: np.ndarray, steps: int, nodes: int) -> None:
    # gamma is a count of nodes over the node count, at most (V - 2) / V
    scaled = values * nodes
    ok = (
        values.shape == (steps,)
        and bool(np.all((values >= 0) & (values <= (nodes - 2) / nodes)))
        and bool(np.allclose(scaled, np.round(scaled), rtol=0, atol=1e-9))
    )
    checks.expect(ok, f"series of {steps} steps on {nodes} nodes is malformed")


def check_repeatable(checks: Checks, steps: int, seed: int, nodes: int) -> None:
    config = region_config(nodes)
    first = simulate(steps, seed, config)
    second = simulate(steps, seed, config)
    check_series_shape(checks, first, steps, nodes)
    checks.expect(first.tobytes() == second.tobytes(), f"seed {seed} is not repeatable")


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _close(a, b) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= REL_TOL * abs(y) for x, y in zip(a, b))


# ---------------------------------------------------------------- simulator


def series_window(checks, probe, nodes, steps, seed, deadline, tracer=None):
    """Back-to-back series until ``deadline`` (at least two).

    With a tracer, every odd-numbered series runs with spans installed, so
    traced and untraced series interleave. Returns per-series seconds, at
    reference probe speed, of the untraced and the traced series.
    """
    config = region_config(nodes)
    plain, traced = [], []
    index = 0
    while index < 2 or perf_counter() < deadline:
        spans_on = tracer is not None and index % 2 == 1
        with tracer.installed(simulator_targets()) if spans_on else nullcontext():
            values, elapsed, factor = probe.time(lambda: simulate(steps, series_seed(seed, index), config))
        (traced if spans_on else plain).append(elapsed * factor)
        check_series_shape(checks, values, steps, nodes)
        index += 1
    return plain, traced


def loop_layer_metrics(tracer: Tracer, plain, traced, steps) -> dict:
    series = len(traced)
    total_steps = steps * series
    loop_s = tracer.total_s("network.simulate_gamma_series")

    def per_step_ms(seconds):
        return 1e3 * seconds / total_steps

    def share(name):
        return tracer.total_s(name) / loop_s if loop_s else 0.0

    return {
        "_kernels.dijkstra_dense_ms": per_step_ms(tracer.total_s("_kernels.dijkstra_dense")),
        "_kernels.dijkstra_dense_calls": tracer.calls("_kernels.dijkstra_dense") / series,
        "network.gamma_of.self_ms": per_step_ms(tracer.self_s("network.gamma_of")),
        "network.evolve_network_ms": per_step_ms(tracer.total_s("network.evolve_network")),
        "network.evolve_network.self_ms": per_step_ms(tracer.self_s("network.evolve_network")),
        "_kernels.perturb_weights_ms": per_step_ms(tracer.total_s("_kernels.perturb_weights")),
        "network.evolve_calls": tracer.calls("network.evolve_network") / series,
        "network.gamma_calls": tracer.calls("network.gamma_of") / series,
        "network.race_share": share("network.gamma_of"),
        "network.evolve_share": share("network.evolve_network"),
        "trace.overhead_ratio": statistics.fmean(plain) / statistics.fmean(traced),
    }


def direct_layer_metrics(nodes: int) -> dict:
    """Per-call ms of the network functions on fixed seeded states.

    These do not depend on which functions the simulation loop calls, so
    they stay comparable when the loop is restructured.
    """
    from gammachain.network import evolve_network, gamma_of, init_network, shortest_latencies

    config = region_config(nodes)
    rng = np.random.default_rng(12)
    states = [init_network(config, seed=11)]
    while len(states) < DIRECT_CALLS:
        states.append(evolve_network(states[-1], 1.0, config, seed=rng))
    pairs = [tuple(int(v) for v in rng.choice(nodes, 2, replace=False)) for _ in states]

    def each(call):
        times = []
        for i, (state, pair) in enumerate(zip(states, pairs)):
            start = perf_counter()
            call(i, state, pair)
            times.append(perf_counter() - start)
        return 1e3 * statistics.median(times)

    return {
        "network.init_network_ms": each(lambda i, s, p: init_network(config, seed=100 + i)),
        "network.evolve_network.direct_ms": each(lambda i, s, p: evolve_network(s, 1.0, config, seed=i)),
        "network.gamma_of.direct_ms": each(lambda i, s, p: gamma_of(s, *p)),
        "network.shortest_latencies.direct_ms": each(lambda i, s, p: shortest_latencies(s, p[0])),
    }


def analytic_layer_metrics() -> dict:
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
    return {
        "markov.model1_ms": _median_ms(lambda: model1_transition_matrix(partition), 200),
        "markov.model2_closed_form_ms": _median_ms(lambda: model2_transition_matrix(partition), 200),
        "markov.stationary_distribution_ms": _median_ms(lambda: stationary_distribution(model), 200),
        "inference.relative_likelihood_ms": _median_ms(lambda: relative_likelihood(model, counts), 200),
        "markov.model2_quadrature_ms": _median_ms(
            lambda: model2_transition_matrix(partition, method="quadrature"), 5
        ),
    }


# ---------------------------------------------------------------- cold start


def setup_times(probe: SpeedProbe, nodes: int, work: Path) -> list[float]:
    """Import plus initial network build, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, "-c", SETUP_SNIPPET.format(nodes=nodes)]
        proc, _, factor = probe.time(lambda: _run(cmd, work))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) * factor)
    return times


def import_layer_metrics(work: Path) -> dict:
    """Cumulative import ms from ``-X importtime``; 0 for a module not imported."""
    names = {
        "gammachain": "import.gammachain_ms",
        "gammachain.markov": "import.gammachain.markov_ms",
        "scipy.integrate": "import.scipy.integrate_ms",
    }
    samples = {metric: [] for metric in names.values()}
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import gammachain.cli"], work)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        for module, metric in names.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


# ---------------------------------------------------------------- CLI


def analyze_input(seed: int) -> tuple[str, np.ndarray]:
    """A synthetic gamma series CSV visiting all four bins, and its counts.

    States are drawn i.i.d. and each value sits strictly inside its bin,
    away from the edges, so the expected transition counts follow from the
    drawn states alone, without the program under test.
    """
    rng = np.random.default_rng([seed, 1])
    states = rng.choice(len(BIN_WEIGHTS), size=ANALYZE_ROWS, p=BIN_WEIGHTS)
    low, high = BIN_EDGES[states], BIN_EDGES[states + 1]
    values = low + (0.01 + 0.98 * rng.random(ANALYZE_ROWS)) * (high - low)
    lines = ["time,gamma"] + [f"{t}.0,{v!r}" for t, v in enumerate(values.tolist())]
    k = len(BIN_WEIGHTS)
    counts = np.bincount(states[:-1] * k + states[1:], minlength=k * k).reshape(k, k)
    return "\n".join(lines) + "\n", counts


class CliRunner:
    """Runs the four commands in fresh interpreters and checks their artifacts.

    The first run of each command is validated in full; every later run
    must rewrite byte-identical artifacts. With a tracer, commands start
    through traced_cli.py and their span totals are merged into it.
    """

    COMMANDS = ("compare", "model_kernel", "analyze", "pipeline")

    def __init__(self, work: Path, seed: int, nodes: int, steps: int, checks: Checks,
                 probe: SpeedProbe, tracer: Tracer | None = None):
        self.work = work
        self.checks = checks
        self.probe = probe
        self.tracer = tracer
        self.nodes, self.steps = nodes, steps
        self.pipeline_seed = series_seed(seed, 2**20)
        csv_text, self.expected_counts = analyze_input(seed)
        checks.expect(bool(np.all(self.expected_counts.sum(axis=1) > 0)), "analyze input misses a bin")
        self.csv_path = work / "analyze_input.csv"
        self.csv_path.write_text(csv_text, encoding="utf-8")
        self.argv = {
            "compare": ["compare"],
            "model_kernel": ["model", "--kind", "kernel"],
            "analyze": ["analyze", "--series", str(self.csv_path)],
            "pipeline": ["pipeline", "--nodes", str(nodes), "--steps", str(steps), "--seed", str(self.pipeline_seed)],
        }
        self.samples = {name: [] for name in self.COMMANDS}
        self.pipeline_bytes: list[int] = []
        self._digests: dict[str, dict] = {}

    def run(self, name: str) -> None:
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        args = self.argv[name] + ["--out", str(out)]
        stats_path = self.work / "spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gammachain.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(stats_path), *args]
        proc, elapsed, factor = self.probe.time(lambda: _run(cmd, self.work))
        if not self.checks.expect(proc.returncode == 0, f"{name} exited {proc.returncode}: {proc.stderr.strip()}"):
            return
        self.samples[name].append(elapsed * factor)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        digests = {file: hashlib.sha256(data).hexdigest() for file, data in files.items()}
        if name in self._digests:
            self.checks.expect(digests == self._digests[name], f"{name} artifacts changed between runs")
        else:
            self._validate(name, files)
            self._digests[name] = digests
        if name == "pipeline":
            self.pipeline_bytes.append(sum(len(data) for data in files.values()))
        if self.tracer is not None:
            self.tracer.merge(json.loads(stats_path.read_text(encoding="utf-8")))

    def cycle(self) -> None:
        for name in self.COMMANDS:
            self.run(name)

    def _validate(self, name: str, files: dict) -> None:
        expect = self.checks.expect
        try:
            parsed = {f: _strict_json(data.decode("utf-8")) for f, data in files.items() if f.endswith(".json")}
            if name == "compare":
                report = parsed["comparison.json"]
                scores = {m["model_name"]: m["relative_likelihood"] for m in report["models"]}
                expect(
                    scores.keys() == REFERENCE_RELATIVE_LIKELIHOOD.keys()
                    and _close([scores[k] for k in scores], [REFERENCE_RELATIVE_LIKELIHOOD[k] for k in scores])
                    and report["verdict"] == "model1 preferred",
                    f"compare report differs from the pinned scores: {report}",
                )
            elif name == "model_kernel":
                weights = parsed["model_kernel_stationary.json"]["weights"]
                expect(_close(weights, KERNEL_STATIONARY), f"kernel stationary weights are {weights}")
            elif name == "analyze":
                counts = np.array(
                    [[int(c) for c in row.split(",")] for row in files["transition_counts.csv"].decode().split()]
                )
                expect(np.array_equal(counts, self.expected_counts), "analyze counts differ from the input's")
            else:
                rows = files["series.csv"].decode().split()[1:]
                written = np.array([float(row.split(",")[1]) for row in rows])
                wanted = simulate(self.steps, self.pipeline_seed, region_config(self.nodes))
                expect(written.tobytes() == wanted.tobytes(), "pipeline series differs from the library's")
                expect("summary.json" in parsed, "pipeline wrote no summary.json")
        except (KeyError, ValueError, TypeError) as exc:
            expect(False, f"{name} artifacts unreadable: {exc!r}")

    def end_to_end(self) -> dict:
        return {
            f"cli.{name}_s.p50": statistics.median(times) if times else float("nan")
            for name, times in self.samples.items()
        }

    def layer_metrics(self) -> dict:
        tracer = self.tracer
        return {
            "network.GammaSeries.from_csv_ms": tracer.per_call_ms("network.GammaSeries.from_csv"),
            "inference.count_transitions_ms": tracer.per_call_ms("inference.count_transitions"),
            "network.GammaSeries.to_csv_ms": tracer.per_call_ms("network.GammaSeries.to_csv"),
            "cli.bytes_written": float(statistics.median(self.pipeline_bytes)) if self.pipeline_bytes else 0.0,
        }


# ---------------------------------------------------------------- main


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import scipy

    from gammachain import _kernels

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    backend = getattr(_kernels, "backend_name", None)
    return {
        "git_revision": _git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "backend": backend() if backend else "unknown",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Returns (checks, metrics, sample counts, median raw probe seconds)."""
    spec = WORKLOADS[name]
    nodes, steps = spec["nodes"], spec["steps"]
    checks = Checks()
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    metrics: dict = {}
    counts: dict = {}

    if not trace:
        setup = setup_times(probe, nodes, work)
        metrics["setup_s"] = statistics.median(setup)
        counts["setup_s"] = len(setup)

    # the simulator gate; in a traced run it passes through installed spans
    with Tracer().installed(simulator_targets()) if trace else nullcontext():
        check_series_digests(checks, spec["digests"])
        check_repeatable(checks, steps, series_seed(seed, 0), nodes)
    cli = CliRunner(work, seed, nodes, steps, checks, probe, Tracer() if trace else None)

    start = perf_counter()
    plain, traced = series_window(checks, probe, nodes, steps, seed, start + spec["sim_share"] * seconds, tracer)
    while perf_counter() < start + seconds or not cli.samples["pipeline"]:
        cli.cycle()
    counts["series"] = len(plain) + len(traced)
    counts.update({f"cli.{command}": len(times) for command, times in cli.samples.items()})

    if trace:
        metrics.update(loop_layer_metrics(tracer, plain, traced, steps))
        metrics.update(direct_layer_metrics(nodes))
        metrics.update(analytic_layer_metrics())
        metrics.update(import_layer_metrics(work))
        metrics.update(cli.layer_metrics())
        factor = probe.run_factor()
        for metric, unit in PER_LAYER_UNITS.items():
            if unit in ("ms", "ms/step"):
                metrics[metric] *= factor
    else:
        ms_per_step = [1e3 * t / steps for t in plain]
        metrics["steps_per_s"] = steps * len(plain) / sum(plain)
        metrics["ms_per_step.p50"] = statistics.median(ms_per_step)
        metrics.update(cli.end_to_end())
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return checks, metrics, counts, statistics.median(probe.times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="also write a full JSON report here")
    args = parser.parse_args(argv)

    if not (SRC / "gammachain" / "__init__.py").is_file():
        print(f"error: no gammachain package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with one_cpu():
            checks, metrics, counts, probe_s = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    info = {"provenance": provenance(), "samples": counts, "probe_s": probe_s, "failures": checks.failures}
    for metric, unit in units.items():
        print(f"{metric:40s} {metrics[metric]:>14.6g} {unit}")
    print(json.dumps(info))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    if args.report:
        report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, **info)
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
