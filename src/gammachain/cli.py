"""Command-line interface for the gammachain package.

Five subcommands tie the library together:

``model``
    Build one analytical transition model, solve its stationary
    distribution, and write both as JSON and CSV.
``simulate``
    Run the latency-network simulation and write the gamma series, its
    cumulative moving average, and run metadata.
``analyze``
    Bin a gamma series (from a file, or freshly simulated) into transition
    counts and write counts, the empirical matrix, its stationary
    distribution, and occupancy fractions.
``compare``
    Score both analytical models against a transition-count matrix and
    write a likelihood report with a verdict.
``pipeline``
    simulate, analyze, and compare in one run, plus a summary placing the
    analytical and empirical stationary distributions side by side.

Artifacts land in ``--out`` (default: the GAMMACHAIN_OUT_DIR environment
variable when set, else the working directory). Matrices print to stdout
rounded to two decimals; files persist full precision. Every command is
deterministic given its flags, so re-runs rewrite byte-identical files.
``main`` resolves every input before the command runs: the input files,
then the model matrices, then the series (read or simulated). It writes
the artifacts, then prints stdout, only when the whole run succeeds, so a
run that exits 1 or 2 prints just its error and leaves ``--out`` as it
found it, unless writing is what failed. Exit status is 2 when a flag is
rejected, 1 when the run fails, and 0 exactly when all requested
artifacts were written; a reader that closes stdout early does not change it.

Only the commands that simulate, or that take ``--region-config``, import
the simulator (``network``), and only ``simulate`` and ``pipeline`` import
``hashlib``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from . import __version__
from .inference import (
    GammaSeries,
    TransitionCounts,
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
    moving_average,
    occupancy_from_counts,
    score_model,
)
from .markov import (
    KernelConfig,
    StateDistribution,
    TransitionMatrix,
    model1_transition_matrix,
    model2_transition_matrix,
    stationary_distribution,
)
from .partition import StrategyPartition, default_partition

OUT_DIR_ENV = "GAMMACHAIN_OUT_DIR"


def _dumps(obj) -> str:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _config_hash(obj: dict) -> str:
    import hashlib

    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def simulate_gamma_series(*args, **kwargs) -> GammaSeries:
    """``network.simulate_gamma_series``, imported on the first call."""
    from .network import simulate_gamma_series

    return simulate_gamma_series(*args, **kwargs)


def _read(path, parse, text=True):
    """``parse`` an input file's text (its path if not ``text``); a wrong shape raises ValueError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8") if text else path)
    except (KeyError, TypeError, OverflowError, ValueError) as exc:
        raise ValueError(f"malformed input file {path}: {type(exc).__name__}: {exc}") from exc


# each --kind, in report order: the model's report name and its builder
_MODELS = {
    "midpoint": ("model1", lambda args: model1_transition_matrix(args.partition)),
    "kernel": ("model2", lambda args: model2_transition_matrix(args.partition, KernelConfig(args.length_scale))),
}


def _load_inputs(args: argparse.Namespace) -> None:
    """Resolve each input the command takes, in this order: the files, the models, the series."""
    given = vars(args)
    if "partition" in given:
        args.partition = (
            default_partition()
            if args.partition is None
            else _read(args.partition, lambda text: StrategyPartition.from_json_obj(json.loads(text)))
        )
    simulates = "steps" in given and given.get("series") is None
    if simulates or given.get("region_config") is not None:
        from .network import RegionConfig, default_region_config

        region = (
            default_region_config()
            if args.region_config is None
            else _read(args.region_config, lambda text: RegionConfig.from_json_obj(json.loads(text)))
        )
        args.region_config = region.scaled_to(args.nodes)
    if given.get("series") is not None:
        args.series = _read(args.series, GammaSeries.from_csv, text=False)
    if given.get("counts") is not None:
        args.counts = _read(args.counts, lambda text: TransitionCounts.from_csv(text, args.partition))
    elif "counts" in given:
        try:
            args.counts = load_reference_counts(args.partition)
        except ValueError as exc:
            raise ValueError(f"{exc}; give counts binned under --partition with --counts") from None
    if "length_scale" in given:
        kinds = [args.kind] if "kind" in given else list(_MODELS)
        args.models = {kind: _MODELS[kind][1](args) for kind in kinds}
    if simulates:
        args.series = simulate_gamma_series(
            np.arange(args.steps, dtype=float), seed=args.seed, config=args.region_config,
            dropout=args.dropout, activation=args.activation,
        )


def _render_table(labels, rows) -> str:
    """Labelled square table of preformatted cells, right-aligned, at least 5 wide."""
    width = max(len(label) for label in labels)
    cell = max([5] + [len(text) for row in rows for text in row])
    lines = [" " * (width + 2) + "  ".join(f"{l:>{cell}}" for l in labels)]
    for label, row in zip(labels, rows):
        lines.append(f"{label:>{width}}  " + "  ".join(f"{text:>{cell}}" for text in row))
    return "\n".join(lines)


def _render_matrix(matrix: TransitionMatrix) -> str:
    return _render_table(matrix.labels, [[f"{v:.2f}" for v in row] for row in matrix.entries])


def _render_weights(dist: StateDistribution) -> str:
    return "(" + ", ".join(f"{v:.2f}" for v in dist.weights) + ")"


def _plot_csv(series: GammaSeries, averaged: GammaSeries) -> str:
    lines = ["time,gamma,moving_average"]
    for t, v, m in zip(series.times, series.values, averaged.values):
        lines.append(f"{float(t)!r},{float(v)!r},{float(m)!r}")
    return "\n".join(lines) + "\n"


def cmd_model(args: argparse.Namespace, artifacts: dict[str, str]) -> None:
    matrix = args.models[args.kind]
    stationary = stationary_distribution(matrix)
    stem = f"model_{args.kind}"
    artifacts[stem + "_matrix.json"] = _dumps(matrix.to_json_obj())
    artifacts[stem + "_matrix.csv"] = matrix.to_csv()
    artifacts[stem + "_stationary.json"] = _dumps(stationary.to_json_obj())
    artifacts[stem + "_stationary.csv"] = stationary.to_csv()
    print(f"{args.kind} transition matrix, rounded to 2 decimals:")
    print(_render_matrix(matrix))
    print(f"stationary distribution: {_render_weights(stationary)}")


def cmd_simulate(args: argparse.Namespace, artifacts: dict[str, str]) -> None:
    region, series = args.region_config, args.series
    averaged = moving_average(series)
    metadata = {
        "command": args.command,
        "label": args.label,
        "seed": args.seed,
        "steps": args.steps,
        "nodes": region.node_count,
        "dropout": args.dropout,
        "activation": args.activation,
    }
    # the hash covers these and the region config, not the command, label or node count
    hashed = {key: metadata[key] for key in ("seed", "steps", "dropout", "activation")}
    metadata["config_hash"] = _config_hash({**hashed, "region_config": region.to_json_obj()})
    metadata["versions"] = {
        "gammachain": __version__, "python": platform.python_version(), "numpy": np.__version__
    }
    artifacts["series.csv"] = series.to_csv()
    artifacts["moving_average.csv"] = averaged.to_csv()
    artifacts["plot_data.csv"] = _plot_csv(series, averaged)
    artifacts["run_metadata.json"] = _dumps(metadata)
    print(
        f"simulated {len(series)} samples on {region.node_count} nodes "
        f"(seed {metadata['seed']}); final moving average {averaged.values[-1]:.2f}"
    )


def cmd_analyze(args: argparse.Namespace, artifacts: dict[str, str]) -> tuple[TransitionCounts, StateDistribution]:
    """Add the analysis; return the counts and the empirical stationary distribution."""
    counts = count_transitions(args.series, args.partition)
    empirical = empirical_transition_matrix(counts)
    # one closed class: every state reaches the last sample's, an unvisited one by its uniform row
    stationary = stationary_distribution(empirical)
    artifacts["transition_counts.csv"] = counts.to_csv()
    artifacts["empirical_matrix.json"] = _dumps(empirical.to_json_obj())
    artifacts["empirical_matrix.csv"] = empirical.to_csv()
    artifacts["empirical_stationary.json"] = _dumps(stationary.to_json_obj())
    artifacts["occupancy.json"] = _dumps(occupancy_from_counts(counts, args.series).to_json_obj())
    print(f"transition counts over {counts.total} pairs:")
    print(_render_table(counts.labels, [[str(int(v)) for v in row] for row in counts.counts]))
    print("empirical transition matrix, rounded to 2 decimals:")
    print(_render_matrix(empirical))
    print(f"empirical stationary distribution: {_render_weights(stationary)}")
    return counts, stationary


def cmd_compare(args: argparse.Namespace, artifacts: dict[str, str]) -> dict:
    """Add the likelihood report of the two models against ``args.counts``; return it."""
    counts = args.counts
    scores = [score_model(name, args.models[kind], counts) for kind, (name, _) in _MODELS.items()]
    first, second = scores
    rl1, rl2 = first.relative_likelihood, second.relative_likelihood
    verdict = "tie" if rl1 == rl2 else f"{(first if rl1 < rl2 else second).model_name} preferred"
    report = {
        "counts_total": counts.total,
        "length_scale": args.length_scale,
        "models": [score.to_json_obj() for score in scores],
        "verdict": verdict,
    }
    artifacts["comparison.json"] = _dumps(report)
    print("relative likelihood: " + ", ".join(f"{s.model_name} {s.relative_likelihood:.2f}" for s in scores))
    print(f"verdict: {verdict}")
    return report


def cmd_pipeline(args: argparse.Namespace, artifacts: dict[str, str]) -> None:
    cmd_simulate(args, artifacts)
    args.counts, stationary = cmd_analyze(args, artifacts)
    report = cmd_compare(args, artifacts)
    stationaries = {name: stationary_distribution(args.models[kind]) for kind, (name, _) in _MODELS.items()}
    stationaries["empirical"] = stationary
    summary = {
        "stationary": {name: dist.to_json_obj() for name, dist in stationaries.items()},
        "relative_likelihood": {
            entry["model_name"]: entry["relative_likelihood"]
            for entry in report["models"]
        },
        "verdict": report["verdict"],
    }
    artifacts["summary.json"] = _dumps(summary)
    print(f"stationary distributions ({', '.join(stationaries)}):")
    for name, dist in stationaries.items():
        print(f"  {name:<9} {_render_weights(dist)}")


def _checked(convert, accept, message: str):
    """Argparse type: ``convert`` the text, then reject values ``accept`` refuses.

    The callable carries the converter's name, so a malformed value reads
    "invalid int value: 'x'" or "invalid float value: 'x'".
    """

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    positive_int = _checked(int, lambda v: v >= 1, "must be a positive integer")
    non_negative_int = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
    parser = argparse.ArgumentParser(
        prog="gammachain",
        description="Markov models and latency-network simulation of the fork-following fraction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out",
        default=None,
        help="output directory (default: $GAMMACHAIN_OUT_DIR or the working directory)",
    )

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=non_negative_int, default=0, help="simulation seed")
    sim.add_argument(
        "--nodes",
        type=_checked(int, lambda v: v >= 2, "must be at least 2"),
        default=100,
        help="number of network nodes",
    )
    sim.add_argument(
        "--dropout",
        type=_checked(float, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
        default=0.1,
        help="initial inactive-link probability",
    )
    sim.add_argument(
        "--activation",
        type=_checked(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        default=0.9,
        help="per-step link activation probability",
    )
    sim.add_argument(
        "--region-config", default=None, metavar="JSON", help="region latency config file"
    )

    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument(
        "--length-scale",
        type=_checked(float, lambda v: 0 < v < np.inf, "must be positive and finite"),
        default=0.25,
        help="kernel length scale",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", parents=[common, kernel], help="build one analytical model")
    p_model.set_defaults(handler=cmd_model)
    p_model.add_argument("--kind", choices=list(_MODELS), default="midpoint", help="model kind")

    p_sim = sub.add_parser("simulate", parents=[common, sim], help="run the network simulation")
    p_sim.set_defaults(handler=cmd_simulate)

    p_analyze = sub.add_parser("analyze", parents=[common, sim], help="bin a gamma series into transition counts")
    p_analyze.set_defaults(handler=cmd_analyze)
    p_analyze.add_argument(
        "--series", default=None, metavar="CSV", help="existing series file (otherwise simulate)"
    )

    p_compare = sub.add_parser("compare", parents=[common, kernel], help="score both models against counts")
    p_compare.set_defaults(handler=cmd_compare)
    p_compare.add_argument(
        "--counts", default=None, metavar="CSV", help="transition counts file (default: packaged reference)"
    )

    p_pipe = sub.add_parser("pipeline", parents=[common, sim, kernel], help="simulate, analyze, and compare")
    p_pipe.set_defaults(handler=cmd_pipeline)
    for p, steps in ((p_sim, 1000), (p_analyze, 5000), (p_pipe, 5000)):
        p.add_argument("--steps", type=positive_int, default=steps, help="samples to draw")
    for p in (p_model, p_analyze, p_compare, p_pipe):
        p.add_argument("--partition", default=None, metavar="JSON", help="strategy partition file")
    for p in (p_sim, p_pipe):
        p.add_argument("--label", default="", help="free-form run label recorded in metadata")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, "."))
    artifacts: dict[str, str] = {}
    stdout = io.StringIO()
    try:
        _load_inputs(args)
        with redirect_stdout(stdout):
            args.handler(args, artifacts)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (out / name).write_text(text, encoding="utf-8")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(stdout.getvalue())
        for name in artifacts:
            print(f"wrote {out / name}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early, after every artifact was written; silence the exit-time flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
