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
Exit status is 2 when a flag is rejected, 1 when the run fails, and 0
exactly when all requested artifacts were written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from os import environ
from pathlib import Path

import numpy as np

from . import __version__
from .inference import (
    TransitionCounts,
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
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
from .network import (
    GammaSeries,
    RegionConfig,
    default_region_config,
    moving_average,
    simulate_gamma_series,
)
from .partition import StrategyPartition, default_partition

OUT_DIR_ENV = "GAMMACHAIN_OUT_DIR"
SIMULATE_DEFAULT_STEPS = 1000
ANALYZE_DEFAULT_STEPS = 5000


class ArtifactWriter:
    """Collects output files under one directory."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.written: list[Path] = []

    def write(self, name: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8")
        self.written.append(path)
        return path


def _dumps(obj) -> str:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _config_hash(obj: dict) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read(path, parse, text=True):
    """``parse`` an input file's text (its path if not ``text``); a wrong shape raises ValueError."""
    try:
        return parse(Path(path).read_text(encoding="utf-8") if text else path)
    except (KeyError, TypeError, OverflowError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed input file {path}: {type(exc).__name__}: {exc}") from exc


def _load_partition(args: argparse.Namespace) -> StrategyPartition:
    if args.partition is None:
        return default_partition()
    return _read(args.partition, lambda text: StrategyPartition.from_json_obj(json.loads(text)))


def _load_region_config(args: argparse.Namespace) -> RegionConfig:
    region = (
        default_region_config()
        if args.region_config is None
        else _read(args.region_config, lambda text: RegionConfig.from_json_obj(json.loads(text)))
    )
    return region.scaled_to(args.nodes)


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


def _build_model(args: argparse.Namespace, partition: StrategyPartition, kind: str) -> TransitionMatrix:
    if kind == "midpoint":
        return model1_transition_matrix(partition)
    return model2_transition_matrix(partition, KernelConfig(args.length_scale))


def _plot_csv(series: GammaSeries, averaged: GammaSeries) -> str:
    lines = ["time,gamma,moving_average"]
    for t, v, m in zip(series.times, series.values, averaged.values):
        lines.append(f"{float(t)!r},{float(v)!r},{float(m)!r}")
    return "\n".join(lines) + "\n"


def cmd_model(args: argparse.Namespace, writer: ArtifactWriter) -> None:
    partition = _load_partition(args)
    matrix = _build_model(args, partition, args.kind)
    stationary = stationary_distribution(matrix)
    stem = f"model_{args.kind}"
    writer.write(stem + "_matrix.json", _dumps(matrix.to_json_obj()))
    writer.write(stem + "_matrix.csv", matrix.to_csv())
    writer.write(stem + "_stationary.json", _dumps(stationary.to_json_obj()))
    writer.write(stem + "_stationary.csv", stationary.to_csv())
    print(f"{args.kind} transition matrix, rounded to 2 decimals:")
    print(_render_matrix(matrix))
    print(f"stationary distribution: {_render_weights(stationary)}")


def _simulate(args: argparse.Namespace, region: RegionConfig) -> GammaSeries:
    return simulate_gamma_series(
        np.arange(args.steps, dtype=float),
        seed=args.seed,
        config=region,
        dropout=args.dropout,
        activation=args.activation,
    )


def cmd_simulate(
    args: argparse.Namespace, writer: ArtifactWriter, region: RegionConfig | None = None
) -> GammaSeries:
    region = region or _load_region_config(args)
    series = _simulate(args, region)
    averaged = moving_average(series)
    metadata = {
        "command": args.command,
        "label": args.label,
        "seed": args.seed,
        "steps": args.steps,
        "nodes": region.node_count,
        "dropout": args.dropout,
        "activation": args.activation,
        "config_hash": _config_hash(
            {
                "seed": args.seed,
                "steps": args.steps,
                "dropout": args.dropout,
                "activation": args.activation,
                "region_config": region.to_json_obj(),
            }
        ),
        "versions": {"gammachain": __version__, "python": platform.python_version(), "numpy": np.__version__},
    }
    writer.write("series.csv", series.to_csv())
    writer.write("moving_average.csv", averaged.to_csv())
    writer.write("plot_data.csv", _plot_csv(series, averaged))
    writer.write("run_metadata.json", _dumps(metadata))
    print(
        f"simulated {len(series)} samples on {region.node_count} nodes "
        f"(seed {args.seed}); final moving average {averaged.values[-1]:.2f}"
    )
    return series


def cmd_analyze(
    args: argparse.Namespace, writer: ArtifactWriter,
    series: GammaSeries | None = None, partition: StrategyPartition | None = None,
) -> tuple[TransitionCounts, StateDistribution | None, dict]:
    """Write the analysis; return the counts, the stationary distribution (None if the solve fails) and its JSON."""
    partition = partition or _load_partition(args)
    if series is None and args.series is not None:
        series = _read(args.series, GammaSeries.from_csv, text=False)
    elif series is None:
        series = _simulate(args, _load_region_config(args))
    counts = count_transitions(series, partition)
    empirical = empirical_transition_matrix(counts)
    stationary = None
    note = None
    try:
        stationary = stationary_distribution(empirical)
        stationary_obj = stationary.to_json_obj()
    except ValueError as exc:
        note = str(exc)
        stationary_obj = {"labels": list(partition.labels), "weights": None, "note": note}
    writer.write("transition_counts.csv", counts.to_csv())
    writer.write("empirical_matrix.json", _dumps(empirical.to_json_obj()))
    writer.write("empirical_matrix.csv", empirical.to_csv())
    writer.write("empirical_stationary.json", _dumps(stationary_obj))
    writer.write("occupancy.json", _dumps(occupancy_from_counts(counts, series).to_json_obj()))
    print(f"transition counts over {counts.total} pairs:")
    print(_render_table(counts.labels, [[str(int(v)) for v in row] for row in counts.counts]))
    print("empirical transition matrix, rounded to 2 decimals:")
    print(_render_matrix(empirical))
    if stationary is not None:
        print(f"empirical stationary distribution: {_render_weights(stationary)}")
    else:
        print(f"empirical stationary distribution unavailable: {note}")
    return counts, stationary, stationary_obj


def cmd_compare(
    args: argparse.Namespace, writer: ArtifactWriter,
    counts: TransitionCounts | None = None, partition: StrategyPartition | None = None,
) -> tuple[dict, tuple[TransitionMatrix, TransitionMatrix]]:
    """Write the likelihood report; return it with the two model matrices."""
    partition = partition or _load_partition(args)
    if counts is None and args.counts is not None:
        counts = _read(args.counts, lambda text: TransitionCounts.from_csv(text, partition))
    elif counts is None:
        counts = load_reference_counts(partition)
    matrices = tuple(_build_model(args, partition, kind) for kind in ("midpoint", "kernel"))
    model1 = score_model("model1", matrices[0], counts)
    model2 = score_model("model2", matrices[1], counts)
    if model1.relative_likelihood < model2.relative_likelihood:
        verdict = "model1 preferred"
    elif model2.relative_likelihood < model1.relative_likelihood:
        verdict = "model2 preferred"
    else:
        verdict = "tie"
    report = {
        "counts_total": counts.total,
        "length_scale": args.length_scale,
        "models": [model1.to_json_obj(), model2.to_json_obj()],
        "verdict": verdict,
    }
    writer.write("comparison.json", _dumps(report))
    print(
        "relative likelihood: "
        f"model1 {model1.relative_likelihood:.2f}, "
        f"model2 {model2.relative_likelihood:.2f}"
    )
    print(f"verdict: {verdict}")
    return report, matrices


def cmd_pipeline(args: argparse.Namespace, writer: ArtifactWriter) -> None:
    if args.steps < 2:
        raise ValueError("pipeline needs at least two steps to count transitions")
    # every input file is read before the first write, so a bad one leaves --out empty
    partition = _load_partition(args)
    series = cmd_simulate(args, writer, _load_region_config(args))
    counts, stationary, stationary_obj = cmd_analyze(args, writer, series, partition)
    report, (matrix1, matrix2) = cmd_compare(args, writer, counts, partition)
    pi1 = stationary_distribution(matrix1)
    pi2 = stationary_distribution(matrix2)
    summary = {
        "stationary": {
            "model1": pi1.to_json_obj(),
            "model2": pi2.to_json_obj(),
            "empirical": stationary_obj,
        },
        "relative_likelihood": {
            entry["model_name"]: entry["relative_likelihood"]
            for entry in report["models"]
        },
        "verdict": report["verdict"],
    }
    writer.write("summary.json", _dumps(summary))
    print("stationary distributions (model1, model2, empirical):")
    print(f"  model1    {_render_weights(pi1)}")
    print(f"  model2    {_render_weights(pi2)}")
    if stationary is not None:
        print(f"  empirical {_render_weights(stationary)}")
    else:
        print(f"  empirical unavailable: {stationary_obj['note']}")


_DISPATCH = {
    "model": cmd_model,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "pipeline": cmd_pipeline,
}


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
    sim.add_argument("--seed", type=int, default=0, help="simulation seed")
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

    p_model = sub.add_parser(
        "model", parents=[common, kernel], help="build one analytical model"
    )
    p_model.add_argument(
        "--kind", choices=("midpoint", "kernel"), default="midpoint", help="model kind"
    )

    p_sim = sub.add_parser(
        "simulate", parents=[common, sim], help="run the network simulation"
    )
    p_sim.add_argument(
        "--steps", type=positive_int, default=SIMULATE_DEFAULT_STEPS, help="samples to draw"
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[common, sim], help="bin a gamma series into transition counts"
    )
    p_analyze.add_argument(
        "--steps", type=positive_int, default=ANALYZE_DEFAULT_STEPS, help="samples to draw"
    )
    p_analyze.add_argument(
        "--series", default=None, metavar="CSV", help="existing series file (otherwise simulate)"
    )

    p_compare = sub.add_parser(
        "compare", parents=[common, kernel], help="score both models against counts"
    )
    p_compare.add_argument(
        "--counts", default=None, metavar="CSV", help="transition counts file (default: packaged reference)"
    )

    p_pipe = sub.add_parser(
        "pipeline", parents=[common, sim, kernel], help="simulate, analyze, and compare"
    )
    p_pipe.add_argument(
        "--steps", type=positive_int, default=ANALYZE_DEFAULT_STEPS, help="samples to draw"
    )
    for p in (p_model, p_analyze, p_compare, p_pipe):
        p.add_argument("--partition", default=None, metavar="JSON", help="strategy partition file")
    for p in (p_sim, p_pipe):
        p.add_argument("--label", default="", help="free-form run label recorded in metadata")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    writer = ArtifactWriter(args.out if args.out is not None else environ.get(OUT_DIR_ENV, "."))
    try:
        _DISPATCH[args.command](args, writer)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in writer.written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
