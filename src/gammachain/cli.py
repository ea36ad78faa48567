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
Exit status is 0 exactly when all requested artifacts were written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from os import environ
from pathlib import Path

import numpy as np

from .inference import (
    TransitionCounts,
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
    occupancy_fractions,
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


@dataclass(frozen=True)
class RunConfig:
    """One parsed command invocation; argparse has validated every field.

    ``label`` is free-form documentation carried into run metadata; it does
    not affect any computation.
    """

    command: str
    seed: int = 0
    steps: int = ANALYZE_DEFAULT_STEPS
    node_count: int = 100
    label: str = ""
    model_kind: str = "midpoint"
    length_scale: float = 0.25
    dropout: float = 0.1
    activation: float = 0.9
    partition_path: str | None = None
    region_config_path: str | None = None
    series_path: str | None = None
    counts_path: str | None = None
    out_dir: str = "."


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


@dataclass(frozen=True)
class AnalyzeResult:
    counts: TransitionCounts
    empirical: TransitionMatrix
    stationary: StateDistribution | None
    # the empirical_stationary.json object; holds a note when stationary is None
    stationary_obj: dict


def _dumps(obj) -> str:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _config_hash(obj: dict) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _load_partition(config: RunConfig) -> StrategyPartition:
    if config.partition_path is None:
        return default_partition()
    return StrategyPartition.from_file(config.partition_path)


def _load_region_config(config: RunConfig) -> RegionConfig:
    region = (
        default_region_config()
        if config.region_config_path is None
        else RegionConfig.from_file(config.region_config_path)
    )
    if config.node_count != region.node_count:
        region = region.scaled_to(config.node_count)
    return region


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


def _build_model(config: RunConfig, partition: StrategyPartition) -> TransitionMatrix:
    if config.model_kind == "midpoint":
        return model1_transition_matrix(partition)
    return model2_transition_matrix(partition, KernelConfig(config.length_scale))


def _plot_csv(series: GammaSeries, averaged: GammaSeries) -> str:
    lines = ["time,gamma,moving_average"]
    for t, v, m in zip(series.times, series.values, averaged.values):
        lines.append(f"{float(t)!r},{float(v)!r},{float(m)!r}")
    return "\n".join(lines) + "\n"


def cmd_model(config: RunConfig, writer: ArtifactWriter) -> None:
    partition = _load_partition(config)
    matrix = _build_model(config, partition)
    stationary = stationary_distribution(matrix)
    stem = f"model_{config.model_kind}"
    writer.write(stem + "_matrix.json", _dumps(matrix.to_json_obj()))
    writer.write(stem + "_matrix.csv", matrix.to_csv())
    writer.write(stem + "_stationary.json", _dumps(stationary.to_json_obj()))
    writer.write(stem + "_stationary.csv", stationary.to_csv())
    print(f"{config.model_kind} transition matrix, rounded to 2 decimals:")
    print(_render_matrix(matrix))
    print(f"stationary distribution: {_render_weights(stationary)}")


def _simulate(config: RunConfig, region: RegionConfig) -> GammaSeries:
    return simulate_gamma_series(
        np.arange(config.steps, dtype=float),
        seed=config.seed,
        config=region,
        dropout=config.dropout,
        activation=config.activation,
    )


def cmd_simulate(config: RunConfig, writer: ArtifactWriter) -> GammaSeries:
    region = _load_region_config(config)
    series = _simulate(config, region)
    averaged = moving_average(series)
    metadata = {
        "command": config.command,
        "label": config.label,
        "seed": config.seed,
        "steps": config.steps,
        "nodes": region.node_count,
        "dropout": config.dropout,
        "activation": config.activation,
        "config_hash": _config_hash(
            {
                "seed": config.seed,
                "steps": config.steps,
                "dropout": config.dropout,
                "activation": config.activation,
                "region_config": region.to_json_obj(),
            }
        ),
    }
    writer.write("series.csv", series.to_csv())
    writer.write("moving_average.csv", averaged.to_csv())
    writer.write("plot_data.csv", _plot_csv(series, averaged))
    writer.write("run_metadata.json", _dumps(metadata))
    print(
        f"simulated {len(series)} samples on {region.node_count} nodes "
        f"(seed {config.seed}); final moving average {averaged.values[-1]:.2f}"
    )
    return series


def _analysis_series(config: RunConfig) -> GammaSeries:
    if config.series_path is not None:
        text = Path(config.series_path).read_text(encoding="utf-8")
        return GammaSeries.from_csv(text)
    return _simulate(config, _load_region_config(config))


def cmd_analyze(
    config: RunConfig, writer: ArtifactWriter, series: GammaSeries | None = None
) -> AnalyzeResult:
    partition = _load_partition(config)
    if series is None:
        series = _analysis_series(config)
    if len(series) < 2:
        raise ValueError("series must hold at least two samples to count transitions")
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
    writer.write(
        "occupancy.json", _dumps(occupancy_fractions(series, partition).to_json_obj())
    )
    print(f"transition counts over {counts.total} pairs:")
    print(_render_table(counts.labels, [[str(int(v)) for v in row] for row in counts.counts]))
    print("empirical transition matrix, rounded to 2 decimals:")
    print(_render_matrix(empirical))
    if stationary is not None:
        print(f"empirical stationary distribution: {_render_weights(stationary)}")
    else:
        print(f"empirical stationary distribution unavailable: {note}")
    return AnalyzeResult(counts, empirical, stationary, stationary_obj)


def cmd_compare(
    config: RunConfig, writer: ArtifactWriter, counts: TransitionCounts | None = None
) -> tuple[dict, tuple[TransitionMatrix, TransitionMatrix]]:
    """Write the likelihood report; return it with the two model matrices."""
    partition = _load_partition(config)
    if counts is None:
        if config.counts_path is not None:
            text = Path(config.counts_path).read_text(encoding="utf-8")
            counts = TransitionCounts.from_csv(text, partition)
        else:
            counts = load_reference_counts(partition)
    matrices = (
        model1_transition_matrix(partition),
        model2_transition_matrix(partition, KernelConfig(config.length_scale)),
    )
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
        "length_scale": config.length_scale,
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


def cmd_pipeline(config: RunConfig, writer: ArtifactWriter) -> None:
    if config.steps < 2:
        raise ValueError("pipeline needs at least two steps to count transitions")
    series = cmd_simulate(config, writer)
    analysis = cmd_analyze(config, writer, series=series)
    report, (matrix1, matrix2) = cmd_compare(config, writer, counts=analysis.counts)
    pi1 = stationary_distribution(matrix1)
    pi2 = stationary_distribution(matrix2)
    summary = {
        "stationary": {
            "model1": pi1.to_json_obj(),
            "model2": pi2.to_json_obj(),
            "empirical": analysis.stationary_obj,
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
    if analysis.stationary is not None:
        print(f"  empirical {_render_weights(analysis.stationary)}")
    else:
        print(f"  empirical unavailable: {analysis.stationary_obj['note']}")


_DISPATCH = {
    "model": cmd_model,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "pipeline": cmd_pipeline,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _dropout(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1)")
    return value


def _activation(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    common.add_argument(
        "--partition", default=None, metavar="JSON", help="strategy partition file"
    )
    common.add_argument(
        "--label", default="", help="free-form run label recorded in metadata"
    )

    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    sim.add_argument(
        "--nodes", type=_positive_int, default=100, help="number of network nodes"
    )
    sim.add_argument(
        "--dropout", type=_dropout, default=0.1, help="initial inactive-link probability"
    )
    sim.add_argument(
        "--activation", type=_activation, default=0.9, help="per-step link activation probability"
    )
    sim.add_argument(
        "--region-config", default=None, metavar="JSON", help="region latency config file"
    )

    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument(
        "--length-scale",
        type=_positive_float,
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
        "--steps", type=_positive_int, default=SIMULATE_DEFAULT_STEPS, help="samples to draw"
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[common, sim], help="bin a gamma series into transition counts"
    )
    p_analyze.add_argument(
        "--steps", type=_positive_int, default=ANALYZE_DEFAULT_STEPS, help="samples to draw"
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
        "--steps", type=_positive_int, default=ANALYZE_DEFAULT_STEPS, help="samples to draw"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    out_dir = args.out if args.out is not None else environ.get(OUT_DIR_ENV, ".")
    return RunConfig(
        command=args.command,
        seed=getattr(args, "seed", 0),
        steps=getattr(args, "steps", ANALYZE_DEFAULT_STEPS),
        node_count=getattr(args, "nodes", 100),
        label=args.label,
        model_kind=getattr(args, "kind", "midpoint"),
        length_scale=getattr(args, "length_scale", 0.25),
        dropout=getattr(args, "dropout", 0.1),
        activation=getattr(args, "activation", 0.9),
        partition_path=args.partition,
        region_config_path=getattr(args, "region_config", None),
        series_path=getattr(args, "series", None),
        counts_path=getattr(args, "counts", None),
        out_dir=out_dir,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        writer = ArtifactWriter(config.out_dir)
        _DISPATCH[config.command](config, writer)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in writer.written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
