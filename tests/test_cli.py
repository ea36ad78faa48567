"""End-to-end checks of the command line entry point, run in-process unless a check needs a child's stdout."""

import hashlib
import json
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gammachain
from gammachain import cli
from gammachain.inference import GammaSeries, TransitionCounts
from gammachain.markov import TransitionMatrix, model1_transition_matrix
from gammachain.partition import StrategyPartition, default_partition
from helpers import subprocess_env, write_file

FIXTURE_SERIES = "time,gamma\n0.0,0.1\n1.0,0.2\n2.0,0.7\n3.0,0.9\n"
# the Pareto scale of the initial draw is mean - 5, so a mean of 3 is malformed
LOW_MEAN_REGION = '{"region_names": ["a", "b"], "node_counts": [1, 1], "mean_latency": [[3, 50], [50, 12]]}'
# numpy parses quoted numbers and JSON true as numbers; the region file must not
STRING_MEAN_REGION = '{"region_names": ["a", "b"], "node_counts": [1, 1], "mean_latency": [["10", "20"], ["20", "30"]]}'
BOOL_MEAN_REGION = '{"region_names": ["a", "b"], "node_counts": [1, 1], "mean_latency": [[10, true], [true, 12]]}'

# sha256 of every artifact of each pinned run, and of its stdout without the
# "wrote" lines. run_metadata.json is hashed with "versions" removed, so that a
# Python patch release does not move it; its three keys are asserted apart. The
# seeded runs depend on numpy's Generator stream, as the seed-3 digests do. A pin
# changes only on purpose, with a CHANGES.md line.
CLI_DIGESTS = {
    "analyze benchmark-shaped": {
        "empirical_matrix.csv": "de6edf4eb1ba6dbbd4b992853ac272adb2fd690217a98b99c7d23fcb8e286de0",
        "empirical_matrix.json": "19459c46331bf6c8012c886a45e30ad8564028e466b4a109ec78cdb3051ecb38",
        "empirical_stationary.json": "1bc6017de57dab5348b643737729588305f6edcc8bac802cc508b2a210bc9585",
        "occupancy.json": "88a5d603c5719a13008fc5d673bd951cf6f30e8e66e8eb28f5cae48f2afede1e",
        "transition_counts.csv": "3b9ea796a0c505d5493b42eba5034437dee1eeee96918bb3c001f06d238ab477",
        "stdout": "aeaa08bac40cd4bae89b084df13622bdef6328199866463eb7bacb1262a89393",
    },
    "analyze simulated": {
        "empirical_matrix.csv": "77b9582353e6b2db96087bc4acc5b1fead146ec0b0df9ab3d07399685c8a1aa1",
        "empirical_matrix.json": "74a994af72fe374e2dd370dce66504abd8546596c882b6ecd3f33d122ee75a49",
        "empirical_stationary.json": "4516e290f73752ba24c5c4d897ca63f48a4eb9f609284ef8e115375b758b86ab",
        "occupancy.json": "4516e290f73752ba24c5c4d897ca63f48a4eb9f609284ef8e115375b758b86ab",
        "transition_counts.csv": "a18855eb2514beec38c0dac9a692f16b5b24a377b35dd482431441aa05e9adb3",
        "stdout": "20cb77439cd72c909f143a418dbe00dcd43c55146a5256ba19f74cc098a3475a",
    },
    "model --kind midpoint": {
        "model_midpoint_matrix.csv": "10539f2df651c1d04f375339b97aab99936f430ccb8b10e78293ed023d87e4bd",
        "model_midpoint_matrix.json": "5ba4c7cf74d6055370d72423d49bf3d70d6d262775bc26c52d347d4a0c22e576",
        "model_midpoint_stationary.csv": "316ce706bdc531d2ad4341c3f6cd25dc8b9daceaea90e3b8d5cfd7fcf0346738",
        "model_midpoint_stationary.json": "8c8a6ebfde18a62d5c1bc346395be49ec31d01e5d3c3b0b30914eabc50f6d78e",
        "stdout": "6cd4d224ef1f7d0d52bc1b847f7dd558c0a33bc63ec708b33c9bef3bb5742550",
    },
    "model --kind kernel": {
        "model_kernel_matrix.csv": "28e2514f125ec2d80791de907ccdd24e8f19e31b7ab342cbae71c0ede0456ebb",
        "model_kernel_matrix.json": "37eba067683cefb17fb1b37f08cb8179a74ed1abc88e1a82dafeece3d1b87d85",
        "model_kernel_stationary.csv": "0a3b3acd46973c259875aa5cebe465c4fff9b0567b3e881c97292d149e111f6e",
        "model_kernel_stationary.json": "4c92324d53f2ec4697748afc494b3e20ff1443bf87dcb9f51e3a07a0e3ce98c5",
        "stdout": "beb304c75046acc8f86095370595f900d590d3cb7eb5f2c48357f0ebb7c52f46",
    },
    "simulate --steps 300 --seed 7 --label pinned": {
        "moving_average.csv": "a3a1df2c9d1f00e5611d8c4c2c4919d2236fd8d9138ac647ce215d322cb5b76e",
        "plot_data.csv": "b2f19d20d8e9f047ba9128e481b3cb7e0e174a5e48e895f5c89b140b395010a4",
        "run_metadata.json": "9a32bc130f3d429be6ce8c37d949765f4037927931b132466243c21bd2a1a249",
        "series.csv": "0ea63f00d2cfe72f5d451de5d3a5e916ea2140f9926a210d48db3ed66edc30d2",
        "stdout": "d9100cdc09cdeb5e5b142a026ad0e8f1f6efaafb551a468ad3680c0854588c58",
    },
    "compare": {
        "comparison.json": "7e6cf10f06d9870d252d38eff19e2df77c9c47fd282bea01e2028e6d676b4d23",
        "stdout": "dbc2440d665e246817d19708fbe00bbc42cad41812b36634ab9f8da7511cefaf",
    },
    "compare --counts {counts}": {
        "comparison.json": "9027a41c3523ca97d4fb0ddf5397dd6ccd6184a6594cbbcf1a6c21eadbd0c066",
        "stdout": "26b3a4d038ac0adc42a3e5c6d117b3f4c6dd851e0a5f0cc8af9919772b30a409",
    },
    "pipeline --steps 300 --seed 7": {
        "comparison.json": "ca98958fbf05dfd67615b26d721d2ec442a82468405dac16837cc33a668fa650",
        "empirical_matrix.csv": "ebe615476d909e4512b22cf80ccabcc3b5deca07c92518f3444009fd55d34750",
        "empirical_matrix.json": "6e9c7e81110d8a73f0b62b497047aabe7e4382ed71ba9ff6d7e225493156aa7c",
        "empirical_stationary.json": "cbfab1c774248e5decd3fb309bf617b655992b81e8e2cd7da7d21b9fbed2b0d5",
        "moving_average.csv": "a3a1df2c9d1f00e5611d8c4c2c4919d2236fd8d9138ac647ce215d322cb5b76e",
        "occupancy.json": "d4ea68ec21e5e2ea1e90087f08ce2de9714ce9bcabcedb7638f9494f03e86d40",
        "plot_data.csv": "b2f19d20d8e9f047ba9128e481b3cb7e0e174a5e48e895f5c89b140b395010a4",
        "run_metadata.json": "809fa45a859249720a24ae473e0fcb83a45240faf930588b76db6ac7087c1159",
        "series.csv": "0ea63f00d2cfe72f5d451de5d3a5e916ea2140f9926a210d48db3ed66edc30d2",
        "summary.json": "e69e879c45e858c2426d9548d7348953c52b4504fa73d6205223d9b90f88d1a5",
        "transition_counts.csv": "c74c2d58e4c0ad9e6dd4c175d95cfb59ee79d29bd36139ee10ffbaa550b47e1b",
        "stdout": "09440f97e3d3063fe58f992075149bc7f0e82ea6c394519fbea31edacd2fef7f",
    },
    "pipeline --nodes 400 --steps 30 --seed 7": {
        "comparison.json": "c8634e3f505ce9038f3c4b021d7cfa5e6138ee750f85dfe5e692f12d00afed1a",
        "empirical_matrix.csv": "77b9582353e6b2db96087bc4acc5b1fead146ec0b0df9ab3d07399685c8a1aa1",
        "empirical_matrix.json": "74a994af72fe374e2dd370dce66504abd8546596c882b6ecd3f33d122ee75a49",
        "empirical_stationary.json": "4516e290f73752ba24c5c4d897ca63f48a4eb9f609284ef8e115375b758b86ab",
        "moving_average.csv": "38c31e1df2bf47b048785e5892955f62815301a26383d32c0e534929291f9d52",
        "occupancy.json": "4516e290f73752ba24c5c4d897ca63f48a4eb9f609284ef8e115375b758b86ab",
        "plot_data.csv": "7fc0bd2d8c0a8fd2b8e9832dc11f33d67e8e11e5a41af3a695b4030400bf9397",
        "run_metadata.json": "d9a0e2c2fa5270fec9399febecdee7ac6db86ddfc6367eee045d8a495f9669d3",
        "series.csv": "193fa006d91e99e106076a991acdd187cb1b21d93d732edb4e9f97adefec0521",
        "summary.json": "80a4bf0b18e8892a112968584afe39aee61795e10fe164135af1393a05688072",
        "transition_counts.csv": "e50d462aee13a3db73b3725c723b49fff77fd3b1d02de20be05c2fe15d157ca0",
        "stdout": "d5bcb935a75259525e5721e99d407aed926f8ed8b4f975b1d31a2dcdcda6299e",
    },
}

# the counts file of the pinned `compare --counts` run
PINNED_COUNTS = "120,30,5,1\n40,60,20,2\n3,15,25,9\n0,2,8,14\n"

# config_hash of `simulate --steps 5 --seed 3` with every other flag at its default
SIMULATE_CONFIG_HASH = "d9902f3b4ba8f403388f31b840ede7e4bec6ed8853ed14e7126b3df83d3e8265"


def benchmark_shaped_series(rows=3000):
    """Series text laid out like perfbench's analyze input: times "t.0", repr values, all four bins hit."""
    return "time,gamma\n" + "".join(f"{t}.0,{(t * 0.6180339887498949) % 1.0!r}\n" for t in range(rows))


def run(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


def assert_pinned(name, out, stdout):
    """Every artifact in ``out``, and ``stdout`` less its "wrote" lines, match ``CLI_DIGESTS[name]``."""
    digests = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if path.name == "run_metadata.json":
            metadata = json.loads(data)
            versions = metadata.pop("versions")
            assert versions["gammachain"] == gammachain.__version__
            assert versions["python"] == platform.python_version()
            assert versions["numpy"] == np.__version__
            assert len(versions) == 3
            data = json.dumps(metadata, indent=2).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    kept = "".join(line for line in stdout.splitlines(True) if not line.startswith("wrote "))
    digests["stdout"] = hashlib.sha256(kept.encode()).hexdigest()
    expected = CLI_DIGESTS[name]
    moved = sorted(key for key in digests.keys() | expected.keys() if digests.get(key) != expected.get(key))
    assert not moved, f"`{name}` moved from its pin: {', '.join(moved)} (numpy {np.__version__})"


class TestModelCommand:
    def test_writes_four_artifacts(self, tmp_path):
        assert run(tmp_path, "model", "--kind", "midpoint") == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "model_midpoint_matrix.csv",
            "model_midpoint_matrix.json",
            "model_midpoint_stationary.csv",
            "model_midpoint_stationary.json",
        ]

    def test_matrix_json_round_trips(self, tmp_path):
        run(tmp_path, "model", "--kind", "midpoint")
        text = (tmp_path / "model_midpoint_matrix.json").read_text()
        obj = json.loads(text)
        again = TransitionMatrix(obj["entries"], obj["labels"])
        exact = model1_transition_matrix(default_partition())
        assert np.abs(again.entries - exact.entries).max() < 1e-11

    def test_kernel_kind_selects_other_model(self, tmp_path, capsys):
        assert run(tmp_path, "model", "--kind", "kernel") == 0
        out = capsys.readouterr().out
        assert "model_kernel_matrix.json" in out
        text = (tmp_path / "model_kernel_stationary.json").read_text()
        weights = json.loads(text)["weights"]
        assert weights[0] == pytest.approx(0.70, abs=0.01)

    def test_stationary_rendering(self, tmp_path, capsys):
        run(tmp_path, "model", "--kind", "midpoint")
        out = capsys.readouterr().out
        assert "0.73" in out
        assert "0.81" in out


class TestSimulateCommand:
    def test_artifacts_and_metadata(self, tmp_path):
        assert run(tmp_path, "simulate", "--steps", "5", "--seed", "3") == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "moving_average.csv",
            "plot_data.csv",
            "run_metadata.json",
            "series.csv",
        ]
        metadata = json.loads((tmp_path / "run_metadata.json").read_text())
        assert metadata["seed"] == 3
        assert metadata["steps"] == 5
        assert metadata["nodes"] == 100
        assert len(metadata["config_hash"]) == 64
        assert "timestamp" not in metadata

    def test_metadata_records_versions_outside_the_hash(self, tmp_path):
        assert run(tmp_path, "simulate", "--steps", "5", "--seed", "3") == 0
        metadata = json.loads((tmp_path / "run_metadata.json").read_text())
        assert set(metadata["versions"]) == {"gammachain", "python", "numpy"}
        assert metadata["versions"]["numpy"] == np.__version__
        assert metadata["config_hash"] == SIMULATE_CONFIG_HASH

    def test_label_is_recorded_and_not_hashed(self, tmp_path):
        args = ["simulate", "--steps", "3", "--seed", "3"]
        run(tmp_path / "plain", *args)
        run(tmp_path / "labelled", *args, "--label", "trial run")
        plain, labelled = (
            json.loads((tmp_path / name / "run_metadata.json").read_text())
            for name in ("plain", "labelled")
        )
        assert (plain["label"], labelled["label"]) == ("", "trial run")
        assert labelled["config_hash"] == plain["config_hash"]

    def test_series_round_trips_exactly(self, tmp_path):
        run(tmp_path, "simulate", "--steps", "5", "--seed", "3")
        series = GammaSeries.from_csv(tmp_path / "series.csv")
        assert len(series) == 5
        assert series.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ((series.values >= 0.0) & (series.values <= 0.98)).all()

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run(first, "simulate", "--steps", "4", "--seed", "11")
        run(second, "simulate", "--steps", "4", "--seed", "11")
        for name in ("series.csv", "moving_average.csv", "run_metadata.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run(first, "simulate", "--steps", "4", "--seed", "1")
        run(second, "simulate", "--steps", "4", "--seed", "2")
        assert (first / "series.csv").read_bytes() != (second / "series.csv").read_bytes()

    def test_single_step_allowed(self, tmp_path):
        assert run(tmp_path, "simulate", "--steps", "1") == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_plot_data_columns(self, tmp_path):
        run(tmp_path, "simulate", "--steps", "3")
        lines = (tmp_path / "plot_data.csv").read_text().splitlines()
        assert lines[0] == "time,gamma,moving_average"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 3 for line in lines[1:])


class TestAnalyzeCommand:
    def test_counts_from_series_file(self, tmp_path):
        series_file = tmp_path / "input.csv"
        series_file.write_text(FIXTURE_SERIES)
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 0
        counts = TransitionCounts.from_csv((out / "transition_counts.csv").read_text())
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 0] = 1
        expected[0, 1] = 1
        expected[1, 3] = 1
        assert np.array_equal(counts.counts, expected)

    def test_artifact_set(self, tmp_path):
        series_file = tmp_path / "input.csv"
        series_file.write_text(FIXTURE_SERIES)
        out = tmp_path / "out"
        run(out, "analyze", "--series", str(series_file))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "empirical_matrix.csv",
            "empirical_matrix.json",
            "empirical_stationary.json",
            "occupancy.json",
            "transition_counts.csv",
        ]

    def test_reducible_series_reports_weights(self, tmp_path):
        # HM is the one closed class; the unvisited states are transient
        series_file = tmp_path / "input.csv"
        series_file.write_text("time,gamma\n0.0,0.5\n1.0,0.5\n2.0,0.5\n")
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 0
        stationary = json.loads((out / "empirical_stationary.json").read_text())
        assert stationary == {"labels": ["HM", "SM", "LSM", "EFSM"], "weights": [1.0, 0.0, 0.0, 0.0]}

    def test_irreducible_series_reports_weights(self, tmp_path):
        series_file = tmp_path / "input.csv"
        series_file.write_text(FIXTURE_SERIES)
        out = tmp_path / "out"
        run(out, "analyze", "--series", str(series_file))
        stationary = json.loads((out / "empirical_stationary.json").read_text())
        assert stationary["weights"] is not None
        assert sum(stationary["weights"]) == pytest.approx(1.0)

    def test_occupancy_values(self, tmp_path):
        series_file = tmp_path / "input.csv"
        series_file.write_text(FIXTURE_SERIES)
        out = tmp_path / "out"
        run(out, "analyze", "--series", str(series_file))
        occupancy = json.loads((out / "occupancy.json").read_text())
        assert occupancy["weights"] == [0.5, 0.25, 0.0, 0.25]

    def test_missing_series_file_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(tmp_path / "nope.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nope.csv" in err
        assert not out.exists()

    def test_empty_series_file_fails(self, tmp_path, capsys):
        series_file = tmp_path / "empty.csv"
        series_file.write_text("")
        assert run(tmp_path, "analyze", "--series", str(series_file)) == 1
        assert "header" in capsys.readouterr().err

    def test_one_row_series_fails(self, tmp_path, capsys):
        series_file = tmp_path / "one.csv"
        series_file.write_text("time,gamma\n0.0,0.5\n")
        assert run(tmp_path, "analyze", "--series", str(series_file)) == 1
        assert "error:" in capsys.readouterr().err

    def test_nan_row_fails(self, tmp_path, capsys):
        series_file = tmp_path / "nan.csv"
        series_file.write_text("time,gamma\n0.0,0.1\n1.0,nan\n2.0,0.9\n")
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_row_fails(self, tmp_path, capsys):
        series_file = tmp_path / "bad.csv"
        series_file.write_text("time,gamma\n0.0,0.1\n1.0,0.2,0.3\n2.0,0.9\n")
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_header_only_series_fails_without_warning(self, tmp_path, capsys):
        series_file = write_file(tmp_path, "time,gamma\n\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(out, "analyze", "--series", str(series_file)) == 1
        assert caught == []
        expected = f"error: malformed input file {series_file}: ValueError: series must contain at least one sample\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_wide_sample_times_raise_no_warning(self, tmp_path, capsys):
        series_file = write_file(tmp_path, "time,gamma\n-1e308,0.1\n1e308,0.2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(out, "analyze", "--series", str(series_file)) == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("source", ["benchmark-shaped", "simulated"])
    def test_artifacts_match_pinned_digests(self, tmp_path, capsys, source):
        if source == "simulated":
            assert run(tmp_path / "sim", "simulate", "--steps", "200", "--seed", "3") == 0
            series_file = tmp_path / "sim" / "series.csv"
        else:
            series_file = write_file(tmp_path, benchmark_shaped_series())
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 0
        assert_pinned(f"analyze {source}", out, capsys.readouterr().out)

    def test_bad_region_config_fails_beside_a_series_file(self, tmp_path, capsys):
        series_file = write_file(tmp_path, FIXTURE_SERIES, "series.csv")
        region_file = write_file(tmp_path, "{}", "region.json")
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file), "--region-config", str(region_file)) == 1
        assert f"malformed input file {region_file}: KeyError" in capsys.readouterr().err
        assert not out.exists()

    def test_without_series_simulates(self, tmp_path):
        assert run(tmp_path, "analyze", "--steps", "40", "--seed", "5") == 0
        counts = TransitionCounts.from_csv(
            (tmp_path / "transition_counts.csv").read_text()
        )
        assert counts.total == 39


class TestCompareCommand:
    def test_reference_scores_and_verdict(self, tmp_path, capsys):
        assert run(tmp_path, "compare") == 0
        report = json.loads((tmp_path / "comparison.json").read_text())
        assert report["counts_total"] == 4999
        assert report["verdict"] == "model1 preferred"
        by_name = {entry["model_name"]: entry for entry in report["models"]}
        assert by_name["model1"]["relative_likelihood"] == pytest.approx(
            231.182865, abs=1e-4
        )
        assert by_name["model2"]["relative_likelihood"] == pytest.approx(
            620.880018, abs=1e-4
        )
        assert "model1 preferred" in capsys.readouterr().out

    def test_all_zero_counts_is_tie(self, tmp_path, capsys):
        counts_file = tmp_path / "zeros.csv"
        counts_file.write_text("0,0,0,0\n" * 4)
        out = tmp_path / "out"
        assert run(out, "compare", "--counts", str(counts_file)) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["verdict"] == "tie"
        scores = [entry["relative_likelihood"] for entry in report["models"]]
        assert scores == [0.0, 0.0]

    def test_malformed_counts_fails(self, tmp_path, capsys):
        counts_file = tmp_path / "bad.csv"
        counts_file.write_text("1,2\n3,4\n")
        assert run(tmp_path, "compare", "--counts", str(counts_file)) == 1
        assert "error:" in capsys.readouterr().err

    def test_length_scale_shifts_model2(self, tmp_path, capsys):
        # a narrow kernel scores worse than model1, a wide one better
        cases = (("0.1", 2753.96, "model1 preferred"), ("0.5", 166.78, "model2 preferred"))
        for length_scale, model2_rl, verdict in cases:
            out = tmp_path / length_scale
            assert run(out, "compare", "--length-scale", length_scale) == 0
            report = json.loads((out / "comparison.json").read_text())
            scores = [entry["relative_likelihood"] for entry in report["models"]]
            assert scores == [pytest.approx(231.18, abs=0.005), pytest.approx(model2_rl, abs=0.005)]
            assert report["verdict"] == verdict
            stdout = capsys.readouterr().out
            assert f"relative likelihood: model1 231.18, model2 {model2_rl:.2f}\nverdict: {verdict}\n" in stdout


    def test_infinite_likelihood_is_strict_json(self, tmp_path):
        assert run(tmp_path, "compare", "--length-scale", "0.002") == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "comparison.json").read_text()
        report = json.loads(text, parse_constant=reject)
        model2 = report["models"][1]
        assert model2["relative_likelihood"] is None
        assert "infinite" in model2["note"]
        assert "note" not in report["models"][0]
        assert report["verdict"] == "model1 preferred"

    def test_kernel_entry_rounding_below_zero_is_probability_zero(self, tmp_path):
        # at this scale the closed form once gave a slightly negative model2 entry
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(tmp_path, "compare", "--length-scale", "0.005125") == 0
        assert caught == []
        report = json.loads((tmp_path / "comparison.json").read_text())
        model1, model2 = report["models"]
        assert model1["relative_likelihood"] == pytest.approx(231.182865, abs=1e-4)
        assert model2["relative_likelihood"] is None
        assert report["verdict"] == "model1 preferred"

    def test_counts_proportional_to_a_model_score_zero(self, tmp_path):
        # the log-likelihood gap of these counts to model1 rounds to about -2.4e-7
        entries = model1_transition_matrix(default_partition()).entries
        rows = np.rint(entries * 483293023.85717523).astype(np.int64)
        counts_file = write_file(tmp_path, "".join(",".join(map(str, row)) + "\n" for row in rows))
        out = tmp_path / "out"
        assert run(out, "compare", "--counts", str(counts_file)) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["models"][0]["relative_likelihood"] == 0.0
        assert report["verdict"] == "model1 preferred"

    def test_counts_total_is_exact_past_int64(self, tmp_path):
        big = 4_000_000_000_000_000_000
        text = f"{big},{big},{big},1\n" + "1,1,1,1\n" * 3
        out = tmp_path / "out"
        assert run(out, "compare", "--counts", str(write_file(tmp_path, text))) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["counts_total"] == 3 * big + 13


class TestPipelineCommand:
    def test_minimal_run_completes(self, tmp_path):
        assert run(tmp_path, "pipeline", "--steps", "2", "--seed", "4") == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "summary.json" in names
        assert "series.csv" in names
        assert "comparison.json" in names
        assert len(names) == 11

    def test_summary_structure(self, tmp_path):
        run(tmp_path, "pipeline", "--steps", "30", "--seed", "4")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["stationary"]) == {"model1", "model2", "empirical"}
        assert set(summary["relative_likelihood"]) == {"model1", "model2"}
        assert summary["verdict"] in {"model1 preferred", "model2 preferred", "tie"}
        model1_pi = summary["stationary"]["model1"]["weights"]
        assert model1_pi[0] == pytest.approx(0.73, abs=0.01)

    def test_simulated_chain_gets_its_closed_class_solution(self, tmp_path):
        # counts HM->HM 297, HM->SM 1, SM->HM 1: balance gives pi_SM = pi_HM / 298
        assert run(tmp_path, "pipeline", "--steps", "300", "--seed", "7") == 0
        expected = [float(f"{v:.12g}") for v in (298 / 299, 1 / 299, 0.0, 0.0)]
        stationary = json.loads((tmp_path / "empirical_stationary.json").read_text())
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert stationary["weights"] == summary["stationary"]["empirical"]["weights"] == expected

    def test_summary_stationary_matches_model_command(self, tmp_path):
        run(tmp_path / "pipe", "pipeline", "--steps", "30", "--seed", "4")
        summary = json.loads((tmp_path / "pipe" / "summary.json").read_text())
        for kind, name in (("midpoint", "model1"), ("kernel", "model2")):
            run(tmp_path / kind, "model", "--kind", kind)
            alone = json.loads((tmp_path / kind / f"model_{kind}_stationary.json").read_text())
            assert summary["stationary"][name] == alone

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--partition", '[{"lower": 0, "upper": 1}]'),
            ("--partition", "not json"),
            ("--region-config", "{}"),
        ],
    )
    def test_bad_input_file_writes_nothing(self, tmp_path, capsys, flag, text):
        out = tmp_path / "out"
        assert run(out, "pipeline", "--steps", "3", flag, str(write_file(tmp_path, text))) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_reads_the_partition_file_once(self, tmp_path, monkeypatch):
        partition_file = write_file(tmp_path, json.dumps(default_partition().to_json_obj()), "partition.json")
        calls = []
        parse = StrategyPartition.from_json_obj
        monkeypatch.setattr(StrategyPartition, "from_json_obj", staticmethod(lambda obj: calls.append(obj) or parse(obj)))
        assert run(tmp_path / "out", "pipeline", "--steps", "3", "--partition", str(partition_file)) == 0
        assert len(calls) == 1

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "pipeline", "--steps", "3", "--length-scale", "1e300") == 1
        assert "length_scale 1e+300" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_length_scale_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        calls = []
        simulate = cli.simulate_gamma_series
        monkeypatch.setattr(cli, "simulate_gamma_series", lambda *a, **kw: calls.append(a) or simulate(*a, **kw))
        out = tmp_path / "out"
        assert run(out, "pipeline", "--steps", "2000", "--length-scale", "1e300") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: length_scale 1e+300 gives a row kernel mass of 0.0\n"
        assert captured.out == ""
        assert not out.exists()
        assert calls == []

    def test_failed_run_leaves_earlier_artifacts_as_they_were(self, tmp_path):
        out = tmp_path / "out"
        assert run(out, "pipeline", "--steps", "3", "--seed", "1") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run(out, "pipeline", "--steps", "4", "--seed", "2", "--length-scale", "1e300") == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_rejects_single_step(self, tmp_path, capsys):
        # count_transitions is the one place the two-sample rule lives
        for command in ("pipeline", "analyze"):
            out = tmp_path / command
            assert run(out, command, "--steps", "1") == 1
            assert capsys.readouterr().err == "error: need at least two samples to count transitions\n"
            assert not out.exists()


class TestInputResolution:
    """``main`` resolves the files, then the models, then the series, and prints only after writing."""

    @pytest.mark.parametrize(
        "command",
        ["model", "simulate --steps 3", "analyze --steps 3", "compare", "pipeline --steps 3"],
    )
    def test_failed_run_prints_nothing(self, tmp_path, capsys, command):
        out = write_file(tmp_path, "", "taken")
        assert run(out, *command.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_model_builds_only_the_requested_kind(self, tmp_path):
        assert run(tmp_path, "model", "--kind", "midpoint", "--length-scale", "1e300") == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"model_midpoint_{name}" for name in ("matrix.csv", "matrix.json", "stationary.csv", "stationary.json")
        ]

    def test_series_file_is_not_simulated(self, tmp_path, monkeypatch):
        calls = []
        simulate = cli.simulate_gamma_series
        monkeypatch.setattr(cli, "simulate_gamma_series", lambda *a, **kw: calls.append(a) or simulate(*a, **kw))
        series_file = write_file(tmp_path, FIXTURE_SERIES)
        assert run(tmp_path / "out", "analyze", "--series", str(series_file)) == 0
        assert calls == []

    def test_files_resolve_before_models(self, tmp_path, capsys):
        for command, flag, text in (
            ("compare", "--counts", "1,2\n3,4\n"),
            ("pipeline", "--region-config", LOW_MEAN_REGION),
        ):
            path = write_file(tmp_path, text, f"bad-{command}")
            out = tmp_path / command
            assert run(out, command, flag, str(path), "--length-scale", "1e300") == 1
            assert capsys.readouterr().err.startswith(f"error: malformed input file {path}: ")
            assert not out.exists()


class TestPinnedArtifacts:
    @pytest.mark.parametrize("command", [name for name in CLI_DIGESTS if not name.startswith("analyze ")])
    def test_artifacts_match_pinned_digests(self, tmp_path, capsys, command):
        counts_file = write_file(tmp_path, PINNED_COUNTS, "counts.csv")
        out = tmp_path / "out"
        assert run(out, *command.format(counts=counts_file).split()) == 0
        assert_pinned(command, out, capsys.readouterr().out)


class TestArgumentHandling:
    def test_zero_length_scale_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--length-scale", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["model", "compare", "pipeline"])
    def test_infinite_length_scale_exits_two(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--length-scale", "inf", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "--length-scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, type_name",
        [
            ("simulate", "--nodes", "int"),
            ("simulate", "--steps", "int"),
            ("simulate", "--dropout", "float"),
            ("simulate", "--activation", "float"),
            ("compare", "--length-scale", "float"),
            # options the command does not take
            ("model", "--label", None),
            ("analyze", "--label", None),
            ("compare", "--label", None),
            ("simulate", "--partition", None),
        ],
    )
    def test_malformed_value_names_the_type(self, tmp_path, capsys, command, flag, type_name):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, flag, "x", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        if type_name is None:
            assert f"unrecognized arguments: {flag} x" in err
        else:
            assert f"argument {flag}: invalid {type_name} value: 'x'" in err
        assert re.search(r"\b_\w", err) is None

    def test_overflowing_length_scale_exits_one(self, tmp_path, capsys):
        assert run(tmp_path, "compare", "--length-scale", "1e300") == 1
        err = capsys.readouterr().err
        assert "length_scale 1e+300" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("command", ["model", "simulate", "analyze", "compare", "pipeline"])
    def test_command_parses_to_its_handler(self, command):
        assert cli.build_parser().parse_args([command]).handler is getattr(cli, f"cmd_{command}")

    def test_kind_choices_are_the_model_table(self, capsys):
        assert {kind: name for kind, (name, _) in cli._MODELS.items()} == {"midpoint": "model1", "kernel": "model2"}
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["model", "--help"])
        assert excinfo.value.code == 0
        assert f"--kind {{{','.join(cli._MODELS)}}}" in capsys.readouterr().out

    def test_closed_stdout_still_exits_zero(self, tmp_path):
        child = subprocess.Popen(
            [sys.executable, "-m", "gammachain.cli", "model", "--out", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
            text=True,
        )
        child.stdout.close()
        with child.stderr:
            err = child.stderr.read()
        assert child.wait(timeout=120) == 0, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert len(list(tmp_path.glob("model_midpoint_*"))) == 4

    @pytest.mark.parametrize("command, steps", [("simulate", 1000), ("analyze", 5000), ("pipeline", 5000)])
    def test_steps_default(self, command, steps):
        assert cli.build_parser().parse_args([command]).steps == steps

    def test_negative_steps_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--steps", "-3", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "analyze", "pipeline"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--dropout", "1"),
            ("--dropout", "-0.1"),
            ("--dropout", "nan"),
            ("--activation", "1.5"),
            ("--activation", "-0.1"),
            ("--activation", "nan"),
            ("--nodes", "1"),
            ("--seed", "-1"),
        ],
    )
    def test_link_probability_out_of_range_exits_two(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--steps", "3", flag, value, "--out", str(out)])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_link_probability_bounds_accepted(self, tmp_path):
        args = ["--steps", "3", "--dropout", "0", "--activation", "1"]
        assert run(tmp_path, "simulate", *args) == 0
        metadata = json.loads((tmp_path / "run_metadata.json").read_text())
        assert (metadata["dropout"], metadata["activation"]) == (0.0, 1.0)

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMACHAIN_OUT_DIR", str(tmp_path / "from_env"))
        assert cli.main(["model", "--kind", "midpoint"]) == 0
        assert (tmp_path / "from_env" / "model_midpoint_matrix.json").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAMMACHAIN_OUT_DIR", str(tmp_path / "from_env"))
        out = tmp_path / "explicit"
        assert run(out, "model", "--kind", "midpoint") == 0
        assert (out / "model_midpoint_matrix.json").exists()
        assert not (tmp_path / "from_env").exists()

    def test_wrote_lines_name_each_artifact(self, tmp_path, capsys):
        run(tmp_path, "model", "--kind", "midpoint")
        out = capsys.readouterr().out
        assert out.count("wrote ") == 4

    def test_partition_off_the_bundled_counts_points_to_counts(self, tmp_path, capsys):
        partition_file = write_file(
            tmp_path, '[{"lower": 0, "upper": 0.5, "label": "L"}, {"lower": 0.5, "upper": 1, "label": "H"}]'
        )
        out = tmp_path / "out"
        assert run(out, "compare", "--partition", str(partition_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the bundled reference counts cover the four default states")
        assert "--counts" in err and err.count("\n") == 1
        assert not out.exists()

    def test_four_quarters_without_counts_points_to_counts(self, tmp_path, capsys):
        quarters = [{"lower": k / 4, "upper": (k + 1) / 4, "label": f"Q{k}"} for k in range(4)]
        partition_file = write_file(tmp_path, json.dumps(quarters))
        out = tmp_path / "out"
        assert run(out, "compare", "--partition", str(partition_file)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the bundled reference counts cover the four default states")
        assert "not at 0, 0.25, 0.5, 0.75, 1" in captured.err
        assert "--counts" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_custom_partition_file(self, tmp_path):
        partition_file = tmp_path / "partition.json"
        partition_file.write_text(json.dumps(default_partition().to_json_obj()) + "\n")
        out = tmp_path / "out"
        assert run(out, "compare", "--partition", str(partition_file)) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["verdict"] == "model1 preferred"

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("compare", "--partition", '{"lower": 0, "upper": 1, "label": "ALL"}'),
            ("compare", "--partition", '[{"lower": 0, "upper": 1}]'),
            ("compare", "--partition", "not json"),
            ("simulate", "--region-config", "{}"),
            ("simulate", "--region-config", "not json"),
            ("compare", "--counts", "0,0,0,0\n" * 3 + "0,0,0,100000000000000000000000\n"),
            ("compare", "--counts", "0,0,0,0\n0,0,0\n" + "0,0,0,0\n" * 2),
            ("compare", "--counts", "1_0,0,0,0\n" + "0,0,0,0\n" * 3),
            (
                "simulate",
                "--region-config",
                '{"region_names": ["a", "b"], "node_counts": [1.9, 2.9], '
                '"mean_latency": [[10, 50], [50, 12]]}',
            ),
            ("compare", "--partition", b'\xff\xfe[{"lower": 0, "upper": 1, "label": "ALL"}]'),
            ("analyze", "--series", b"time,gamma\n0,0.5\n1,0.\xe9\n"),
            (
                "simulate",
                "--region-config",
                '{"region_names": ["a", "b"], "node_counts": [1, 1], "mean_latency": [[10, 50], [50]]}',
            ),
            ("compare", "--partition", '[{"lower": "x", "upper": 1, "label": "ALL"}]'),
            ("simulate", "--region-config", LOW_MEAN_REGION),
            (
                "simulate",
                "--region-config",
                '{"region_names": "ab", "node_counts": [1, 1], "mean_latency": [[10, 50], [50, 12]]}',
            ),
            (
                "simulate",
                "--region-config",
                '{"region_names": ["a", "a"], "node_counts": [1, 1], "mean_latency": [[10, 50], [50, 12]]}',
            ),
            (
                "compare",
                "--partition",
                '[{"lower": 0, "upper": 0.5, "label": "A"}, {"lower": 0.5, "upper": 1, "label": "A"}]',
            ),
            ("compare", "--partition", '[{"lower": false, "upper": true, "label": "ALL"}]'),
            ("compare", "--partition", '[{"lower": "0", "upper": 1, "label": "ALL"}]'),
            ("compare", "--partition", '[{"lower": 0, "upper": 1, "label": 5}]'),
            ("compare", "--partition", '[{"lower": 0, "upper": 1, "label": ["x"]}]'),
            (
                "simulate",
                "--region-config",
                '{"region_names": {"a": 0, "b": 1}, "node_counts": [1, 1], "mean_latency": [[10, 50], [50, 12]]}',
            ),
            (
                "simulate",
                "--region-config",
                '{"region_names": [["x"], 2], "node_counts": [1, 1], "mean_latency": [[10, 50], [50, 12]]}',
            ),
            ("simulate", "--region-config", STRING_MEAN_REGION),
            ("simulate", "--region-config", BOOL_MEAN_REGION),
        ],
    )
    def test_malformed_input_file_exits_one(self, tmp_path, capsys, command, flag, text):
        path = tmp_path / "input"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out = tmp_path / "out"
        assert run(out, command, flag, str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert f"error: malformed input file {path}: " in err
        assert not out.exists()
        if text == "not json":
            assert f"malformed input file {path}: JSONDecodeError" in err
        if isinstance(text, bytes):
            assert f"malformed input file {path}: UnicodeDecodeError" in err
        if text in (STRING_MEAN_REGION, BOOL_MEAN_REGION):
            assert f"malformed input file {path}: ValueError: mean latencies must be numbers" in err
