"""End-to-end checks of the command line entry point, run in-process."""

import json

import numpy as np
import pytest

from gammachain import cli
from gammachain.inference import TransitionCounts
from gammachain.markov import TransitionMatrix, model1_transition_matrix
from gammachain.network import GammaSeries
from gammachain.partition import default_partition

FIXTURE_SERIES = "time,gamma\n0.0,0.1\n1.0,0.2\n2.0,0.7\n3.0,0.9\n"


def run(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


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
        again = TransitionMatrix.from_json_obj(json.loads(text))
        exact = model1_transition_matrix(default_partition())
        assert np.abs(again.entries - exact.entries).max() < 1e-11
        assert again.to_json() == TransitionMatrix.from_json_obj(
            json.loads(again.to_json())
        ).to_json()

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

    def test_series_round_trips_exactly(self, tmp_path):
        run(tmp_path, "simulate", "--steps", "5", "--seed", "3")
        series = GammaSeries.from_csv((tmp_path / "series.csv").read_text())
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

    def test_reducible_series_reports_note(self, tmp_path):
        series_file = tmp_path / "input.csv"
        series_file.write_text("time,gamma\n0.0,0.5\n1.0,0.5\n2.0,0.5\n")
        out = tmp_path / "out"
        assert run(out, "analyze", "--series", str(series_file)) == 0
        stationary = json.loads((out / "empirical_stationary.json").read_text())
        assert stationary["weights"] is None
        assert "irreducible" in stationary["note"]

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
        assert run(tmp_path, "analyze", "--series", str(tmp_path / "nope.csv")) == 1
        assert "error:" in capsys.readouterr().err

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

    def test_length_scale_shifts_model2(self, tmp_path):
        narrow = tmp_path / "narrow"
        wide = tmp_path / "wide"
        run(narrow, "compare", "--length-scale", "0.1")
        run(wide, "compare", "--length-scale", "0.5")
        pick = lambda p: json.loads((p / "comparison.json").read_text())["models"][1]
        assert pick(narrow)["relative_likelihood"] != pick(wide)["relative_likelihood"]


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

    def test_summary_stationary_matches_model_command(self, tmp_path):
        run(tmp_path / "pipe", "pipeline", "--steps", "30", "--seed", "4")
        summary = json.loads((tmp_path / "pipe" / "summary.json").read_text())
        for kind, name in (("midpoint", "model1"), ("kernel", "model2")):
            run(tmp_path / kind, "model", "--kind", kind)
            alone = json.loads((tmp_path / kind / f"model_{kind}_stationary.json").read_text())
            assert summary["stationary"][name] == alone

    def test_rejects_single_step(self, tmp_path, capsys):
        assert run(tmp_path, "pipeline", "--steps", "1") == 1
        assert "two steps" in capsys.readouterr().err


class TestArgumentHandling:
    def test_zero_length_scale_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["compare", "--length-scale", "0", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

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

    def test_custom_partition_file(self, tmp_path):
        partition_file = tmp_path / "partition.json"
        partition_file.write_text(default_partition().to_json() + "\n")
        out = tmp_path / "out"
        assert run(out, "compare", "--partition", str(partition_file)) == 0
        report = json.loads((out / "comparison.json").read_text())
        assert report["verdict"] == "model1 preferred"
