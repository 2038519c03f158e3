import hashlib
import io
import json
import sys

import numpy as np
import pytest

from headlearn.cli import main
from headlearn.dataset import CollectionProtocol, collect, save_dataset
from headlearn.features import AU_INDEX
from headlearn.simulator import CHANNELS, HeadConfig, random_command

from conftest import frames_from_simulator, openface_csv_text


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, default_head):
    out = tmp_path_factory.mktemp("data") / "ds"
    d = collect(default_head, CollectionProtocol(n_target_frames=60, rng_seed=7))
    save_dataset(d, out)
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("fit")
    code = main([
        "fit", "--dataset", str(dataset_dir), "--kind", "au",
        "--regressor", "ols", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    return out / "model.json"


@pytest.fixture(scope="module")
def human_csv(tmp_path_factory, default_head):
    rng = np.random.default_rng(31)
    commands = [random_command(default_head, rng) for _ in range(8)]
    rows = frames_from_simulator(default_head, commands, rng_seed=9)
    rows[3]["confidence"] = 0.2  # one dropped frame
    path = tmp_path_factory.mktemp("of") / "human.csv"
    path.write_text(openface_csv_text(rows))
    return path


class TestGenHead:
    def test_writes_loadable_config(self, tmp_path, default_head):
        out = tmp_path / "head.json"
        assert main(["gen-head", "--out", str(out)]) == 0
        assert HeadConfig.load(out).sha256() == default_head.sha256()


class TestCollect:
    def test_creates_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "ds"
        code = main([
            "collect", "--frames", "12", "--neutral", "0.5", "--interp", "2",
            "--window", "3", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert (out / "frames.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved"]["frames"] == 12
        assert manifest["resolved"]["seed"] == 5
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_rows"] == 12

    def test_head_flag_loads_the_given_config(self, tmp_path, quiet_head, default_head):
        head_path = tmp_path / "head.json"
        quiet_head.save(head_path)
        out = tmp_path / "ds"
        assert main([
            "collect", "--head", str(head_path), "--frames", "4", "--seed", "1",
            "--out", str(out),
        ]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert quiet_head.sha256() != default_head.sha256()
        assert meta["head_config_sha256"] == manifest["head_config_sha256"] == quiet_head.sha256()


class TestFitEvaluate:
    def test_fit_writes_model_metrics_manifest(self, model_path):
        out = model_path.parent
        assert model_path.exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["test_rmse_per_channel"]) == {str(ch) for ch in CHANNELS}
        assert (out / "manifest.json").exists()

    def test_evaluate_prints_per_channel(self, dataset_dir, model_path, capsys):
        code = main([
            "evaluate", "--model", str(model_path), "--dataset", str(dataset_dir),
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "actuator 11" in out and "mean:" in out


class TestCompare:
    def test_reports_are_deterministic(self, dataset_dir, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main([
                "compare", "--dataset", str(dataset_dir), "--seed", "2",
                "--epochs", "5", "--out", str(out),
            ])
            assert code == 0
            outs.append((out / "comparison.csv").read_text())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "actuator,au_lr,au_mlp,landmarks_lr,distances_lr"


class TestCorrelate:
    def test_writes_matrix_and_pruned_list(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "corr"
        code = main(["correlate", "--dataset", str(dataset_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "correlations.csv").read_text().splitlines()
        assert lines[0].startswith("actuator,AU01")
        assert len(lines) == 1 + 9
        assert (out / "pruned_aus.json").exists()


class TestFacs:
    def test_prints_one_command_line(self, model_path, capsys):
        code = main(["facs", "happy", "--model", str(model_path), "--fill", "min"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        values = [int(v) for v in lines[0].split(",")]
        assert len(values) == 9
        assert all(0 <= v <= 255 for v in values)

    def test_zero_fill_flag(self, model_path, capsys):
        assert main(["facs", "fear", "--model", str(model_path), "--fill", "zero"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestHumanFlows:
    def test_calibrate_then_retarget_and_stream(self, model_path, human_csv, tmp_path, capsys):
        calibrated = tmp_path / "cal.json"
        assert main([
            "calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
            "--out", str(calibrated),
        ]) == 0
        capsys.readouterr()

        assert main([
            "retarget", "--model", str(calibrated), "--csv", str(human_csv),
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 7  # one dropped by confidence
        assert all(len(line.split(",")) == 10 for line in out)

        assert main([
            "stream", "--model", str(calibrated), "--csv", str(human_csv),
            "--window", "2",
        ]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 8  # hold-last keeps cadence
        assert all(len(line.split(",")) == 10 for line in out)

    def test_stream_reads_stdin_line_by_line(
        self, model_path, human_csv, tmp_path, capsys, monkeypatch
    ):
        calibrated = tmp_path / "cal.json"
        main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
              "--out", str(calibrated)])
        args = ["stream", "--model", str(calibrated), "--window", "2"]
        capsys.readouterr()
        assert main(args + ["--csv", str(human_csv)]) == 0
        from_file = capsys.readouterr().out.splitlines()

        out = io.StringIO()
        written = []  # output lines written before each input line is read

        def stdin():
            for line in human_csv.read_text().splitlines(keepends=True):
                written.append(out.getvalue().count("\n"))
                yield line

        monkeypatch.setattr(sys, "stdin", stdin())
        monkeypatch.setattr(sys, "stdout", out)
        assert main(args) == 0
        from_stdin = out.getvalue().splitlines()
        assert from_stdin == from_file
        assert len(from_stdin) == 8
        assert all(len(line.split(",")) == 10 for line in from_stdin)
        # the header and the first row, then one command out per row in
        assert written == [0] + list(range(8))

    def test_stream_on_uncalibrated_model_writes_nothing(
        self, model_path, default_head, tmp_path, capsys
    ):
        # two leading low-confidence rows would be held as neutral commands
        rng = np.random.default_rng(31)
        rows = frames_from_simulator(
            default_head, [random_command(default_head, rng) for _ in range(3)], rng_seed=9
        )
        for row, confidence in zip(rows, (0.1, 0.2, 0.95)):
            row["confidence"] = confidence
        csv = tmp_path / "lead.csv"
        csv.write_text(openface_csv_text(rows))
        assert main(["stream", "--model", str(model_path), "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run calibrate_human first" in captured.err

    def nan_csv(self, head, path):
        """Four confident rows, one AU12_r cell NaN in the third."""
        rng = np.random.default_rng(31)
        rows = frames_from_simulator(
            head, [random_command(head, rng) for _ in range(4)], rng_seed=9
        )
        rows[2]["aus"] = np.array(rows[2]["aus"])
        rows[2]["aus"][AU_INDEX[12]] = np.nan
        path.write_text(openface_csv_text(rows))
        return path, rows[2]["timestamp"]

    def test_calibrate_on_nan_is_data_error(self, model_path, default_head, tmp_path, capsys):
        csv, stamp = self.nan_csv(default_head, tmp_path / "nan.csv")
        out = tmp_path / "cal.json"
        assert main([
            "calibrate-human", "--model", str(model_path), "--csv", str(csv),
            "--out", str(out),
        ]) == 2
        assert f"frame 2 (timestamp {stamp})" in capsys.readouterr().err
        assert not out.exists()

    def test_retarget_on_nan_is_data_error(
        self, model_path, human_csv, default_head, tmp_path, capsys
    ):
        calibrated = tmp_path / "cal.json"
        main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
              "--out", str(calibrated)])
        capsys.readouterr()
        csv, stamp = self.nan_csv(default_head, tmp_path / "nan.csv")
        assert main(["retarget", "--model", str(calibrated), "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"timestamp {stamp}" in captured.err

    def test_retarget_output_pinned(self, model_path, human_csv, tmp_path, capsys):
        calibrated = tmp_path / "cal.json"
        main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
              "--out", str(calibrated)])
        capsys.readouterr()
        assert main(["retarget", "--model", str(calibrated), "--csv", str(human_csv)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d9c5bdc4c40c081aba6240baa278c4921f5f4273f759066bfb0c6e307067c3ab"
        )

    def test_retarget_to_directory(self, model_path, human_csv, tmp_path, capsys):
        calibrated = tmp_path / "cal.json"
        main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
              "--out", str(calibrated)])
        out = tmp_path / "ret"
        assert main([
            "retarget", "--model", str(calibrated), "--csv", str(human_csv),
            "--out", str(out),
        ]) == 0
        lines = (out / "commands.csv").read_text().strip().splitlines()
        assert lines[0] == "timestamp," + ",".join(f"a{ch}" for ch in CHANNELS)
        assert (out / "manifest.json").exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen-head", "--bogus", "x"]) == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        assert main(["evaluate", "--model", str(tmp_path / "no.json"),
                     "--dataset", str(tmp_path / "no-ds")]) == 2

    def test_bad_dataset_is_data_error(self, capsys, tmp_path):
        (tmp_path / "junk").mkdir()
        assert main(["correlate", "--dataset", str(tmp_path / "junk")]) == 2

    def test_distances_on_too_few_rows_is_data_error(self, capsys, tmp_path):
        # 30 rows leave 18 for the PCA scan, fewer than its largest candidate
        ds = tmp_path / "ds"
        assert main(["collect", "--frames", "30", "--seed", "2", "--out", str(ds)]) == 0
        capsys.readouterr()
        code = main(["fit", "--dataset", str(ds), "--kind", "distances",
                     "--out", str(tmp_path / "fit")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("headlearn: error:")
        assert "Traceback" not in err
        assert "PCA dimension scan" in err and "k=39" in err and "18 fit rows" in err

    def test_unknown_crosstalk_id_is_data_error(self, capsys, tmp_path, default_head):
        doc = default_head.to_dict()
        doc["au_defs"][0]["crosstalk"] = [[3, 0.1]]
        head = tmp_path / "head.json"
        head.write_text(json.dumps(doc))
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert "crosstalk" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "headlearn" in capsys.readouterr().out
