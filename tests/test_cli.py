import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

from headlearn import __version__
from headlearn.cli import build_parser, main
from headlearn.dataset import CollectionProtocol, collect, load_dataset, save_dataset
from headlearn.features import AU_INDEX
from headlearn.records import to_json
from headlearn.retarget import evaluate_pipeline, load_model
from headlearn.simulator import CHANNELS, HeadConfig, random_command

from conftest import frames_from_simulator, openface_csv_text, without_pose_columns


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


def _changed_copy(doc: dict, remove: str | None, add: str | None, path):
    """Write ``doc`` to ``path`` with key ``remove`` deleted and its value
    (or 1) stored under ``add``."""
    value = doc.pop(remove) if remove else 1
    if add:
        doc[add] = value
    path.write_text(json.dumps(doc))
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

    @pytest.mark.parametrize("subcommand", ["stream", "retarget"])
    def test_minus_inf_threshold_is_read_as_a_value(
        self, model_path, human_csv, tmp_path, capsys, subcommand
    ):
        # argparse's own negative-number pattern takes digits only; with it
        # ``--threshold -inf`` fails with "expected one argument"
        calibrated = tmp_path / "cal.json"
        assert main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
                     "--out", str(calibrated)]) == 0
        args = [subcommand, "--model", str(calibrated), "--csv", str(human_csv)]
        capsys.readouterr()
        assert main(args + ["--threshold=-inf"]) == 0
        want = capsys.readouterr().out
        assert len(want.splitlines()) == 8  # the low-confidence row too
        for value in ("-inf", "-INF", "-Infinity"):
            assert main(args + ["--threshold", value]) == 0
            assert capsys.readouterr().out == want

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

    def test_stream_ends_quietly_when_stdout_closes(self, model_path, human_csv, tmp_path):
        calibrated = tmp_path / "cal.json"
        assert main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
                     "--out", str(calibrated)]) == 0
        header, *rows = human_csv.read_text().splitlines(keepends=True)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "headlearn.cli", "stream", "--model", str(calibrated)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            # two rows in, two lines out, then the reader goes away while
            # more rows arrive
            proc.stdin.write("".join([header] + rows[:2]).encode())
            proc.stdin.flush()
            assert len(proc.stdout.readline().split(b",")) == 10
            assert len(proc.stdout.readline().split(b",")) == 10
            proc.stdout.close()
            proc.stdin.write("".join(rows[2:]).encode())
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

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

    def test_stream_names_the_line_of_an_undecodable_byte(
        self, model_path, human_csv, tmp_path, capsys
    ):
        calibrated = tmp_path / "cal.json"
        assert main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
                     "--out", str(calibrated)]) == 0
        lines = human_csv.read_bytes().splitlines(keepends=True)
        lines[5] = lines[5].replace(b".", b"\xff", 1)  # line 6
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["stream", "--model", str(calibrated), "--csv", str(csv)]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) < 5  # at most the rows before it
        assert err == f"headlearn: error: {csv}:6: not UTF-8 text\n"

    def test_nan_and_negative_confidences_are_held(
        self, model_path, default_head, tmp_path, capsys
    ):
        rng = np.random.default_rng(32)
        rows = frames_from_simulator(
            default_head, [random_command(default_head, rng) for _ in range(6)], rng_seed=9
        )
        for row, confidence in zip(rows, (0.95, "nan", 0.9, -1.0, "-inf", 0.97)):
            row["confidence"] = confidence
        csv = tmp_path / "conf.csv"
        csv.write_text(openface_csv_text(rows))
        calibrated = tmp_path / "cal.json"
        assert main(["calibrate-human", "--model", str(model_path), "--csv", str(csv),
                     "--out", str(calibrated)]) == 0
        assert "calibrated on 3 frames" in capsys.readouterr().out
        assert main(["stream", "--model", str(calibrated), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(",", 1)[0] for line in out] == [str(r["timestamp"]) for r in rows]
        commands = [line.split(",", 1)[1] for line in out]
        assert commands[1] == commands[0]
        assert commands[3] == commands[4] == commands[2]

    def nan_csv(self, head, path):
        """Four confident rows, one AU12_r cell NaN in the third (line 4)."""
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
        err = capsys.readouterr().err
        assert f"{csv}:4: calibration frame 2 (timestamp {stamp})" in err
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
        assert f"{csv}:4: frame at timestamp {stamp}" in captured.err

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

    def test_distances_model_outputs_pinned(self, dataset_dir, human_csv, tmp_path, capsys):
        # a distances model's commands, from calibrate-human through
        # retarget and stream, by digest and line
        fit, calibrated, out = tmp_path / "fit", tmp_path / "cal.json", tmp_path / "ret"
        assert main(["fit", "--dataset", str(dataset_dir), "--kind", "distances",
                     "--pca-k", "7", "--seed", "3", "--out", str(fit)]) == 0
        assert main(["calibrate-human", "--model", str(fit / "model.json"),
                     "--csv", str(human_csv), "--out", str(calibrated)]) == 0
        assert main(["retarget", "--model", str(calibrated), "--csv", str(human_csv),
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "commands.csv").read_bytes()).hexdigest() == (
            "20d81299199928428d563e55b039ac494a78c82107749bc5ea1b62c11b7791ae"
        )
        capsys.readouterr()
        assert main(["stream", "--model", str(calibrated), "--csv", str(human_csv),
                     "--window", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0.0,115,102,189,0,114,195,67,0,89",
            "0.03333333333333333,131,134,110,18,45,175,74,90,190",
            "0.06666666666666667,172,152,52,116,86,171,35,154,149",
            "0.1,172,152,52,116,86,171,35,154,149",  # held: confidence 0.2
            "0.13333333333333333,157,128,167,229,230,151,88,74,36",
            "0.16666666666666666,148,112,251,232,216,66,241,40,112",
            "0.2,107,133,255,209,166,78,255,106,166",
            "0.23333333333333334,100,142,241,168,58,89,205,156,165",
        ]

    def test_landmarks_model_outputs_pinned(self, dataset_dir, human_csv, tmp_path, capsys):
        # a landmarks model's commands, from fit through calibrate-human,
        # retarget and stream, by digest and line; no raw prediction of the
        # confident rows lies within 0.015 of a rounding edge
        fit, calibrated, out = tmp_path / "fit", tmp_path / "cal.json", tmp_path / "ret"
        assert main(["fit", "--dataset", str(dataset_dir), "--kind", "landmarks",
                     "--seed", "3", "--out", str(fit)]) == 0
        assert main(["calibrate-human", "--model", str(fit / "model.json"),
                     "--csv", str(human_csv), "--out", str(calibrated)]) == 0
        assert main(["retarget", "--model", str(calibrated), "--csv", str(human_csv),
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "commands.csv").read_bytes()).hexdigest() == (
            "a2df5ecf019b861e91f09013c4e73199e892bed456c1130c835d535fbcdbb1a3"
        )
        capsys.readouterr()
        assert main(["stream", "--model", str(calibrated), "--csv", str(human_csv),
                     "--window", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "0.0,157,255,182,0,152,158,65,0,82",
            "0.03333333333333333,114,255,112,8,108,159,79,103,180",
            "0.06666666666666667,138,162,59,95,141,208,80,163,142",
            "0.1,138,162,59,95,141,208,80,163,142",  # held: confidence 0.2
            "0.13333333333333333,177,61,159,205,248,242,168,71,38",
            "0.16666666666666666,163,0,230,204,237,136,255,50,109",
            "0.2,106,5,255,180,202,102,255,121,165",
            "0.23333333333333334,89,16,221,142,105,130,223,158,170",
        ]

    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_csv_without_pose_columns_gives_the_same_commands(
        self, dataset_dir, human_csv, kind, tmp_path, capsys
    ):
        # no kind reads the tracked head pose: a CSV without the six pose_*
        # columns calibrates, retargets and streams as the full one does
        bare = tmp_path / "bare.csv"
        bare.write_text(without_pose_columns(human_csv.read_text()))
        fit = tmp_path / "fit"
        assert main(["fit", "--dataset", str(dataset_dir), "--kind", kind,
                     "--pca-k", "7", "--seed", "3", "--out", str(fit)]) == 0
        outputs = []
        for csv in (human_csv, bare):
            calibrated = tmp_path / f"{csv.stem}.json"
            assert main(["calibrate-human", "--model", str(fit / "model.json"),
                         "--csv", str(csv), "--out", str(calibrated)]) == 0
            capsys.readouterr()
            assert main(["retarget", "--model", str(calibrated), "--csv", str(csv)]) == 0
            assert main(["stream", "--model", str(calibrated), "--csv", str(csv),
                         "--window", "2"]) == 0
            outputs.append((calibrated.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].splitlines()) == 7 + 8

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


OUT_DIGESTS = {
    "collect": {
        "frames.csv": "87b443c16691760225c55e1acdb947f345c62751e043d1410669d60a2c0fd68c",
        "metadata.json": "475c17ef30500f0e8b89f7b1b517488d802093a14193b0b8b9accb45a69c5380",
    },
    "fit": {
        "model.json": "c7d7531a4d458f2e6f576c63711ee7db75d5581f940a2f8e57a62bfa146d3d31",
        "metrics.json": "b8b8174c4e8e2c074b83e3ab3102fae126f598b0ffb243a6f488abbd2c54fcf0",
    },
    "evaluate": {
        "metrics.json": "d417740fcf463f940930cafc0973f1044248cfadac818e47706f9bc157852522",
    },
    "compare": {
        "comparison.csv": "b54cf4e46608f56f85990ca4720675763114a729804aa463e76068a5862c613d",
        "comparison.txt": "6b1c5541c59b2fd5b9b69073a7ff2cb21f3e734d92fa54ab4c06304e6c255634",
    },
    "correlate": {
        "correlations.csv": "7cb611ea0a051bc1f1663c918b17096d4b388b3028f58c9c9ad4b635d443b42a",
        "pruned_aus.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "retarget": {
        "commands.csv": "f6568766a6dbb813eccc353aa25dfbe555b39ab3d900a8f13dd8caaf60e5aec3",
    },
}
MANIFEST_EXTRA = {"collect": {"head_config_sha256"}, "compare": {"distance_pca_dim"}}


class TestOutputFiles:
    @pytest.mark.parametrize("subcommand", sorted(OUT_DIGESTS))
    def test_files_pinned_and_manifest_keys(
        self, subcommand, dataset_dir, model_path, human_csv, tmp_path, capsys
    ):
        # every file a subcommand writes under --out, by digest; the manifest,
        # which holds the run's argv, by its keys, values and formatting
        calibrated = tmp_path / "cal.json"
        out = tmp_path / "out"
        argv = {
            "collect": ["collect", "--frames", "12", "--seed", "5"],
            "evaluate": ["evaluate", "--model", str(model_path),
                         "--dataset", str(dataset_dir), "--seed", "3"],
            "compare": ["compare", "--dataset", str(dataset_dir), "--seed", "2",
                        "--epochs", "5"],
            "correlate": ["correlate", "--dataset", str(dataset_dir)],
            "retarget": ["retarget", "--model", str(calibrated), "--csv", str(human_csv)],
        }.get(subcommand)
        if argv is None:  # fit: the model_path fixture ran it
            out = model_path.parent
            argv = ["fit", "--dataset", str(dataset_dir), "--kind", "au",
                    "--regressor", "ols", "--seed", "3", "--out", str(out)]
        else:
            argv += ["--out", str(out)]
            if subcommand == "retarget":
                assert main(["calibrate-human", "--model", str(model_path),
                             "--csv", str(human_csv), "--out", str(calibrated)]) == 0
            assert main(argv) == 0
        capsys.readouterr()
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"
        }
        assert digests == OUT_DIGESTS[subcommand]

        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert set(manifest) == {"tool", "version", "argv", "resolved"} | MANIFEST_EXTRA.get(
            subcommand, set()
        )
        assert manifest["tool"] == "headlearn"
        assert manifest["version"] == __version__
        assert manifest["argv"] == argv
        flags = vars(build_parser().parse_args(argv))
        del flags["func"]
        assert manifest["resolved"] == flags


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen-head", "--bogus", "x"]) == 1

    @pytest.mark.parametrize("argv", [
        ["collect"],
        ["fit", "--dataset", "ds", "--kind", "au"],
        ["evaluate", "--model", "m.json", "--dataset", "ds"],
        ["compare", "--dataset", "ds"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_usage_error_naming_the_option(self, capsys, tmp_path, argv):
        assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"headlearn {argv[0]}: error: argument --seed: must be >= 0, got -1\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, low", [
        ("--frames", "0", 1), ("--window", "0", 1), ("--window", "-3", 1), ("--interp", "-1", 0),
    ])
    def test_collect_count_below_its_floor_is_usage_error_naming_the_option(
        self, capsys, tmp_path, option, value, low
    ):
        out = tmp_path / "out"
        assert main(["collect", option, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"headlearn collect: error: argument {option}: must be >= {low}, got {value}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option", [
        (["fit", "--dataset", "ds", "--kind", "distances"], "--pca-k"),
        (["compare", "--dataset", "ds"], "--epochs"),
    ], ids=["fit", "compare"])
    def test_count_below_one_is_usage_error_naming_the_option(
        self, capsys, tmp_path, argv, option
    ):
        out = tmp_path / "out"
        assert main(argv + [option, "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"headlearn {argv[0]}: error: argument {option}: must be >= 1, got 0\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, option, value", [
        (["collect"], "--neutral", "1.5"),
        (["collect"], "--neutral", "1"),
        (["collect"], "--neutral", "-0.1"),
        (["fit", "--dataset", "ds", "--kind", "au"], "--test-fraction", "1.5"),
        (["fit", "--dataset", "ds", "--kind", "au"], "--test-fraction", "0"),
        (["compare", "--dataset", "ds"], "--test-fraction", "nan"),
        (["compare", "--dataset", "ds"], "--test-fraction", "1"),
        (["evaluate", "--model", "m.json", "--dataset", "ds"], "--test-fraction", "1"),
        (["evaluate", "--model", "m.json", "--dataset", "ds"], "--test-fraction", "-inf"),
        (["evaluate", "--model", "m.json", "--dataset", "ds"], "--test-fraction", "nan"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_fraction_out_of_range_is_usage_error_naming_the_option(
        self, capsys, tmp_path, argv, option, value
    ):
        # a test split needs rows on both sides, except that evaluate reads
        # 0 as all rows; neutral frames cannot be the whole recording
        bounds = "(0, 1)" if option == "--test-fraction" and argv[0] != "evaluate" else "[0, 1)"
        # these were data errors (exit 2) from CollectionProtocol and split
        out = tmp_path / "out"
        assert main(argv + [option, value, "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert (f"headlearn {argv[0]}: error: argument {option}: must be in {bounds}, "
                f"got {float(value)}\n") in err
        assert not out.exists()

    def test_evaluate_test_fraction_zero_evaluates_all_rows(
        self, dataset_dir, model_path, capsys
    ):
        assert main(["evaluate", "--model", str(model_path), "--dataset", str(dataset_dir),
                     "--test-fraction", "0"]) == 0
        per_channel = evaluate_pipeline(load_model(model_path), load_dataset(dataset_dir))
        assert capsys.readouterr().out.endswith(f"mean: {float(np.mean(per_channel)):.3f}\n")

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_stream_window_below_one_is_usage_error(
        self, model_path, human_csv, tmp_path, capsys, window
    ):
        # on a CSV with rows and on a header-only one, before the model loads
        header = tmp_path / "header.csv"
        header.write_text(human_csv.read_text().splitlines(keepends=True)[0])
        for csv in (human_csv, header):
            assert main(["stream", "--model", str(model_path), "--csv", str(csv),
                         "--window", window]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert f"headlearn stream: error: argument --window: must be >= 1, got {window}\n" in err

    @staticmethod
    def threshold_argv(subcommand, model_path, human_csv, dataset_dir, out_dir):
        """Valid arguments of a ``--threshold`` subcommand, writing under ``out_dir``."""
        model, csv = ["--model", str(model_path)], ["--csv", str(human_csv)]
        return [subcommand] + {
            "calibrate-human": model + csv + ["--out", str(out_dir / "cal.json")],
            "retarget": model + csv + ["--out", str(out_dir / "out")],
            "stream": model + csv,
            "correlate": ["--dataset", str(dataset_dir), "--out", str(out_dir / "out")],
        }[subcommand]

    @pytest.mark.parametrize("subcommand", ["calibrate-human", "retarget", "stream", "correlate"])
    def test_nan_threshold_is_usage_error(
        self, model_path, human_csv, dataset_dir, tmp_path, capsys, subcommand
    ):
        # every comparison with NaN is false: ingestion kept every row,
        # stream held every one and correlate pruned nothing
        argv = self.threshold_argv(subcommand, model_path, human_csv, dataset_dir, tmp_path)
        assert main(argv + ["--threshold", "nan"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"headlearn {subcommand}: error: argument --threshold: must be a number, got nan\n" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-nan", "-NaN"])
    @pytest.mark.parametrize("subcommand", ["calibrate-human", "retarget", "stream", "correlate"])
    def test_minus_nan_threshold_is_usage_error(
        self, model_path, human_csv, dataset_dir, tmp_path, capsys, subcommand, value
    ):
        # read as the option's value, not as a second option
        argv = self.threshold_argv(subcommand, model_path, human_csv, dataset_dir, tmp_path)
        assert main(argv + ["--threshold", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"headlearn {subcommand}: error: argument --threshold: must be a number, got nan\n" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-0.1", "-inf"])
    def test_negative_correlate_threshold_is_usage_error(
        self, dataset_dir, tmp_path, capsys, value
    ):
        # it was a data error (exit 2) from low_correlation_features
        out = tmp_path / "out"
        assert main(["correlate", "--dataset", str(dataset_dir), "--threshold", value,
                     "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert (f"headlearn correlate: error: argument --threshold: must be >= 0, "
                f"got {float(value)}\n") in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_bad_ridge_lambda_is_usage_error(self, dataset_dir, tmp_path, capsys, value):
        # a NaN or infinite lambda wrote a model of NaN weights that no
        # later step could load; a negative one was a data error
        out = tmp_path / "out"
        assert main(["fit", "--dataset", str(dataset_dir), "--kind", "au", "--regressor", "ridge",
                     f"--ridge-lambda={value}", "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert (f"headlearn fit: error: argument --ridge-lambda: must be finite and >= 0, "
                f"got {float(value)}\n") in err
        assert not out.exists()

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
        doc = to_json(default_head)
        doc["au_defs"][0]["crosstalk"] = [[3, 0.1]]
        head = tmp_path / "head.json"
        head.write_text(json.dumps(doc))
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert "crosstalk" in capsys.readouterr().err

    @pytest.mark.parametrize("remove, add, error", [
        ("pca", None, "pca: required key is missing"),
        (None, "pca_k", "pca_k: unknown key"),
    ])
    def test_malformed_model_names_file_and_key(
        self, model_path, tmp_path, capsys, remove, add, error
    ):
        path = _changed_copy(json.loads(model_path.read_text()), remove, add, tmp_path / "m.json")
        assert main(["facs", "happy", "--model", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"headlearn: error: {path}.{error}")

    @pytest.mark.parametrize("remove, add, error", [
        ("actuators", None, "actuators: required key is missing"),
        ("landmark_noise_sigma", "landmark_noise_sigmaa", "landmark_noise_sigmaa: unknown key"),
        ("schema", None, "schema: got None, this build reads 'head-config/v1'"),
    ])
    def test_malformed_head_names_file_and_key(
        self, default_head, tmp_path, capsys, remove, add, error
    ):
        head = _changed_copy(to_json(default_head), remove, add, tmp_path / "head.json")
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"headlearn: error: {head}.{error}")

    @pytest.mark.parametrize("path, value, error", [
        (("actuators", 0, "basis", 0, 0), 70,
         "actuators[0]: actuator 1 (upper eyelid down): basis[0] landmark index 70 outside"),
        (("actuators", 0, "basis", 0, 0), -1,
         "actuators[0]: actuator 1 (upper eyelid down): basis[0] landmark index -1 outside"),
        (("quadratic_terms",), [{"channel_a": 99, "channel_b": 7, "basis": []}],
         "quadratic_terms[0]: quadratic term (99, 7): channel_a 99 is not one of"),
        (("actuators", 0, "symmetric"), "false",
         "actuators[0].symmetric: expected bool, got str"),
        (("sensor_lag_frames",), 1.9, "sensor_lag_frames: expected int, got float"),
        (("rng_seed",), "12", "rng_seed: expected int, got str"),
    ], ids=["index-70", "index-minus-1", "channel-99", "symmetric-str", "lag-float", "seed-str"])
    def test_bad_head_value_names_file_and_key(
        self, default_head, tmp_path, capsys, path, value, error
    ):
        doc = to_json(default_head)
        doc["actuators"][0]["symmetric"] = False  # so index -1 breaks no symmetry
        *parents, last = path
        functools.reduce(operator.getitem, parents, doc)[last] = value
        head = tmp_path / "head.json"
        head.write_text(json.dumps(doc))
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"headlearn: error: {head}.{error}")

    def test_negative_head_seed_names_file(self, default_head, tmp_path, capsys):
        doc = to_json(default_head)
        doc["rng_seed"] = -3
        head = tmp_path / "head.json"
        head.write_text(json.dumps(doc))
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert capsys.readouterr().err == f"headlearn: error: {head}: rng_seed must be >= 0\n"

    @pytest.mark.parametrize("path, value, error", [
        (("human_stats", "mins", 0), float("nan"), "human_stats.mins: expected finite "
         "numbers, got nan at [0]"),
        (("pca", "components", 0, 0), float("inf"), "pca.components: expected finite "
         "numbers, got inf at [0][0]"),
        (("regressor", "intercept", 2), float("-inf"), "regressor.intercept: expected finite "
         "numbers, got -inf at [2]"),
    ], ids=["human-mins-nan", "components-inf", "intercept-minus-inf"])
    def test_non_finite_model_array_names_file_and_key(
        self, model_path, human_csv, tmp_path, capsys, path, value, error
    ):
        # a calibrated model file with a NaN or an infinity in an array
        # fails when it loads, not on the first streamed frame
        calibrated = tmp_path / "cal.json"
        assert main(["calibrate-human", "--model", str(model_path), "--csv", str(human_csv),
                     "--out", str(calibrated)]) == 0
        doc = json.loads(calibrated.read_text())
        *parents, last = path
        functools.reduce(operator.getitem, parents, doc)[last] = value
        calibrated.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["stream", "--model", str(calibrated), "--csv", str(human_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"headlearn: error: {calibrated}.{error}\n"

    def test_non_finite_head_array_names_file_and_key(self, default_head, tmp_path, capsys):
        doc = to_json(default_head)
        doc["neutral_landmarks"][3][1] = float("nan")
        head = tmp_path / "head.json"
        head.write_text(json.dumps(doc))
        code = main(["collect", "--head", str(head), "--frames", "4",
                     "--out", str(tmp_path / "ds")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"headlearn: error: {head}.neutral_landmarks: expected finite numbers, "
            "got nan at [3][1]\n"
        )

    @pytest.mark.parametrize("subcommand", ["facs", "collect", "correlate"])
    def test_invalid_json_names_the_file(self, subcommand, tmp_path, capsys):
        bad = tmp_path / ("metadata.json" if subcommand == "correlate" else "bad.json")
        (tmp_path / "frames.csv").touch()  # with metadata.json, a dataset directory
        argv = {
            "facs": ["facs", "happy", "--model", str(bad)],
            "collect": ["collect", "--head", str(bad), "--frames", "4",
                        "--out", str(tmp_path / "out")],
            "correlate": ["correlate", "--dataset", str(tmp_path)],
        }[subcommand]
        bad.write_text("{bad")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"headlearn: error: {bad}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"
        )

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "headlearn" in capsys.readouterr().out
