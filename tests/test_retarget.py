import dataclasses

import numpy as np
import pytest

from headlearn.dataset import CollectionProtocol, HumanFrame, collect, split
from headlearn.errors import (
    CalibrationRequiredError,
    ConfigError,
    InvalidCommandError,
    OpenFaceFormatError,
)
from headlearn.features import AU_IDS, AU_INDEX, MinMaxStats
from headlearn.geometry import Pose, apply_pose
from headlearn.retarget import (
    EMOTIONS,
    calibrate_human,
    command_from_raw,
    evaluate_pipeline,
    express,
    facs_target,
    fit_pipeline,
    load_model,
    retarget_frame,
    save_model,
    stream,
)
from headlearn.simulator import CHANNELS, HeadSimulator, random_command

from conftest import array_sha256, assert_valid_command, frames_from_simulator, random_rigid

FACS_EMOTION_AUS = {
    "anger": {4, 7, 23},
    "disgust": {9, 15},
    "fear": {1, 2, 4, 5, 7, 20, 26},
    "happy": {6, 12},
    "sadness": {1, 4, 15},
    "surprise": {1, 2, 5, 26},
}


@pytest.fixture(scope="module")
def au_stats():
    rng = np.random.default_rng(0)
    mins = rng.uniform(0.0, 0.5, size=17)
    maxs = mins + rng.uniform(0.5, 3.0, size=17)
    return MinMaxStats("au", mins, maxs)


@pytest.fixture(scope="module")
def trained(small_dataset):
    """au / landmarks / distances pipelines on a shared split."""
    train, test = split(small_dataset, 0.25, 11)
    models = {
        kind: fit_pipeline(train, kind, regressor="ols",
                           pca_candidates=(3, 5, 7), seed=11)
        for kind in ("au", "landmarks", "distances")
    }
    return train, test, models


def human_frame(head, command, rng_seed=2):
    row = frames_from_simulator(head, [command], rng_seed=rng_seed)[0]
    return HumanFrame(
        landmarks=np.asarray(row["landmarks"]),
        aus=np.asarray(row["aus"]),
        pose=Pose(rotation=row["rotation"], translation=row["translation"]),
        timestamp=row["timestamp"],
        confidence=row["confidence"],
    )


class TestEmotionSpecs:
    def test_builtin_sets(self):
        assert set(EMOTIONS) == set(FACS_EMOTION_AUS)
        for name, spec in EMOTIONS.items():
            assert set(spec.maximized_aus) == FACS_EMOTION_AUS[name]


class TestFacsTarget:
    def test_happy_maximizes_six_and_twelve(self, au_stats):
        out = facs_target("happy", au_stats)
        for au in AU_IDS:
            idx = AU_INDEX[au]
            if au in (6, 12):
                assert out[idx] == au_stats.maxs[idx]
            else:
                assert out[idx] == au_stats.mins[idx]

    def test_fear_set(self, au_stats):
        out = facs_target("fear", au_stats)
        maximized = {au for au in AU_IDS if out[AU_INDEX[au]] == au_stats.maxs[AU_INDEX[au]]}
        assert maximized >= FACS_EMOTION_AUS["fear"]

    def test_zero_fill_with_zero_mins_matches_min_fill(self):
        stats = MinMaxStats("au", np.zeros(17), np.linspace(1, 4, 17))
        a = facs_target("anger", stats, "min_fill")
        b = facs_target("anger", stats, "zero_fill")
        assert np.array_equal(a, b)

    def test_zero_fill_ignores_train_minima(self, au_stats):
        out = facs_target("disgust", au_stats, "zero_fill")
        inactive = [AU_INDEX[au] for au in AU_IDS if au not in (9, 15)]
        assert np.all(out[inactive] == 0.0)

    def test_min_fill_stays_within_training_range(self, au_stats):
        for name in EMOTIONS:
            out = facs_target(name, au_stats)
            assert np.all(out >= au_stats.mins - 1e-12)
            assert np.all(out <= au_stats.maxs + 1e-12)

    def test_unknown_emotion(self, au_stats):
        with pytest.raises(ValueError, match="unknown emotion"):
            facs_target("bored", au_stats)

    def test_bad_fill_mode(self, au_stats):
        with pytest.raises(ValueError):
            facs_target("happy", au_stats, "max_fill")

    def test_needs_full_au_stats(self):
        with pytest.raises(ValueError):
            facs_target("happy", MinMaxStats("au", np.zeros(5), np.ones(5)))


class TestExpress:
    def test_requires_au_kind(self, trained):
        _, _, models = trained
        target = np.full(17, 1.0)
        with pytest.raises(ConfigError):
            express(models["landmarks"], target)

    def test_output_is_valid_command(self, trained):
        _, _, models = trained
        target = facs_target("surprise", models["au"].au_stats_full)
        assert_valid_command(express(models["au"], target))

    def test_in_sample_consistency(self, trained):
        train, _, models = trained
        model = models["au"]
        residual = evaluate_pipeline(model, train)
        row = 4
        target = train.aus[row]
        cmd = express(model, target)
        true_cmd = train.commands[row]
        diff = np.abs(cmd.as_array() - true_cmd)
        assert np.all(diff <= 3.0 * residual + 1.0)

    def test_happy_raises_mouth_corner_channel(self, quiet_head):
        # noiseless head: the AU map is clean, so a happy target must push
        # the mouth-corner-up channel above the neutral-target prediction
        d = collect(quiet_head, CollectionProtocol(n_target_frames=80, rng_seed=3))
        train, _ = split(d, 0.2, 3)
        model = fit_pipeline(train, "au", regressor="ols", seed=3)
        happy = express(model, facs_target("happy", model.au_stats_full))
        neutralish = express(model, model.au_stats_full.mins.copy())
        assert happy.values[7] > neutralish.values[7]


class TestRetargetFrame:
    def test_requires_calibration(self, trained, default_head):
        _, _, models = trained
        frame = human_frame(default_head, random_command(default_head, np.random.default_rng(4)))
        with pytest.raises(CalibrationRequiredError):
            retarget_frame(models["distances"], frame)

    def test_rigid_invariance_distance_kind(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(5)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=i)
            for i in range(12)
        ]
        model = calibrate_human(models["distances"], frames)
        base_frame = frames[0]
        base_cmd = retarget_frame(model, base_frame)
        for trial in range(5):
            q, t = random_rigid(rng)
            moved = dataclasses.replace(
                base_frame, landmarks=base_frame.landmarks @ q.T + t
            )
            assert retarget_frame(model, moved) == base_cmd

    def test_outputs_valid_commands_for_all_kinds(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(6)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=20 + i)
            for i in range(10)
        ]
        for kind, model in models.items():
            calibrated = calibrate_human(model, frames)
            for frame in frames[:3]:
                assert_valid_command(retarget_frame(calibrated, frame))

    def test_neutral_maps_near_neutral_command(self, quiet_head):
        # identity retarget: with human stats equal to the robot stats the
        # MinMax map is the identity, so a frame showing the robot's own
        # neutral face must land within the model residual of all-zero
        d = collect(quiet_head, CollectionProtocol(n_target_frames=80, rng_seed=8))
        train, _ = split(d, 0.2, 8)
        model = fit_pipeline(train, "distances", regressor="ols",
                             pca_candidates=(9, 13, 17), seed=8)
        model = dataclasses.replace(model, human_stats=model.robot_stats)
        from headlearn.simulator import ActuatorCommand
        neutral_frame = human_frame(quiet_head, ActuatorCommand.neutral(), rng_seed=61)
        cmd = retarget_frame(model, neutral_frame)
        residual = evaluate_pipeline(model, train)
        assert np.all(cmd.as_array() <= 4.0 * residual + 4.0)


class TestStream:
    def test_single_frame_matches_retarget_frame(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(10)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=70 + i)
            for i in range(8)
        ]
        model = calibrate_human(models["distances"], frames)
        out = list(stream(model, frames[:1], smoothing_window=1))
        assert out == [retarget_frame(model, frames[0])]

    def test_constant_input_constant_output(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(11)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=80 + i)
            for i in range(8)
        ]
        model = calibrate_human(models["distances"], frames)
        constant = [frames[0]] * 6
        out = list(stream(model, constant, smoothing_window=3))
        assert all(c == out[0] for c in out)

    def test_alternating_frames_converge_to_midpoint(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(12)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=90 + i)
            for i in range(10)
        ]
        model = calibrate_human(models["distances"], frames)
        a, b = frames[0], frames[1]
        raw_a = model.predict_raw(
            np.asarray([np.asarray(model.frame_features(a))])
        )[0]
        # raw predictions after minmax mapping
        from headlearn.features import minmax_map

        def raw(frame):
            feats = minmax_map(model.frame_features(frame), model.human_stats, model.robot_stats)
            return model.predict_raw(feats[None, :])[0]

        expected = command_from_raw((raw(a) + raw(b)) / 2.0)
        out = list(stream(model, [a, b] * 4, smoothing_window=2))
        assert all(c == expected for c in out[2:])

    def test_hold_last_on_low_confidence(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(13)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=100 + i)
            for i in range(6)
        ]
        model = calibrate_human(models["distances"], frames)
        dropped = dataclasses.replace(frames[1], confidence=0.1)
        seq = [frames[0], dropped, dropped, frames[2]]
        out = list(stream(model, seq, confidence_threshold=0.8))
        assert len(out) == len(seq)
        assert out[1] == out[0] and out[2] == out[0]

    def test_leading_dropped_frames_emit_neutral(self, trained, default_head):
        from headlearn.simulator import ActuatorCommand

        _, _, models = trained
        rng = np.random.default_rng(14)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=110 + i)
            for i in range(4)
        ]
        model = calibrate_human(models["distances"], frames)
        dropped = dataclasses.replace(frames[0], confidence=0.0)
        out = list(stream(model, [dropped, frames[1]]))
        assert out[0] == ActuatorCommand.neutral()

    def test_nan_au_cell_is_held(self, trained, default_head, monkeypatch):
        import headlearn.retarget as retarget_mod

        _, _, models = trained
        rng = np.random.default_rng(15)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=120 + i)
            for i in range(6)
        ]
        model = calibrate_human(models["au"], frames)
        aus = frames[1].aus.copy()
        aus[AU_INDEX[model.au_ids_used[0]]] = np.nan
        seq = [frames[0], dataclasses.replace(frames[1], aus=aus), frames[2]]

        def no_geometry(*args, **kwargs):
            raise AssertionError("the au stream made a geometry call")

        for name in ("derotate", "procrustes_align", "pairwise_distances"):
            monkeypatch.setattr(retarget_mod, name, no_geometry)
        out = list(stream(model, seq))
        assert len(out) == len(seq)
        for cmd in out:
            assert_valid_command(cmd)
        assert out[1] == out[0]
        assert out[2] == retarget_frame(model, frames[2])

    def test_nan_landmark_cell_is_held(self, trained, default_head):
        _, _, models = trained
        rng = np.random.default_rng(16)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=130 + i)
            for i in range(6)
        ]
        model = calibrate_human(models["distances"], frames)
        landmarks = frames[1].landmarks.copy()
        landmarks[30, 1] = np.nan
        seq = [frames[0], dataclasses.replace(frames[1], landmarks=landmarks), frames[2]]
        out = list(stream(model, seq))
        assert len(out) == len(seq)
        for cmd in out:
            assert_valid_command(cmd)
        assert out[1] == out[0]
        assert out[2] == retarget_frame(model, frames[2])

    def test_empty_stream(self, trained):
        _, _, models = trained
        assert list(stream(models["distances"], [])) == []

    def test_bad_window(self, trained):
        _, _, models = trained
        with pytest.raises(ValueError):
            list(stream(models["distances"], [], smoothing_window=0))


class TestNonFiniteInputs:
    """A NaN the model reads is a data error naming the frame, never a
    NaN statistic or a garbage command."""

    def frames(self, head, seed):
        rng = np.random.default_rng(seed)
        return [
            human_frame(head, random_command(head, rng), rng_seed=seed * 10 + i)
            for i in range(6)
        ]

    def test_calibrate_human_names_the_frame(self, trained, default_head):
        _, _, models = trained
        frames = self.frames(default_head, 17)
        aus = frames[2].aus.copy()
        aus[AU_INDEX[models["au"].au_ids_used[0]]] = np.nan
        landmarks = frames[2].landmarks.copy()
        landmarks[8, 0] = np.nan
        cases = {
            "au": dataclasses.replace(frames[2], aus=aus),
            "distances": dataclasses.replace(frames[2], landmarks=landmarks),
        }
        for kind, bad in cases.items():
            with pytest.raises(OpenFaceFormatError, match=rf"frame 2 \(timestamp {bad.timestamp}\)"):
                calibrate_human(models[kind], frames[:2] + [bad] + frames[3:])

    def test_calibrate_human_ignores_unread_nan(self, trained, default_head):
        # a NaN landmark does not reach an au model
        _, _, models = trained
        frames = self.frames(default_head, 18)
        landmarks = frames[1].landmarks.copy()
        landmarks[8, 0] = np.nan
        frames[1] = dataclasses.replace(frames[1], landmarks=landmarks)
        stats = calibrate_human(models["au"], frames).human_stats
        assert np.all(np.isfinite(stats.mins)) and np.all(np.isfinite(stats.maxs))

    def test_retarget_frame_names_the_timestamp(self, trained, default_head):
        _, _, models = trained
        frames = self.frames(default_head, 19)
        model = calibrate_human(models["au"], frames)
        aus = frames[3].aus.copy()
        aus[AU_INDEX[model.au_ids_used[-1]]] = np.nan
        bad = dataclasses.replace(frames[3], aus=aus, timestamp=4.25)
        with pytest.raises(OpenFaceFormatError, match="timestamp 4.25"):
            retarget_frame(model, bad)

    def test_command_from_raw_nan_names_channel(self):
        raw = np.full(len(CHANNELS), 100.0)
        raw[1] = np.nan
        with pytest.raises(InvalidCommandError, match=f"channel {CHANNELS[1]} prediction is NaN"):
            command_from_raw(raw)

    def test_command_from_raw_clips_infinities(self):
        raw = np.full(len(CHANNELS), 100.4)
        raw[0], raw[-1] = np.inf, -np.inf
        cmd = command_from_raw(raw)
        assert_valid_command(cmd)
        assert cmd.values[CHANNELS[0]] == 255 and cmd.values[CHANNELS[-1]] == 0
        assert cmd.values[CHANNELS[1]] == 100


class TestModelPersistence:
    def test_round_trip_bit_identical_predictions(self, trained, tmp_path):
        train, test, models = trained
        for kind, model in models.items():
            path = tmp_path / f"{kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            pred_a = model.predict_raw(model.dataset_features(test))
            pred_b = loaded.predict_raw(loaded.dataset_features(test))
            assert np.array_equal(pred_a, pred_b)

    def test_calibration_survives_round_trip(self, trained, default_head, tmp_path):
        _, _, models = trained
        rng = np.random.default_rng(15)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=120 + i)
            for i in range(6)
        ]
        model = calibrate_human(models["au"], frames)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.human_stats is not None
        assert retarget_frame(loaded, frames[0]) == retarget_frame(model, frames[0])

    def test_older_file_with_clip_range_loads(self, trained, tmp_path):
        import json

        _, test, models = trained
        doc = models["au"].to_dict()
        assert "clip_range" not in doc
        doc["clip_range"] = [10, 200]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert np.array_equal(
            loaded.predict_raw(loaded.dataset_features(test)),
            models["au"].predict_raw(models["au"].dataset_features(test)),
        )

    def test_older_file_with_pruned_aus_loads(self, trained, tmp_path):
        import json

        _, _, models = trained
        model = models["au"]
        doc = model.to_dict()
        assert "pruned_aus" not in doc
        doc["pruned_aus"] = list(model.pruned_aus)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).pruned_aus == model.pruned_aus

    def test_unsupported_version(self, trained, tmp_path):
        import json

        _, _, models = trained
        path = tmp_path / "m.json"
        save_model(models["au"], path)
        doc = json.loads(path.read_text())
        doc["schema"] = "pipeline-model/v9"
        path.write_text(json.dumps(doc))
        from headlearn.errors import UnsupportedVersionError

        with pytest.raises(UnsupportedVersionError):
            load_model(path)


class TestFitPipeline:
    def test_mlp_regressor_path(self, small_dataset):
        from headlearn.learn import HyperGrid, MlpModel

        train, test = split(small_dataset, 0.25, 21)
        model = fit_pipeline(
            train, "au", regressor="mlp",
            grid=HyperGrid([1], [8], ["tanh"], [1e-2], [0.0]),
            epochs=40, seed=21,
        )
        assert isinstance(model.regressor, MlpModel)
        assert np.all(np.isfinite(evaluate_pipeline(model, test)))

    def test_ridge_regressor_path(self, small_dataset):
        train, test = split(small_dataset, 0.25, 22)
        model = fit_pipeline(train, "landmarks", regressor="ridge",
                             ridge_lambda=5.0, pca_k=12, seed=22)
        assert model.regressor.ridge_lambda == 5.0
        assert np.all(np.isfinite(evaluate_pipeline(model, test)))

    def test_au_kind_records_pruning(self, default_split):
        # needs the full protocol size so chance correlations stay under
        # the pruning threshold
        train, _ = default_split
        model = fit_pipeline(train, "au", seed=23)
        assert model.pruned_aus == (10,)
        assert 10 not in model.au_ids_used
        assert model.au_stats_full.dim == 17

    def test_outputs_pinned(self, trained):
        # the seeded splits inside fit_pipeline (distance PCA scan, MLP grid)
        # and every fit they feed must reproduce these test RMSEs bit for bit
        from headlearn.learn import HyperGrid

        train, test, models = trained
        models = dict(models, au_mlp=fit_pipeline(
            train, "au", regressor="mlp",
            grid=HyperGrid([1], [8], ["tanh"], [1e-2], [0.0]), epochs=40, seed=11,
        ))
        digests = {kind: array_sha256(evaluate_pipeline(m, test)) for kind, m in models.items()}
        assert digests == {
            "au": "222bb01a7d97bdc7102b0cc0bff12902ac7ceea535358fd44389c40460a57126",
            "landmarks": "9ba96210dd302defc7d8d6cd62df85ce51d1eee974d60f8118a93424e6f1802c",
            "distances": "fe5345e5cddf4a0484d9ebdd2da7f2136aa9485eb625aeda93c44a81095d1aeb",
            "au_mlp": "e3e90bd7e84f2e505bdf785acea22660f883ae7290687d832a21e96057aaf076",
        }

    def test_unknown_kind_and_regressor(self, small_dataset):
        train, _ = split(small_dataset, 0.25, 24)
        with pytest.raises(ConfigError):
            fit_pipeline(train, "pixels")
        with pytest.raises(ConfigError):
            fit_pipeline(train, "au", regressor="forest")
