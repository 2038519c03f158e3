import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return MinMaxStats(mins, maxs)


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
        for name, aus in EMOTIONS.items():
            assert set(aus) == FACS_EMOTION_AUS[name]


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
        stats = MinMaxStats(np.zeros(17), np.linspace(1, 4, 17))
        a = facs_target("anger", stats, "min")
        b = facs_target("anger", stats, "zero")
        assert np.array_equal(a, b)

    def test_zero_fill_ignores_train_minima(self, au_stats):
        out = facs_target("disgust", au_stats, "zero")
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
            facs_target("happy", MinMaxStats(np.zeros(5), np.ones(5)))


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


class TestCalibrateHuman:
    def test_stats_pinned(self, trained, default_head):
        # the human-side MinMax stats feed every retargeted command; they
        # must reproduce bit for bit for each feature kind
        _, _, models = trained
        rng = np.random.default_rng(25)
        frames = [
            human_frame(default_head, random_command(default_head, rng), rng_seed=250 + i)
            for i in range(12)
        ]
        digests = {}
        for kind, model in models.items():
            stats = calibrate_human(model, frames).human_stats
            digests[kind] = (array_sha256(stats.mins), array_sha256(stats.maxs))
        assert digests == {
            "au": (
                "de4ed973c139b78397bd203ab45e167da925eab566f7f5cdd5ef190da1361b66",
                "cc43a1d7182a3fade077fb9a6f9a89243d796848810f69ab4ae6e93e8a97b8f9",
            ),
            "landmarks": (
                "f61f92f1e2cd6f248667ed802427d0c37a910dff258f67c7e049d0cb847fb615",
                "9dc98843ff23646e454694dbfacdf6bb8c0d99d1204fa28fc6977fd5af0d8f89",
            ),
            "distances": (
                "e8c86e7a6b359c2ceab20b87bfd3ad788c16ae96093d4b76420c524f2b1ad0b9",
                "c5110ef3828774ccd2bed3c35cfb41bea4a745ecb7f49651aa9d28aaebc8cbf8",
            ),
        }


class TestStackedFrames:
    """A stack of frames gives, per frame, what the single frame gives."""

    @pytest.fixture(scope="class")
    def frames(self, default_head):
        rng = np.random.default_rng(26)
        return [
            human_frame(default_head, random_command(default_head, rng), rng_seed=260 + i)
            for i in range(10)
        ]

    def test_stack_equals_frames(self, frames):
        stack = HumanFrame.stack(frames)
        for name in ("landmarks", "aus", "timestamp", "confidence"):
            assert np.array_equal(
                getattr(stack, name), np.array([getattr(f, name) for f in frames])
            )
        for name in ("rotation", "translation"):
            assert np.array_equal(
                getattr(stack.pose, name), np.array([getattr(f.pose, name) for f in frames])
            )
        with pytest.raises(ValueError):
            HumanFrame.stack([])

    def test_features_and_finite_reads_equal_loop(self, trained, frames):
        _, _, models = trained
        aus = frames[2].aus.copy()
        aus[AU_INDEX[models["au"].au_ids_used[0]]] = np.nan
        landmarks = frames[5].landmarks.copy()
        landmarks[30, 2] = np.nan
        mixed = list(frames)
        mixed[2] = dataclasses.replace(frames[2], aus=aus)
        mixed[5] = dataclasses.replace(frames[5], landmarks=landmarks)
        for kind, model in models.items():
            assert np.array_equal(
                model.frame_features(HumanFrame.stack(frames)),
                np.array([model.frame_features(f) for f in frames]),
            )
            finite = model.reads_finite(HumanFrame.stack(mixed))
            assert np.array_equal(finite, [model.reads_finite(f) for f in mixed])
            assert not finite.all()

    def test_calibrate_human_equals_loop(self, trained, frames):
        _, _, models = trained
        for kind, model in models.items():
            stats = calibrate_human(model, frames).human_stats
            looped = np.array([model.frame_features(f) for f in frames])
            assert np.array_equal(stats.mins, looped.min(axis=0))
            assert np.array_equal(stats.maxs, looped.max(axis=0))

    def test_retarget_frame_equals_loop(self, trained, frames):
        # commands equal; raw predictions differ only by BLAS summation
        # order between the (n, d) and (1, d) products
        _, _, models = trained
        stack = HumanFrame.stack(frames)
        for kind, model in models.items():
            model = calibrate_human(model, frames)
            rows = retarget_frame(model, stack)
            assert rows.shape == (len(frames), len(CHANNELS))
            assert np.array_equal(rows, [retarget_frame(model, f).as_array() for f in frames])
            np.testing.assert_allclose(
                model.human_raw(stack), [model.human_raw(f) for f in frames],
                rtol=1e-9, atol=0.0,
            )

    def test_stacked_retarget_names_the_nan_frame(self, trained, frames):
        _, _, models = trained
        model = calibrate_human(models["distances"], frames)
        landmarks = frames[6].landmarks.copy()
        landmarks[12, 0] = np.nan
        bad = dataclasses.replace(frames[6], landmarks=landmarks, timestamp=7.75)
        stack = HumanFrame.stack(frames[:6] + [bad] + frames[7:])
        with pytest.raises(OpenFaceFormatError, match="frame at timestamp 7.75"):
            retarget_frame(model, stack)

    def test_calibration_needs_two_frames(self, trained, frames):
        _, _, models = trained
        for few in ([], frames[:1]):
            with pytest.raises(ValueError, match="calibration needs at least 2 frames"):
                calibrate_human(models["au"], few)


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

    def test_uncalibrated_model_emits_nothing(self, trained, default_head):
        # leading low-confidence frames would be held as neutral commands;
        # the missing calibration must surface before any of them
        _, _, models = trained
        rng = np.random.default_rng(17)
        frames = [
            dataclasses.replace(
                human_frame(default_head, random_command(default_head, rng), rng_seed=140 + i),
                confidence=c,
            )
            for i, c in enumerate((0.1, 0.2, 0.95))
        ]
        for model in models.values():
            emitted = stream(model, frames)
            with pytest.raises(CalibrationRequiredError):
                next(emitted)

    def test_empty_stream(self, trained):
        _, _, models = trained
        assert list(stream(models["distances"], [])) == []

    def test_bad_window(self, trained):
        _, _, models = trained
        with pytest.raises(ValueError):
            list(stream(models["distances"], [], smoothing_window=0))


class Calibrated:
    """Calibrated models and their calibration frames.  A plain class, so
    Hypothesis reports it by its short repr, not field by field."""

    def __init__(self, models: dict, frames: list):
        self.models = models
        self.frames = frames


@pytest.fixture(scope="module")
def calibrated(trained, default_head):
    """The ``trained`` models calibrated on eight simulated frames, and the frames."""
    _, _, models = trained
    rng = np.random.default_rng(18)
    frames = [
        human_frame(default_head, random_command(default_head, rng), rng_seed=150 + i)
        for i in range(8)
    ]
    return Calibrated({kind: calibrate_human(m, frames) for kind, m in models.items()}, frames)


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# (field, flat cell index) of one HumanFrame input cell
CELLS = st.one_of(
    st.tuples(st.just("aus"), st.integers(0, 16)),
    st.tuples(st.just("landmarks"), st.integers(0, 68 * 3 - 1)),
    st.tuples(st.just("rotation"), st.integers(0, 2)),
    st.tuples(st.just("translation"), st.integers(0, 2)),
)
FRAMES = st.lists(
    st.tuples(
        st.integers(0, 7),                               # which simulated frame
        st.floats(0.0, 1.0),                             # tracker confidence
        st.lists(st.tuples(CELLS, NON_FINITE), max_size=3),
    ),
    max_size=10,
)


def corrupt(frame, cells):
    """A copy of ``frame`` with the given (field, index) cells overwritten."""
    arrays = {
        "aus": frame.aus.copy(),
        "landmarks": frame.landmarks.copy(),
        "rotation": np.array(frame.pose.rotation, dtype=float),
        "translation": np.array(frame.pose.translation, dtype=float),
    }
    for (name, i), value in cells:
        arrays[name].flat[i] = value
    return dataclasses.replace(
        frame,
        aus=arrays["aus"],
        landmarks=arrays["landmarks"],
        pose=Pose(rotation=arrays["rotation"], translation=arrays["translation"]),
    )


class TestStreamContract:
    """Whatever the tracker sends, stream emits one valid command per frame."""

    @given(
        kind=st.sampled_from(["au", "landmarks", "distances"]),
        spec=FRAMES,
        where=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
        window=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_valid_command_per_frame(self, calibrated, kind, spec, where, window):
        model = calibrated.models[kind]
        pool = calibrated.frames
        # degenerate (max == min) calibration spans at the chosen fractions
        # of the feature width
        stats = model.human_stats
        dims = [int(f * stats.dim) for f in where]
        maxs = stats.maxs.copy()
        maxs[dims] = stats.mins[dims]
        model = dataclasses.replace(model, human_stats=MinMaxStats(stats.mins, maxs))
        frames = [
            dataclasses.replace(corrupt(pool[i], cells), confidence=c)
            for i, c, cells in spec
        ]
        out = list(stream(model, frames, smoothing_window=window))
        assert len(out) == len(frames)
        for cmd in out:
            assert_valid_command(cmd)


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

    @pytest.mark.parametrize("mutation, field", [
        ("regressor weights one column short", "regressor input width"),
        ("au_ids_used one id short", "len(au_ids_used)"),
        ("robot_stats one dimension short", "robot_stats.dim"),
    ])
    def test_inconsistent_file_fails_on_load(self, trained, tmp_path, capsys, mutation, field):
        import json

        from headlearn.cli import main

        _, _, models = trained
        doc = models["au"].to_dict()
        if mutation.startswith("regressor"):
            doc["regressor"]["weights"] = [row[:-1] for row in doc["regressor"]["weights"]]
        elif mutation.startswith("au_ids_used"):
            doc["au_ids_used"] = doc["au_ids_used"][:-1]
        else:
            for end in ("mins", "maxs"):
                doc["robot_stats"][end] = doc["robot_stats"][end][:-1]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_model(path)
        assert main(["facs", "happy", "--model", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_older_file_with_kind_and_mlp_keys_loads(self, trained, calibrated, tmp_path):
        # older builds tag each MinMax stats with its feature kind and store
        # the MLP's layer sizes and output scale; such files still load and
        # predict what those builds predicted, and new files omit the keys
        import json

        from headlearn.learn import HyperGrid

        train, test, models = trained
        au_mlp = fit_pipeline(
            train, "au", regressor="mlp",
            grid=HyperGrid([1], [8], ["tanh"], [1e-2], [0.0]), epochs=40, seed=11,
        )
        older = {
            "au_mlp": calibrate_human(au_mlp, calibrated.frames),
            "distances_ols": calibrated.models["distances"],
        }
        stack = HumanFrame.stack(calibrated.frames)
        digests = {}
        for name, model in older.items():
            doc = model.to_dict()
            stats = [doc[k] for k in ("robot_stats", "human_stats", "au_stats_full") if doc[k]]
            assert all("kind" not in s for s in stats)
            for s in stats:
                s["kind"] = model.feature_kind
            reg = doc["regressor"]
            assert "layer_sizes" not in reg and "output_scale" not in reg
            if reg["kind"] == "mlp":
                widths = [w.shape[1] for w in model.regressor.weights]
                reg["layer_sizes"] = widths + [len(CHANNELS)]
                reg["output_scale"] = 255.0
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            loaded = load_model(path)
            pred = loaded.predict_raw(loaded.dataset_features(test))
            assert np.array_equal(pred, model.predict_raw(model.dataset_features(test)))
            assert np.array_equal(loaded.human_raw(stack), model.human_raw(stack))
            digests[name] = array_sha256(pred)
        # the predict_raw digests of the same models under the older build
        assert digests == {
            "au_mlp": "b1d2db8c9d2493193d7cf0a1fcb6646a8dbdb6cea76c3998c424f1893a6b6711",
            "distances_ols": "ad894f20b57072a3f7cafc5f0e008752ad095de6b54112085b740cd297ada4c2",
        }

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

    def test_mlp_on_two_training_rows_names_the_validation_split(self, default_head):
        d = collect(default_head, CollectionProtocol(n_target_frames=6, rng_seed=4))
        train, _ = split(d, 0.66, 4)
        assert len(train) == 2
        with pytest.raises(ConfigError, match="MLP grid search's validation split.* 2 training rows"):
            fit_pipeline(train, "landmarks", regressor="mlp", epochs=5, seed=4)

    def test_unknown_kind_and_regressor(self, small_dataset):
        train, _ = split(small_dataset, 0.25, 24)
        with pytest.raises(ConfigError):
            fit_pipeline(train, "pixels")
        with pytest.raises(ConfigError):
            fit_pipeline(train, "au", regressor="forest")
