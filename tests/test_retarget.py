import dataclasses
import functools
import json
import operator
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlearn.dataset import (
    CONFIDENCE_THRESHOLD,
    CollectionProtocol,
    HumanFrame,
    collect,
    ingest_openface_csv,
    split,
)
from headlearn.errors import (
    AlignmentDegenerateError,
    CalibrationRequiredError,
    ConfigError,
    HeadLearnError,
    InvalidCommandError,
    OpenFaceFormatError,
)
from headlearn.features import AU_IDS, AU_INDEX, MinMaxStats, fit_minmax, minmax_map
from headlearn.geometry import (
    N_LANDMARKS,
    Pose,
    apply_pose,
    derotate,
    pairwise_distances,
    procrustes_align,
)
from headlearn.learn import HyperGrid, mlp_fit, ols_fit, pca_fit, pca_transform
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
from headlearn.records import to_json
from headlearn.simulator import CHANNELS, ActuatorCommand, HeadSimulator, random_command

from conftest import (
    array_sha256,
    assert_valid_command,
    frames_from_simulator,
    openface_csv_text,
    random_rigid,
)

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
    return frame_of(frames_from_simulator(head, [command], rng_seed=rng_seed)[0])


def frame_of(row):
    """The HumanFrame of one simulated OpenFace-style row."""
    return HumanFrame(
        landmarks=np.asarray(row["landmarks"]),
        aus=np.asarray(row["aus"]),
        timestamp=row["timestamp"],
        confidence=row["confidence"],
    )


def simulated_rows(head, seed, n):
    """``n`` simulated rows of random commands, the i-th observed at
    ``seed * 10 + i``."""
    rng = np.random.default_rng(seed)
    return [
        frames_from_simulator(head, [random_command(head, rng)], rng_seed=seed * 10 + i)[0]
        for i in range(n)
    ]


def simulated_frames(head, seed, n):
    """The frames of :func:`simulated_rows`."""
    return [frame_of(row) for row in simulated_rows(head, seed, n)]


def human_raw(model, frame):
    """The unrounded command of a tracked frame, (9,), or of a stack,
    (n, 9), that the model can use."""
    features, i, why = model.usable_features(frame)
    assert why is None, (i, why)
    return model.features_raw(features)


def aligned_distances(model, frame):
    """The distances of the tracked landmarks aligned onto the model's
    reference, as a distances model measured them before it read the
    landmarks as they are."""
    return pairwise_distances(procrustes_align(frame.landmarks, model.neutral_reference)[0])


def derotated_landmarks(model, rows):
    """The landmarks features of simulated rows derotated by their tracked
    pose, then aligned onto the model's reference, as a landmarks model
    computed them before it aligned the landmarks as tracked: (n, 204)."""
    faces = np.stack([
        derotate(row["landmarks"], Pose(rotation=row["rotation"], translation=row["translation"]))
        for row in rows
    ])
    return procrustes_align(faces, model.neutral_reference)[0].reshape(len(rows), -1)


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

    def test_calibration_is_checked_before_the_frame(self, trained, default_head):
        _, _, models = trained
        frame = simulated_frames(default_head, 19, 1)[0]
        kept = AU_INDEX[models["au"].au_ids_used[0]]
        bad = corrupt(frame, [(("aus", kept), np.nan), (("landmarks", 0), np.nan)])
        for model in models.values():
            for batch in (bad, HumanFrame.stack([frame, bad])):
                with pytest.raises(CalibrationRequiredError):
                    retarget_frame(model, batch)

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
        rows = simulated_rows(default_head, 25, 12)
        frames = [frame_of(row) for row in rows]
        digests = {}
        for kind, model in models.items():
            stats = calibrate_human(model, frames).human_stats
            digests[kind] = (array_sha256(stats.mins), array_sha256(stats.maxs))
        assert digests == {
            "au": (
                "de4ed973c139b78397bd203ab45e167da925eab566f7f5cdd5ef190da1361b66",
                "cc43a1d7182a3fade077fb9a6f9a89243d796848810f69ab4ae6e93e8a97b8f9",
            ),
            # aligned as tracked, not derotated first; the stats equal the
            # derotated path's within 1e-12 of scale (below)
            "landmarks": (
                "5736b5261b8658ee21f6d61b0c546e67010845cd99ca0adf055bee700c2b5b4d",
                "dec4a4fc39e0a6b200f8297af78f79cbd41f2043ca66ef3e48519b1e6672503f",
            ),
            # measured on the tracked landmarks, not on aligned ones; the
            # stats equal the aligned path's within 1e-12 relative (below)
            "distances": (
                "5599d136eecdbc621a78aa4edd1a7c2bba3c8574b1115bb4d2052deeb1674180",
                "803fae183621c8c78955fd1866e2be8c7cadb76d3717fd1175cf0b0b29ca8e2d",
            ),
        }
        aligned = fit_minmax(aligned_distances(models["distances"], HumanFrame.stack(frames)))
        stats = calibrate_human(models["distances"], frames).human_stats
        np.testing.assert_allclose(stats.mins, aligned.mins, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(stats.maxs, aligned.maxs, rtol=1e-12, atol=0.0)
        # the features equal those of the landmarks derotated by their
        # tracked pose before alignment within 1e-12 of each frame's largest
        # aligned coordinate, and the stats within the largest such bound
        model = models["landmarks"]
        derotated = derotated_landmarks(model, rows)
        tol = 1e-12 * np.abs(derotated).max(axis=-1, keepdims=True)
        assert np.all(np.abs(model.frame_features(HumanFrame.stack(frames)) - derotated) <= tol)
        older, stats = fit_minmax(derotated), calibrate_human(model, frames).human_stats
        assert np.all(np.abs(stats.mins - older.mins) <= tol.max())
        assert np.all(np.abs(stats.maxs - older.maxs) <= tol.max())


POSES = st.lists(
    st.tuples(
        st.integers(0, 7),                                           # which simulated face
        st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),  # rotation
        st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),  # translation
        st.sampled_from([0.0, 450.0]),                               # camera distance in z
    ),
    min_size=1,
    max_size=5,
)


class TestUnalignedDistances:
    """A distances model measures the tracked landmarks as they are: what
    the derotated and aligned landmarks give, without aligning them."""

    @given(poses=POSES)
    @settings(max_examples=100, deadline=None)
    def test_equal_aligned_distances_under_rigid_poses(self, calibrated, poses):
        model = calibrated.models["distances"]
        frames = []
        for i, rotation, translation, offset in poses:
            source = calibrated.frames[i]
            pose = Pose(rotation=rotation, translation=np.add(translation, [0.0, 0.0, offset]))
            frames.append(dataclasses.replace(source, landmarks=apply_pose(source.landmarks, pose)))
        for frame in frames + [HumanFrame.stack(frames)]:
            np.testing.assert_allclose(
                model.frame_features(frame), aligned_distances(model, frame), rtol=1e-12, atol=0.0
            )

    # the frames of TestCalibrateHuman's pinned stats and of TestStackedFrames
    @pytest.mark.parametrize("seed, n", [(25, 12), (26, 10)])
    def test_commands_equal_the_aligned_path(self, trained, default_head, seed, n, tmp_path):
        _, _, models = trained
        model = models["distances"]
        frames = simulated_frames(default_head, seed, n)
        stack = HumanFrame.stack(frames)
        aligned = aligned_distances(model, stack)
        # calibrated and retargeted on aligned landmarks, as older models were
        older = dataclasses.replace(model, human_stats=fit_minmax(aligned))
        expected = command_from_raw(older.features_raw(aligned))
        new = calibrate_human(model, frames)
        assert np.array_equal(retarget_frame(new, stack), expected)
        assert [retarget_frame(new, f).as_array().tolist() for f in frames] == expected.tolist()
        # a file calibrated on aligned landmarks loads and gives them too
        save_model(older, tmp_path / "older.json")
        assert np.array_equal(retarget_frame(load_model(tmp_path / "older.json"), stack), expected)

    def test_stream_makes_no_alignment(self, calibrated, monkeypatch):
        import headlearn.retarget as retarget_mod

        def no_alignment(*args, **kwargs):
            raise AssertionError("the distances stream aligned a frame")

        expected = [retarget_frame(calibrated.models["distances"], f) for f in calibrated.frames]
        monkeypatch.setattr(retarget_mod, "procrustes_align", no_alignment)
        assert list(stream(calibrated.models["distances"], calibrated.frames)) == expected

    def test_collinear_landmarks(self, calibrated):
        along = np.linspace(-40.0, 40.0, N_LANDMARKS)[:, None] * [0.6, 0.0, 0.8]
        line = dataclasses.replace(calibrated.frames[0], landmarks=along + [0.0, 0.0, 450.0])
        distances = calibrated.models["distances"]
        cmd = retarget_frame(distances, line)
        assert_valid_command(cmd)
        assert list(stream(distances, [line])) == [cmd]
        # a landmarks model names the frame's line, alone and in a stack ...
        landmarks = calibrated.models["landmarks"]
        line = dataclasses.replace(line, source="a.csv", line=7)
        with pytest.raises(AlignmentDegenerateError, match=r"^a\.csv:7: source landmarks"):
            retarget_frame(landmarks, line)
        frames = [
            dataclasses.replace(f, source="a.csv", line=2 + i)
            for i, f in enumerate(calibrated.frames[:5])
        ]
        with pytest.raises(AlignmentDegenerateError, match=r"^a\.csv:7: frame 5: source"):
            calibrate_human(landmarks, frames + [line])
        with pytest.raises(AlignmentDegenerateError, match=r"^a\.csv:7: frame 5: source"):
            retarget_frame(landmarks, HumanFrame.stack(frames + [line]))
        # ... and its stream holds it, as it holds a non-finite frame
        out = list(stream(landmarks, [frames[1], line, frames[1]]))
        assert len(out) == 3
        assert out[1] == out[0]
        assert_valid_command(out[2])


class TestAlignedAsTracked:
    """A landmarks model aligns the tracked landmarks as they are: the
    alignment finds the best rotation itself, so no head pose is read."""

    @given(poses=POSES)
    @settings(max_examples=100, deadline=None)
    def test_landmarks_features_ignore_a_rigid_motion(self, calibrated, poses):
        model = calibrated.models["landmarks"]
        still = [calibrated.frames[i] for i, _, _, _ in poses]
        moved = [
            dataclasses.replace(
                frame,
                landmarks=apply_pose(
                    frame.landmarks,
                    Pose(rotation=rotation, translation=np.add(translation, [0.0, 0.0, offset])),
                ),
            )
            for frame, (_, rotation, translation, offset) in zip(still, poses)
        ]
        want = model.frame_features(HumanFrame.stack(still))
        scale = np.abs(want).max(axis=-1, keepdims=True)  # each face's largest coordinate
        for got in (
            np.array([model.frame_features(f) for f in moved]),
            model.frame_features(HumanFrame.stack(moved)),
        ):
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestStackedFrames:
    """A stack of frames gives, per frame, what the single frame gives."""

    @pytest.fixture(scope="class")
    def frames(self, default_head):
        return simulated_frames(default_head, 26, 10)

    def test_stack_equals_frames(self, frames):
        stack = HumanFrame.stack(frames)
        for name in ("landmarks", "aus", "timestamp", "confidence"):
            assert np.array_equal(
                getattr(stack, name), np.array([getattr(f, name) for f in frames])
            )
        with pytest.raises(ValueError):
            HumanFrame.stack([])

    def test_stack_keeps_the_csv_lines_of_one_source(self, frames):
        located = [
            dataclasses.replace(f, source="a.csv", line=10 + i) for i, f in enumerate(frames)
        ]
        stack = HumanFrame.stack(located)
        assert stack.source == "a.csv"
        assert np.array_equal(stack.line, np.arange(10, 20))
        assert stack.location(3) == "a.csv:13: " and located[3].location() == "a.csv:13: "
        for mixed in (
            located[:5] + [dataclasses.replace(located[5], source="b.csv")] + located[6:],
            located[:5] + frames[5:],
        ):
            stack = HumanFrame.stack(mixed)
            assert stack.source is None and stack.line is None and stack.location(2) == ""
        assert HumanFrame.stack(frames).location(0) == ""

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
                human_raw(model, stack), [human_raw(model, f) for f in frames],
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

    def test_nan_confidence_is_held(self, calibrated):
        frames = calibrated.frames
        for model in calibrated.models.values():
            out = list(stream(model, [frames[0], dataclasses.replace(frames[1], confidence=np.nan)]))
            assert out == [retarget_frame(model, frames[0])] * 2

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

        for name in ("procrustes_align", "pairwise_distances"):
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
# finite cells whose squares overflow, as the distances read them, and
# cells whose sums overflow, as a landmarks model's alignment reads them
HUGE = st.sampled_from([1e155, -1e155, 1e300, -1e300, 1.7e308, -1.7e308])
# (field, flat cell index) of one HumanFrame input cell
CELLS = st.one_of(
    st.tuples(st.just("aus"), st.integers(0, 16)),
    st.tuples(st.just("landmarks"), st.integers(0, 68 * 3 - 1)),
)
FRAMES = st.lists(
    st.tuples(
        st.integers(0, 7),                               # which simulated frame
        st.one_of(st.floats(0.0, 1.0), st.just(np.nan)),  # tracker confidence
        st.lists(st.tuples(CELLS, st.one_of(NON_FINITE, HUGE)), max_size=3),
    ),
    max_size=10,
)


def corrupt(frame, cells):
    """A copy of ``frame`` with the given (field, index) cells overwritten."""
    arrays = {"aus": frame.aus.copy(), "landmarks": frame.landmarks.copy()}
    for (name, i), value in cells:
        arrays[name].flat[i] = value
    return dataclasses.replace(frame, **arrays)


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
        with np.errstate(over="ignore", invalid="ignore"):
            out = list(stream(model, frames, smoothing_window=window))
        assert len(out) == len(frames)
        for cmd in out:
            assert_valid_command(cmd)


# 68 landmarks on one line 450 mm from the camera: no landmarks model can
# align them
COLLINEAR = np.linspace(-40.0, 40.0, N_LANDMARKS)[:, None] * [0.6, 0.0, 0.8] + [0.0, 0.0, 450.0]


class TestUsableFeatures:
    """One method decides whether a model can use a frame, and why not."""

    def test_usable_frames_give_their_features(self, calibrated):
        stack = HumanFrame.stack(calibrated.frames)
        for model in calibrated.models.values():
            for batch in (calibrated.frames[3], stack):
                features, i, why = model.usable_features(batch)
                assert i is None and why is None
                assert np.array_equal(features, model.frame_features(batch))

    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_first_frame_of_the_first_failing_check(self, calibrated, kind):
        model = calibrated.models[kind]
        pool = [
            dataclasses.replace(f, source="a.csv", line=2 + i)
            for i, f in enumerate(calibrated.frames)
        ]
        read = ("aus", AU_INDEX[model.au_ids_used[0]]) if kind == "au" else ("landmarks", 7)
        nan = corrupt(pool[5], [(read, np.nan)])
        huge = corrupt(pool[2], [(("landmarks", 15), 1e200)])
        line = dataclasses.replace(pool[1], landmarks=COLLINEAR)
        inputs = f"non-finite value in an input the {kind} model reads"
        computed = f"non-finite {kind} features computed from its inputs"
        with np.errstate(over="ignore", invalid="ignore"):
            # an input the model reads is not finite: frame 5, before frames
            # 1 and 2, each unusable for another reason
            frames = [pool[0], line, huge, pool[3], pool[4], nan, pool[6]]
            assert model.usable_features(HumanFrame.stack(frames))[1:] == (5, inputs)
            assert model.usable_features(nan) == (None, 0, inputs)
            rest = HumanFrame.stack(frames[:5])
            features, i, why = model.usable_features(rest)
            if kind == "distances":
                # collinear landmarks are measured; the squares of frame 2
                # overflow
                assert (i, why) == (2, computed)
                assert np.array_equal(features, model.frame_features(rest), equal_nan=True)
        if kind == "au":  # reads no landmark
            assert (i, why) == (None, None)
        elif kind == "landmarks":  # collinear landmarks: frame 1, before frame 2
            assert features is None and i == 1
            assert isinstance(why, AlignmentDegenerateError)
            assert str(why) == "a.csv:3: frame 1: source landmarks are rank-deficient; " \
                "rotation is underdetermined"
            assert str(model.usable_features(line)[2]).startswith("a.csv:3: source landmarks")

    def test_au_model_checks_its_gather_once(self, calibrated, monkeypatch):
        # the kept AUs are the features: reads_finite is never asked, and
        # each confident frame is gathered once
        from headlearn.retarget import PipelineModel

        model = calibrated.models["au"]
        pool = calibrated.frames
        nan = corrupt(pool[2], [(("aus", AU_INDEX[model.au_ids_used[-1]]), np.nan)])
        expected = [retarget_frame(model, f) for f in (pool[0], pool[1])]
        gathers = []
        real = PipelineModel.frame_features

        def counted(self, frame):
            gathers.append(frame)
            return real(self, frame)

        def not_asked(self, frame):
            raise AssertionError("the au model checked its inputs apart from its features")

        monkeypatch.setattr(PipelineModel, "frame_features", counted)
        monkeypatch.setattr(PipelineModel, "reads_finite", not_asked)
        out = list(stream(model, [pool[0], nan, pool[1]]))
        assert out == [expected[0], expected[0], expected[1]]
        assert len(gathers) == 3
        assert model.usable_features(HumanFrame.stack([pool[0], nan]))[1:] == (
            1, "non-finite value in an input the au model reads"
        )


# One tracked frame: which simulated frame, its tracker confidence (full
# in a third of the frames), whether its landmarks lie on a line, and up to
# three cells overwritten
AGREEMENT_FRAMES = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.just(np.nan)),
        st.booleans(),
        st.lists(st.tuples(CELLS, st.one_of(NON_FINITE, HUGE)), max_size=3),
    ),
    min_size=1,
    max_size=8,
)


class TestLiveAgreesWithBatch:
    """stream with window 1 emits, for each confident frame, what
    retarget_frame gives that frame; where retarget_frame raises a data
    error, and for a low-confidence frame, it repeats the previous
    command."""

    @given(kind=st.sampled_from(["au", "landmarks", "distances"]), spec=AGREEMENT_FRAMES)
    @settings(max_examples=300, deadline=None)
    def test_stream_emits_what_retarget_frame_gives(self, calibrated, kind, spec):
        model = calibrated.models[kind]
        pool = calibrated.frames
        frames = []
        for i, confidence, collinear, cells in spec:
            frame = dataclasses.replace(pool[i], landmarks=COLLINEAR) if collinear else pool[i]
            frames.append(dataclasses.replace(corrupt(frame, cells), confidence=confidence))
        with np.errstate(over="ignore", invalid="ignore"):
            out = list(stream(model, frames, smoothing_window=1))
            want, last = [], ActuatorCommand.neutral()
            for frame in frames:
                if frame.confidence >= CONFIDENCE_THRESHOLD:
                    try:
                        last = retarget_frame(model, frame)
                    except (OpenFaceFormatError, AlignmentDegenerateError):
                        pass
                want.append(last)
        assert out == want


class TestNonFiniteInputs:
    """A NaN the model reads is a data error naming the frame, never a
    NaN statistic or a garbage command."""

    def frames(self, head, seed):
        return simulated_frames(head, seed, 6)

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

    def nan_csv(self, head, seed, path, kind, model, value=np.nan, landmarks=(8,)):
        """Five confident frames as OpenFace CSV, cells of the fourth (line
        5) NaN, or ``value``, in an input a ``kind`` model reads: a kept AU,
        or the x of each of ``landmarks``."""
        rows = frames_from_simulator(
            head, [random_command(head, np.random.default_rng(seed)) for _ in range(5)],
            rng_seed=seed,
        )
        if kind == "au":
            rows[3]["aus"] = np.array(rows[3]["aus"])
            rows[3]["aus"][AU_INDEX[model.au_ids_used[0]]] = value
        else:
            rows[3]["landmarks"] = np.array(rows[3]["landmarks"])
            rows[3]["landmarks"][list(landmarks), 0] = value
        path.write_text(openface_csv_text(rows))
        return ingest_openface_csv(path)

    def test_calibrate_human_names_the_csv_line(self, trained, default_head, tmp_path):
        _, _, models = trained
        for kind in ("au", "distances"):
            path = tmp_path / f"{kind}.csv"
            frames = self.nan_csv(default_head, 20, path, kind, models[kind])
            message = (
                rf"^{re.escape(str(path))}:5: "
                rf"calibration frame 3 \(timestamp {frames[3].timestamp}\)"
            )
            with pytest.raises(OpenFaceFormatError, match=message):
                calibrate_human(models[kind], frames)

    def test_retarget_frame_names_the_csv_line(self, trained, default_head, tmp_path):
        _, _, models = trained
        for kind in ("au", "distances"):
            model = calibrate_human(models[kind], self.frames(default_head, 21))
            path = tmp_path / f"{kind}.csv"
            frames = self.nan_csv(default_head, 22, path, kind, model)
            message = rf"^{re.escape(str(path))}:5: frame at timestamp {frames[3].timestamp}: "
            for batch in (frames[3], HumanFrame.stack(frames)):
                with pytest.raises(OpenFaceFormatError, match=message):
                    retarget_frame(model, batch)

    def test_calibrate_human_names_non_finite_features(self, trained, default_head, tmp_path):
        # X_5 = 1e200 is finite, but its squared differences overflow
        _, _, models = trained
        path = tmp_path / "huge.csv"
        frames = self.nan_csv(default_head, 20, path, "distances", models["distances"], 1e200, (5,))
        message = (
            rf"^{re.escape(str(path))}:5: calibration frame 3 \(timestamp {frames[3].timestamp}\): "
            "non-finite distances features"
        )
        with np.errstate(over="ignore"), pytest.raises(OpenFaceFormatError, match=message):
            calibrate_human(models["distances"], frames)

    def test_retarget_frame_names_non_finite_features(self, trained, default_head, tmp_path):
        _, _, models = trained
        model = calibrate_human(models["distances"], self.frames(default_head, 21))
        path = tmp_path / "huge.csv"
        frames = self.nan_csv(default_head, 22, path, "distances", model, 1e200, (5,))
        message = (
            rf"^{re.escape(str(path))}:5: frame at timestamp {frames[3].timestamp}: "
            "non-finite distances features"
        )
        for batch in (frames[3], HumanFrame.stack(frames)):
            with np.errstate(over="ignore"), pytest.raises(OpenFaceFormatError, match=message):
                retarget_frame(model, batch)

    def test_landmarks_model_names_an_overflowing_frame(self, trained, default_head, tmp_path):
        # two x cells of 1.7e308 are finite, but their sum overflows when
        # the landmarks are centred for alignment
        _, _, models = trained
        path = tmp_path / "huge.csv"
        frames = self.nan_csv(
            default_head, 20, path, "landmarks", models["landmarks"], 1.7e308, (5, 9)
        )
        message = (
            rf"^{re.escape(str(path))}:5: calibration frame 3 \(timestamp {frames[3].timestamp}\): "
            "non-finite landmarks features"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OpenFaceFormatError, match=message):
                calibrate_human(models["landmarks"], frames)
            model = calibrate_human(models["landmarks"], self.frames(default_head, 21))
            message = rf"^{re.escape(str(path))}:5: frame at timestamp {frames[3].timestamp}: "
            for batch in (frames[3], HumanFrame.stack(frames)):
                with pytest.raises(OpenFaceFormatError, match=message + "non-finite landmarks"):
                    retarget_frame(model, batch)

    def test_retarget_frame_names_a_non_finite_prediction(self, trained, default_head):
        # a kept AU of 1.7e308 (parsed CSV cells are clipped into [0, 5], so
        # only a frame built in code holds one) is finite, and so are the
        # features, but the affine map overflows: stream holds the frame, and
        # retarget_frame names its line instead of clipping the infinity
        _, _, models = trained
        model = calibrate_human(models["au"], self.frames(default_head, 21))
        frames = [
            dataclasses.replace(f, source="a.csv", line=2 + i)
            for i, f in enumerate(self.frames(default_head, 22))
        ]
        frames[3] = corrupt(frames[3], [(("aus", AU_INDEX[model.au_ids_used[0]]), 1.7e308)])
        message = (
            rf"^a\.csv:5: frame at timestamp {frames[3].timestamp}: "
            "non-finite command prediction from its au features$"
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(model.features_raw(model.frame_features(frames[3]))).all()
            for batch in (frames[3], HumanFrame.stack(frames)):
                with pytest.raises(OpenFaceFormatError, match=message):
                    retarget_frame(model, batch)
            out = list(stream(model, frames))
        assert out[3] == out[2] == retarget_frame(model, frames[2])
        assert out[4] == retarget_frame(model, frames[4])

    # (5, x) and (9, x) overflow the centring; (5, x) and (40, z) centre to
    # finite values whose cross-covariance with the reference overflows
    @pytest.mark.parametrize("cells", [((5, 0), (9, 0)), ((5, 0), (40, 2))])
    def test_stream_holds_an_overflowing_landmarks_frame(self, calibrated, cells):
        model = calibrated.models["landmarks"]
        pool = calibrated.frames
        landmarks = pool[2].landmarks.copy()
        for cell in cells:
            landmarks[cell] = 1.7e308
        huge = dataclasses.replace(pool[2], landmarks=landmarks)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(model.frame_features(huge)).all()
            out = list(stream(model, [pool[0], huge, pool[1]]))
        assert len(out) == 3 and out[1] == out[0]
        assert out[2] == retarget_frame(model, pool[1])

    @pytest.mark.parametrize("value", [1e160, 1e200, -1e300])
    def test_stream_holds_a_non_finite_prediction(self, calibrated, value):
        model = calibrated.models["distances"]
        pool = calibrated.frames
        landmarks = pool[2].landmarks.copy()
        landmarks[5, 0] = value
        huge = dataclasses.replace(pool[2], landmarks=landmarks)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(model.features_raw(model.frame_features(huge))).all()
            out = list(stream(model, [pool[0], huge, pool[1]]))
        assert len(out) == 3 and out[1] == out[0]
        assert out[2] == retarget_frame(model, pool[1])

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


# Raw predictions: any float but NaN (infinities, signed zeros, huge
# values), ties halfway between integers, and the range ends
RAW = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-300, 600).map(lambda k: k + 0.5),
    st.sampled_from([0.0, -0.0, -0.5, 255.0, 255.5, 254.99999999999997]),
)
RAW_ROW = st.lists(RAW, min_size=len(CHANNELS), max_size=len(CHANNELS))

# Inputs of the one-row branch's unchecked construction: finite values,
# values exactly on .5, the infinities, +-1e308 and -0.0
UNCHECKED_RAW = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-300, 600).map(lambda k: k + 0.5),
    st.sampled_from([np.inf, -np.inf, 1e308, -1e308, -0.0]),
)


class TestCommandFromRaw:
    @given(rows=st.lists(RAW_ROW, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_row_equals_the_rows_branch(self, rows):
        stacked = command_from_raw(np.array(rows, dtype=float))
        assert stacked.shape == (len(rows), len(CHANNELS))
        for row, ints in zip(rows, stacked.tolist()):
            cmd = command_from_raw(np.array(row, dtype=float))
            assert cmd.values == dict(zip(CHANNELS, ints))
            assert all(type(v) is int for v in cmd.values.values())

    @given(row=RAW_ROW, nans=st.sets(st.integers(0, len(CHANNELS) - 1), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_nan_names_the_first_nan_channel(self, row, nans):
        raw = np.array(row, dtype=float)
        raw[sorted(nans)] = np.nan
        message = f"^channel {CHANNELS[min(nans)]} prediction is NaN$"
        for batch in (raw, np.stack([np.zeros_like(raw), raw])):
            with pytest.raises(InvalidCommandError, match=message):
                command_from_raw(batch)

    @given(row=st.lists(UNCHECKED_RAW, min_size=len(CHANNELS), max_size=len(CHANNELS)))
    @settings(max_examples=300, deadline=None)
    def test_one_row_is_the_checked_command(self, row):
        # the one-row branch builds its command unchecked: it must be what
        # the checked constructor gives for the rounded and clipped row
        raw = np.array(row, dtype=float)
        cmd = command_from_raw(raw)
        ints = np.clip(np.floor(raw + 0.5), 0, 255).astype(int).tolist()
        assert cmd == ActuatorCommand(dict(zip(CHANNELS, ints)))
        assert list(cmd.values) == list(CHANNELS)
        assert all(type(v) is int and 0 <= v <= 255 for v in cmd.values.values())
        assert list(cmd.values.values()) == command_from_raw(raw[None])[0].tolist()


class RowModel:
    """A calibrated model's stand-in for :func:`stream`: the features of a
    frame are its ``raw`` row, which is also its prediction; a frame whose
    row is None is one it cannot use."""

    def _check_calibrated(self):
        pass

    def usable_features(self, frame):
        return (frame.raw, None, None) if frame.raw is not None else (None, 0, "no row")

    def features_raw(self, features):
        return features


class TestStreamThreshold:
    def test_nan_threshold_rejected(self):
        # NaN would hold every frame: every comparison with it is false
        frames = [SimpleNamespace(confidence=1.0, raw=np.zeros(9))]
        with pytest.raises(ValueError, match="confidence threshold must be a number, got nan"):
            next(stream(RowModel(), frames, confidence_threshold=float("nan")))
        for threshold, want in ((-np.inf, 1), (np.inf, 0)):  # infinities stay valid
            seen = []
            model = RowModel()
            model.features_raw = lambda f: seen.append(f) or f
            assert len(list(stream(model, frames, confidence_threshold=threshold))) == 1
            assert len(seen) == want


class TestStreamWindow:
    @given(
        rows=st.lists(
            st.one_of(st.none(), st.lists(st.floats(-1e300, 1e300), min_size=9, max_size=9)),
            max_size=12,
        ),
        window=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_mean_equals_add_reduce(self, rows, window):
        import headlearn.retarget as retarget_mod

        rounded = []

        def recording(raw):
            rounded.append(np.array(raw))
            return ActuatorCommand.neutral()

        frames = [
            SimpleNamespace(confidence=1.0, raw=None if r is None else np.array(r)) for r in rows
        ]
        with mock.patch.object(retarget_mod, "command_from_raw", recording):
            out = list(stream(RowModel(), frames, smoothing_window=window))
        assert len(out) == len(rows)
        kept = np.array([r for r in rows if r is not None]).reshape(-1, 9)
        want = [
            np.add.reduce(kept[max(0, k + 1 - window):k + 1], axis=0) / min(k + 1, window)
            for k in range(len(kept))
        ]
        assert [r.tobytes() for r in rounded] == [w.tobytes() for w in want]


def staged_raw(model, frame):
    """``human_raw`` step by step: the MinMax map, the PCA projection, the
    regressor, a frame as a one-row batch."""
    mapped = minmax_map(model.frame_features(frame), model.human_stats, model.robot_stats)
    raw = model.predict_raw(np.atleast_2d(mapped))
    return raw[0] if mapped.ndim == 1 else raw


def assert_folded_equals_staged(model, frames):
    """``human_raw`` equals the staged path within 1e-9 relative, frame by
    frame and on the stack."""
    for f in frames:
        np.testing.assert_allclose(human_raw(model, f), staged_raw(model, f), rtol=1e-9, atol=0.0)
    stack = HumanFrame.stack(frames)
    np.testing.assert_allclose(
        human_raw(model, stack), staged_raw(model, stack), rtol=1e-9, atol=0.0
    )


# The folded map of an MLP model against its staged steps, relative to a
# row's largest raw command
MLP_FOLD_RTOL = 1e-12


def assert_mlp_folded_equals_staged(model, frames):
    """``human_raw`` equals the staged path within ``MLP_FOLD_RTOL`` of each
    row's largest value, with equal commands, frame by frame and on the stack."""
    for frame in frames + [HumanFrame.stack(frames)]:
        folded = np.atleast_2d(human_raw(model, frame))
        staged = np.atleast_2d(staged_raw(model, frame))
        bound = MLP_FOLD_RTOL * np.abs(staged).max(axis=1, keepdims=True)
        assert (np.abs(folded - staged) <= bound).all(), np.abs(folded - staged) / bound
        assert np.array_equal(command_from_raw(folded), command_from_raw(staged))


@pytest.fixture(scope="module")
def linear_models(trained):
    """OLS and ridge models of all three kinds, by (kind, regressor)."""
    train, _, models = trained
    out = {(kind, "ols"): m for kind, m in models.items()}
    for kind in models:
        out[kind, "ridge"] = fit_pipeline(
            train, kind, regressor="ridge", pca_candidates=(3, 5, 7), seed=11
        )
    return out


class TestFoldedMap:
    """A calibrated model maps features to raw commands through one folded
    network: a linear model in one affine step, equal to the staged path."""

    @pytest.fixture(scope="class")
    def frames(self, default_head):
        # the 10-frame calibration of TestStackedFrames: its human spans are
        # tiny, which a fold of the human minimum into the bias cannot take
        rng = np.random.default_rng(26)
        return [
            human_frame(default_head, random_command(default_head, rng), rng_seed=260 + i)
            for i in range(10)
        ]

    @pytest.fixture(scope="class")
    def others(self, default_head):
        rng = np.random.default_rng(27)
        return [
            human_frame(default_head, random_command(default_head, rng), rng_seed=270 + i)
            for i in range(8)
        ]

    @pytest.mark.parametrize("regressor", ["ols", "ridge"])
    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_equals_staged_path(self, linear_models, frames, others, kind, regressor):
        model = linear_models[kind, regressor]
        assert model.folded is None  # no human stats yet
        model = calibrate_human(model, frames)
        assert model.folded is not None
        # the calibration frames, then frames outside their ranges
        assert_folded_equals_staged(model, frames)
        assert_folded_equals_staged(model, others)

    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_zero_span_maps_to_the_robot_midpoint(self, linear_models, frames, kind):
        model = calibrate_human(linear_models[kind, "ols"], frames)
        stats = model.human_stats
        maxs = stats.maxs.copy()
        maxs[::3] = stats.mins[::3]
        some = dataclasses.replace(model, human_stats=MinMaxStats(stats.mins, maxs))
        assert_folded_equals_staged(some, frames)
        flat = dataclasses.replace(model, human_stats=MinMaxStats(stats.mins, stats.mins.copy()))
        robot = model.robot_stats
        midpoint = model.predict_raw(((robot.mins + robot.maxs) / 2.0)[None, :])[0]
        for f in frames:
            np.testing.assert_allclose(human_raw(flat, f), midpoint, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_mlp_equals_staged_path(self, trained, frames, others, kind, activation, depth):
        # the standardization and TARGET_SCALE fold into the network too,
        # and the sums run in other orders, so the raw commands agree to a
        # tolerance and the commands are equal.  The MLP trains on the test
        # rows, whose mean is not the PCA's, so the standardization's mean
        # folds into a bias of some size.
        _, test, models = trained
        model = models[kind]
        z = pca_transform(model.pca, model.dataset_features(test))
        mlp = mlp_fit(z, test.commands, [16] * depth, activation, epochs=40, seed=11)
        model = calibrate_human(dataclasses.replace(model, regressor=mlp), frames)
        assert np.ptp(human_raw(model, HumanFrame.stack(others)), axis=0).all()  # not constant
        stats = model.human_stats
        maxs = stats.maxs.copy()
        maxs[::3] = stats.mins[::3]  # zero-span human dimensions
        some = dataclasses.replace(model, human_stats=MinMaxStats(stats.mins, maxs))
        for m in (model, some):
            assert_mlp_folded_equals_staged(m, frames)
            assert_mlp_folded_equals_staged(m, others)

    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_uncalibrated_model_raises(self, trained, frames, kind):
        model = trained[2][kind]
        for batch in (frames[0], HumanFrame.stack(frames)):
            features = model.frame_features(batch)
            with pytest.raises(CalibrationRequiredError, match="calibrate_human"):
                model.features_raw(features)

    @pytest.mark.parametrize("regressor", ["ols", "tanh", "relu"])
    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_folded_layers_are_column_ordered(self, trained, frames, others, kind, regressor):
        # every folded weight is F-ordered, so a one-frame product reads its
        # rows contiguously; one frame may then sum in another order than
        # its row of the stack, within rounding, to the same command
        _, test, models = trained
        model = models[kind]
        if regressor != "ols":
            z = pca_transform(model.pca, model.dataset_features(test))
            mlp = mlp_fit(z, test.commands, [16, 8], regressor, epochs=40, seed=11)
            model = dataclasses.replace(model, regressor=mlp)
        model = calibrate_human(model, frames)
        assert all(w.flags.f_contiguous for w, _ in model.folded[1])
        stack = human_raw(model, HumanFrame.stack(others))
        for frame, row in zip(others, stack):
            one = human_raw(model, frame)
            assert np.abs(one - row).max() <= 1e-12 * np.abs(row).max()
            assert np.array_equal(*command_from_raw(np.array([one, row])))

    def test_recalibration_derives_a_new_map(self, linear_models, frames, others):
        first = calibrate_human(linear_models["distances", "ols"], frames)
        second = calibrate_human(first, others)
        assert not np.array_equal(second.folded[1][0][0], first.folded[1][0][0])
        assert_folded_equals_staged(second, others + frames)
        assert not np.allclose(human_raw(second, frames[0]), human_raw(first, frames[0]))


class TestStreamBuffer:
    """stream's fixed buffer averages what a list and np.mean average, bit
    for bit, around held low-confidence and non-finite frames."""

    def reference_means(self, model, frames, window):
        """The raw rows a list-and-np.mean stream rounds, one per used frame."""
        buffer, means = [], []
        for f in frames:
            if f.confidence < CONFIDENCE_THRESHOLD or not model.reads_finite(f):
                continue
            buffer.append(human_raw(model, f))
            if len(buffer) > window:
                buffer.pop(0)
            means.append(np.mean(buffer, axis=0))
        return means

    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["au", "landmarks", "distances"])
    def test_equals_list_mean(self, calibrated, kind, window, monkeypatch):
        import headlearn.retarget as retarget_mod

        model = calibrated.models[kind]
        pool = calibrated.frames
        read_au = AU_INDEX[calibrated.models["au"].au_ids_used[0]]
        nan = corrupt(pool[4], [(("aus", read_au), np.nan), (("landmarks", 7), np.nan)])
        low = dataclasses.replace(pool[5], confidence=0.3)
        seq = [pool[0], pool[1], low, pool[2], nan, pool[3], pool[6], low, low,
               pool[7], pool[0], nan, pool[2], pool[5], pool[1], pool[3]]

        rounded = []
        real = retarget_mod.command_from_raw

        def recording(raw):
            rounded.append(np.array(raw))
            return real(raw)

        monkeypatch.setattr(retarget_mod, "command_from_raw", recording)
        out = list(stream(model, seq, smoothing_window=window))
        want = self.reference_means(model, seq, window)
        assert len(out) == len(seq)
        assert len(rounded) == len(want) == len(seq) - 5
        for got, ref in zip(rounded, want):
            assert got.tobytes() == ref.tobytes()
        for i, f in enumerate(seq):
            if f is low or f is nan:
                assert out[i] == out[i - 1]


# The kinds of model-file mutation: delete a key, set a leaf to "x", to null,
# to true, to NaN, Infinity or -Infinity, drop the last entry of a list, add
# a key
MUTATIONS = ("delete", "leaf", "null", "true", "nan", "inf", "-inf", "drop", "add")
# The value each leaf mutation sets
LEAF_VALUES = {
    "leaf": "x", "null": None, "true": True,
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
}
# Free-form model dicts: a key added there is stored, not rejected
FREE_FORM = ("provenance", "hyper")


def _targets(node, path=()):
    """(kind, key path) of each mutation the JSON value ``node`` can take."""
    if isinstance(node, dict):
        yield "add", path + ("unknown_key",)
        for key, value in node.items():
            yield "delete", path + (key,)
            yield from _targets(value, path + (key,))
    elif isinstance(node, list):
        if node:
            yield "drop", path + (len(node) - 1,)
        for i, value in enumerate(node):
            yield from _targets(value, path + (i,))
    else:
        for kind in LEAF_VALUES:
            yield kind, path


def _mutate(doc, kind: str, path: tuple) -> None:
    *head, last = path
    node = functools.reduce(operator.getitem, head, doc)
    if kind in ("delete", "drop"):
        del node[last]
    else:
        node[last] = LEAF_VALUES.get(kind, 1)


class Persisted:
    """Models by name, their saved JSON documents and, by mutation kind,
    the key paths of each document that can take it.  A plain class, so
    Hypothesis reports it by its short repr, not field by field."""

    def __init__(self, models: dict):
        self.models = models
        self._text = {name: json.dumps(to_json(m)) for name, m in models.items()}
        self.targets = {
            name: {kind: [p for k, p in _targets(self.doc(name)) if k == kind]
                   for kind in MUTATIONS}
            for name in models
        }

    def doc(self, name: str) -> dict:
        """A fresh copy of the saved document of model ``name``."""
        return json.loads(self._text[name])


@pytest.fixture(scope="module")
def persisted(trained, calibrated):
    """An au+OLS model, and a calibrated au+MLP and distances+OLS model."""
    train, _, models = trained
    au_mlp = fit_pipeline(
        train, "au", regressor="mlp",
        grid=HyperGrid([1], [8], ["tanh"], [1e-2], [0.0]), epochs=40, seed=11,
    )
    return Persisted({
        "au_ols": models["au"],
        "au_mlp": calibrate_human(au_mlp, calibrated.frames),
        "distances_ols": calibrated.models["distances"],
    })


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


# (model, mutation of its saved file, the field the load error names)
INCONSISTENT = [
    ("au_ols", "regressor weights one column short", "regressor input width"),
    ("au_ols", "au_ids_used one id short", "len(au_ids_used)"),
    ("au_ols", "au_ids_used with an unknown id", "au_ids_used"),
    ("au_ols", "robot_stats one dimension short", "robot_stats.dim"),
    ("au_mlp", "output layer reads 7 of 8 hidden units", "weights[1]"),
    ("au_mlp", "inner bias one entry short", "biases[0]"),
    ("au_mlp", "output bias one entry short", "biases[1]"),
    ("au_mlp", "input_mean one entry short", "input_mean"),
    ("au_mlp", "input_scale one entry short", "input_scale"),
    ("au_mlp", "activation 'x'", "activation"),
    ("distances_ols", "intercept with 8 entries", "intercept"),
    ("distances_ols", "pca mean one entry short", "mean"),
    ("distances_ols", "neutral_reference with 67 rows", "neutral_reference"),
]


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
        _, test, models = trained
        doc = to_json(models["au"])
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
        _, _, models = trained
        model = models["au"]
        doc = to_json(model)
        assert "pruned_aus" not in doc
        doc["pruned_aus"] = list(model.pruned_aus)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert load_model(path).pruned_aus == model.pruned_aus

    @pytest.mark.parametrize(
        "name, mutation, field", INCONSISTENT, ids=[f"{m}-{f}" for _, m, f in INCONSISTENT]
    )
    def test_inconsistent_file_fails_on_load(
        self, persisted, tmp_path, capsys, name, mutation, field
    ):
        from headlearn.cli import main

        doc = persisted.doc(name)
        reg = doc["regressor"]
        if mutation.startswith("regressor weights"):
            reg["weights"] = [row[:-1] for row in reg["weights"]]
        elif mutation.startswith("au_ids_used one"):
            doc["au_ids_used"].pop()
        elif mutation.startswith("au_ids_used with"):
            doc["au_ids_used"][0] = 3
        elif mutation.startswith("robot_stats"):
            for end in ("mins", "maxs"):
                doc["robot_stats"][end].pop()
        elif mutation.startswith("output layer"):
            reg["weights"][1] = [row[:-1] for row in reg["weights"][1]]
        elif mutation.startswith("inner bias"):
            reg["biases"][0].pop()
        elif mutation.startswith("output bias"):
            reg["biases"][1].pop()
        elif mutation.startswith("input_"):
            reg[field].pop()
        elif mutation.startswith("activation"):
            reg["activation"] = "x"
        elif mutation.startswith("intercept"):
            reg["intercept"].pop()
        elif mutation.startswith("pca"):
            doc["pca"]["mean"].pop()
        else:
            doc["neutral_reference"].pop()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}.*{re.escape(field)}"):
            load_model(path)
        assert main(["facs", "happy", "--model", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_older_file_with_kind_and_mlp_keys_loads(self, persisted, calibrated, trained, tmp_path):
        # older builds tag each MinMax stats with its feature kind and store
        # the MLP's layer sizes and output scale; such files still load and
        # predict what those builds predicted, and new files omit the keys
        _, test, _ = trained
        stack = HumanFrame.stack(calibrated.frames)
        digests = {}
        for name in ("au_mlp", "distances_ols"):
            model, doc = persisted.models[name], persisted.doc(name)
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
            assert np.array_equal(human_raw(loaded, stack), human_raw(model, stack))
            digests[name] = array_sha256(pred)
        # the predict_raw digests of the models the older-style files were
        # made from, which both array_equal checks above tie them to
        assert digests == {
            "au_mlp": "735552a637d239d6aa1d7e72baf28bd0729a903d18be178caba5d92220186222",
            "distances_ols": "d9bb1a8acec29fd6786c7784fcf236a857b07d6a6329b681165c72bb8bd8ae52",
        }

    @given(
        name=st.sampled_from(["au_mlp", "distances_ols"]),
        kind=st.sampled_from(MUTATIONS),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mutated_file_names_the_key_or_computes_the_same(
        self, persisted, calibrated, mutation_dir, name, kind, data
    ):
        # one mutation of a saved, calibrated model file either fails to
        # load with an error naming the file and the key, or changes nothing
        # the model computes; a key no record declares never loads
        model, doc = persisted.models[name], persisted.doc(name)
        path = data.draw(st.sampled_from(persisted.targets[name][kind]))
        _mutate(doc, kind, path)
        key = [step for step in path if isinstance(step, str)][-1]
        file = mutation_dir / "m.json"
        file.write_text(json.dumps(doc))
        try:
            loaded = load_model(file)
        except HeadLearnError as e:
            assert str(e).startswith(str(file)) and key in str(e)
            return
        assert kind != "add" or set(path) & set(FREE_FORM), "an undeclared key loaded"
        frame = calibrated.frames[0]
        row = model.frame_features(frame)[None, :]
        assert np.array_equal(loaded.predict_raw(row), model.predict_raw(row))
        if loaded.human_stats is None:
            with pytest.raises(CalibrationRequiredError):
                retarget_frame(loaded, frame)
        else:
            assert retarget_frame(loaded, frame) == retarget_frame(model, frame)

    def test_unsupported_version(self, trained, tmp_path):
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
        assert model.provenance["grid_search"]["rung_epochs"] == [2, 10, 40]

    def test_ridge_regressor_path(self, small_dataset):
        train, test = split(small_dataset, 0.25, 22)
        model = fit_pipeline(train, "landmarks", regressor="ridge",
                             ridge_lambda=5.0, pca_k=12, seed=22)
        assert model.regressor.ridge_lambda == 5.0
        assert np.all(np.isfinite(evaluate_pipeline(model, test)))

    @pytest.mark.parametrize("flat", [False, True], ids=["commands", "zero-commands"])
    def test_tuned_distances_pipeline_keeps_the_scan_fit(self, small_dataset, flat):
        # with a tune_dataset the dimension scan fits on the training rows
        # themselves: the pipeline's PCA is that fit truncated to the chosen
        # k, which is the k-axis fit, and its regressor learns the first k
        # columns of the scan's projection.  Zero commands tie every
        # candidate, so the smallest wins and the scan's fit is cut.
        train, test = split(small_dataset, 0.25, 25)
        if flat:
            train, test = (dataclasses.replace(d, commands=np.zeros_like(d.commands))
                           for d in (train, test))
        cands = [3, 5, 7, 9, 11]
        model = fit_pipeline(train, "distances", tune_dataset=test, pca_candidates=cands, seed=25)
        x, y = train.features("distances"), train.commands
        k = model.pca.k
        assert k == (3 if flat else 11)
        ref = pca_fit(x, k)
        for name in ("mean", "components", "explained_variance_ratio"):
            assert getattr(model.pca, name).tobytes() == getattr(ref, name).tobytes(), name
        lin = ols_fit(pca_transform(pca_fit(x, cands[-1]), x)[:, :k], y)
        assert model.regressor.weights.tobytes() == lin.weights.tobytes()
        assert model.regressor.intercept.tobytes() == lin.intercept.tobytes()

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
            "au": "2b353bca9e65fdf09ceb4172240af24549ef92cefd59b5353e408fdf31663244",
            "landmarks": "2789eea138c5b4c3d7566d322e5befa8dfb22698f42f20ce9a14318b1fd1cf6e",
            "distances": "c04a1c346a3c3fed3c84c456363812a197a6adb6aecdb8a392da39ee597e10ad",
            "au_mlp": "ad84b82da42ab38a4c58cee43f67947b94687417e755f8aac2bd3de1deb7b0e5",
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
