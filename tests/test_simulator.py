import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlearn.errors import ConfigError, InvalidCommandError
from headlearn.features import AUDef
from headlearn.geometry import MIRROR_INDEX, N_LANDMARKS, Pose, apply_pose
from headlearn.records import to_json
from headlearn.simulator import (
    CHANNEL_INDEX,
    CHANNELS,
    COMMAND_MAX,
    COMMAND_MIN,
    ActuatorCommand,
    ActuatorDef,
    HeadConfig,
    HeadSimulator,
    QuadraticTerm,
    forward,
    interpolate_commands,
    random_command,
)

from conftest import array_sha256, assert_valid_command


def command_with(channel, value):
    vals = {ch: 0 for ch in CHANNELS}
    vals[channel] = value
    return ActuatorCommand(vals)


# Command values, valid or not, of every kind a caller may pass
VALUES = st.one_of(
    st.integers(-3, 258),
    st.floats(-300.0, 300.0),
    st.sampled_from([np.nan, np.inf, -np.inf, None, "7", "x", True]),
)


class TestActuatorCommand:
    def test_neutral_is_all_zero(self):
        cmd = ActuatorCommand.neutral()
        assert_valid_command(cmd)
        assert all(v == 0 for v in cmd.values.values())

    def test_unknown_channel_rejected(self):
        vals = {ch: 0 for ch in CHANNELS}
        vals[2] = 10  # an eye channel, not controllable
        del vals[1]
        with pytest.raises(InvalidCommandError):
            ActuatorCommand(vals)

    def test_missing_channel_rejected(self):
        vals = {ch: 0 for ch in CHANNELS[:-1]}
        with pytest.raises(InvalidCommandError):
            ActuatorCommand(vals)

    def test_out_of_range_rejected(self):
        for bad in (-1, 256):
            vals = {ch: 0 for ch in CHANNELS}
            vals[5] = bad
            with pytest.raises(InvalidCommandError):
                ActuatorCommand(vals)

    def test_array_round_trip(self):
        cmd = ActuatorCommand({ch: i * 20 for i, ch in enumerate(CHANNELS)})
        assert ActuatorCommand.from_array(cmd.as_array()) == cmd

    @given(values=st.one_of(
        # any keys: most dicts have several faults
        st.dictionaries(
            st.one_of(st.sampled_from(CHANNELS + (0, 2, 12)), st.sampled_from(["4", "x", ""])),
            VALUES,
            max_size=12,
        ),
        # every channel, and at most a few faults
        st.fixed_dictionaries(
            {ch: st.one_of(st.integers(0, 255), VALUES) for ch in CHANNELS},
            optional={2: VALUES, "4": VALUES},
        ),
    ))
    @settings(max_examples=300, deadline=None)
    def test_checks_as_the_per_channel_loop(self, values):
        # the values, or the error, that checking each entry in turn gives
        def per_channel(values):
            vals = {}
            for ch, v in values.items():
                ch = int(ch)
                if ch not in CHANNEL_INDEX:
                    raise InvalidCommandError(f"unknown channel id {ch}")
                v = int(v)
                if not COMMAND_MIN <= v <= COMMAND_MAX:
                    raise InvalidCommandError(
                        f"channel {ch} value {v} outside [{COMMAND_MIN}, {COMMAND_MAX}]"
                    )
                vals[ch] = v
            if set(vals) != set(CHANNELS):
                missing = sorted(set(CHANNELS) - set(vals))
                raise InvalidCommandError(f"command missing channels {missing}")
            return vals

        def outcome(fn):
            try:
                return fn(dict(values))
            except (InvalidCommandError, TypeError, ValueError, OverflowError) as e:
                return type(e), str(e)

        want = outcome(per_channel)
        got = outcome(lambda v: ActuatorCommand(v).values)
        assert got == want
        if isinstance(got, dict):
            assert [type(k) for k in got] == [type(k) for k in want]
            assert all(type(v) is int for v in got.values())


class TestForward:
    def test_zero_command_gives_exact_neutral(self, default_head):
        out = forward(default_head, ActuatorCommand.neutral())
        assert np.array_equal(out, default_head.neutral_landmarks)

    def test_full_single_channel_adds_exact_basis(self, default_head):
        # full jaw activation shifts each affected landmark by its basis entry
        jaw = next(a for a in default_head.actuators if a.channel == 11)
        out = forward(default_head, command_with(11, 255))
        expected = default_head.neutral_landmarks + jaw.dense_basis()
        assert np.allclose(out, expected, atol=1e-12)
        displaced = out - default_head.neutral_landmarks
        for idx, dx, dy, dz in jaw.basis:
            assert displaced[idx] == pytest.approx(
                np.array([0.0, 0.0, 0.0]) + jaw.dense_basis()[idx], abs=1e-12
            )

    def test_symmetric_command_gives_symmetric_face(self, default_head):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cmd = random_command(default_head, rng)
            out = forward(default_head, cmd)
            mirrored = out[MIRROR_INDEX] * np.array([-1.0, 1.0, 1.0])
            assert np.allclose(out, mirrored, atol=1e-12)

    def test_linear_in_activation(self, default_head):
        rng = np.random.default_rng(1)
        a = random_command(default_head, rng)
        b = random_command(default_head, rng)
        va, vb = a.as_array(), b.as_array()
        mix = ActuatorCommand.from_array(((va + vb) // 2).astype(int))
        lhs = forward(default_head, mix)
        act_mix = mix.as_array() / COMMAND_MAX
        rhs = (
            default_head.neutral_landmarks
            + np.tensordot(act_mix, default_head.basis_matrix(), axes=1)
        )
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_jaw_displacement_monotone(self, default_head):
        norms = []
        for v in (0, 64, 128, 192, 255):
            out = forward(default_head, command_with(11, v))
            norms.append(np.linalg.norm(out - default_head.neutral_landmarks))
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_quadratic_cross_term_off_by_default(self, default_head):
        assert default_head.quadratic_terms == []

    def test_quadratic_cross_term_breaks_linearity_when_enabled(self, default_head):
        term = QuadraticTerm(7, 11, [(48, 0.0, 2.0, 0.0), (54, 0.0, 2.0, 0.0)])
        head = dataclasses.replace(default_head, quadratic_terms=[term])
        vals = {ch: 0 for ch in CHANNELS}
        vals[7] = 255
        vals[11] = 255
        both = ActuatorCommand(vals)
        lin = (
            head.neutral_landmarks
            + np.tensordot(both.as_array() / COMMAND_MAX, head.basis_matrix(), axes=1)
        )
        out = forward(head, both)
        assert np.allclose(out - lin, term.dense_basis(), atol=1e-12)
        # single-channel activation keeps the cross term silent
        assert np.allclose(
            forward(head, command_with(7, 255)),
            forward(default_head, command_with(7, 255)),
        )


class TestObserve:
    def test_zero_noise_and_jitter_is_forward(self, quiet_head):
        sim = HeadSimulator(quiet_head)
        rng = np.random.default_rng(2)
        cmd = random_command(quiet_head, rng)
        frame = sim.observe(cmd)
        assert np.array_equal(frame.landmarks_observed, forward(quiet_head, cmd))
        assert np.array_equal(frame.landmarks_true, frame.landmarks_observed)

    def test_fixed_seed_bit_identical(self, default_head):
        cmds = [random_command(default_head, np.random.default_rng(3)) for _ in range(3)]
        frames_a = [HeadSimulator(default_head).observe(c) for c in cmds[:1]]
        sim_a, sim_b = HeadSimulator(default_head), HeadSimulator(default_head)
        for cmd in cmds:
            fa, fb = sim_a.observe(cmd), sim_b.observe(cmd)
            assert np.array_equal(fa.landmarks_observed, fb.landmarks_observed)
            assert np.array_equal(fa.pose.rotation, fb.pose.rotation)
            assert np.array_equal(fa.pose.translation, fb.pose.translation)

    def test_observed_equals_pose_applied_to_noisy_true(self, default_head):
        from headlearn.geometry import apply_pose, derotate, center

        sim = HeadSimulator(default_head)
        frame = sim.observe(ActuatorCommand.neutral())
        # derotating with the frame pose must recover a centred noisy face
        face = derotate(frame.landmarks_observed, frame.pose)
        noise = face - center(frame.landmarks_true)
        assert np.linalg.norm(noise) / np.sqrt(noise.size) < 5 * default_head.landmark_noise_sigma

    def test_sensor_lag_replays_earlier_commands(self, quiet_head):
        lagged = dataclasses.replace(quiet_head, sensor_lag_frames=1)
        sim = HeadSimulator(lagged)
        c0 = command_with(11, 255)
        c1 = command_with(5, 255)
        frame0 = sim.observe(c0)
        frame1 = sim.observe(c1)
        # frame 0 shows the pre-roll neutral; frame 1 shows c0
        assert np.array_equal(frame0.landmarks_observed, forward(quiet_head, ActuatorCommand.neutral()))
        assert np.array_equal(frame1.landmarks_observed, forward(quiet_head, c0))

    def test_golden_fingerprint(self):
        # pins the per-frame observation stream of the packaged head at a
        # fixed seed, so a numeric drift in forward, noise or pose fails here
        from headlearn.default_head import load_default_head

        head = load_default_head()
        rng = np.random.default_rng(50)
        sim = HeadSimulator(head)
        frames = [sim.observe(random_command(head, rng)) for _ in range(50)]
        got = {
            "landmarks_observed": np.stack([f.landmarks_observed for f in frames]),
            "landmarks_true": np.stack([f.landmarks_true for f in frames]),
            "rotation": np.stack([f.pose.rotation for f in frames]),
            "translation": np.stack([f.pose.translation for f in frames]),
        }
        assert {name: array_sha256(a) for name, a in got.items()} == {
            "landmarks_observed": "7823a5f2a8846d6654d432ae118a50494d7ae419ed54cee312df8afd1c7e7b32",
            "landmarks_true": "26829273e88236a6e9370e4491f40da682d62b8611f3e83c805342a64dc5e6ba",
            "rotation": "87fa8a12d1c0593c415b8073b8e1ad79247c0540796a3824e0c15dc13c1c795b",
            "translation": "987e4c2a837ae2c8f784a375b6b68e6d6a043d2c6247a2b294281d8be0c145fb",
        }


def command_rows(head, seed, n):
    rng = np.random.default_rng(seed)
    return np.array([random_command(head, rng).as_array() for _ in range(n)])


def as_command(row):
    return ActuatorCommand.from_array(row.astype(int))


class TestStackEqualsLoop:
    """Stacked (n, 9) command rows give what n single commands give, bit
    for bit, and leave the simulator in the same state."""

    def test_forward(self, default_head):
        term = QuadraticTerm(7, 11, [(48, 0.0, 2.0, 0.0), (54, 0.0, 2.0, 0.0)])
        rows = command_rows(default_head, 30, 12)
        rows[3, CHANNEL_INDEX[7]] = 0.0  # a row whose cross term is silent
        for head in (default_head, dataclasses.replace(default_head, quadratic_terms=[term])):
            stacked = forward(head, rows)
            assert stacked.shape == (12, N_LANDMARKS, 3)
            assert np.array_equal(stacked, np.array([forward(head, as_command(r)) for r in rows]))

    @pytest.mark.parametrize("lag", [0, 2])
    def test_observe(self, default_head, lag):
        head = dataclasses.replace(default_head, sensor_lag_frames=lag)
        rows = command_rows(head, 31, 20)
        single_sim, stack_sim = HeadSimulator(head), HeadSimulator(head)
        singles = [single_sim.observe(as_command(r)) for r in rows]
        stacks = [stack_sim.observe(rows[a:b]) for a, b in ((0, 7), (7, 8), (8, 20))]
        for field in ("landmarks_observed", "landmarks_true"):
            stacked = np.concatenate([getattr(f, field) for f in stacks])
            assert np.array_equal(stacked, np.array([getattr(f, field) for f in singles]))
        for field in ("rotation", "translation"):
            stacked = np.concatenate([getattr(f.pose, field) for f in stacks])
            assert np.array_equal(stacked, np.array([getattr(f.pose, field) for f in singles]))
        # same noise stream and lag buffer afterwards
        nxt = as_command(rows[0])
        a, b = single_sim.observe(nxt), stack_sim.observe(nxt)
        assert np.array_equal(a.landmarks_observed, b.landmarks_observed)

    @given(
        sigma=st.sampled_from([0.0, 0.3, 1e-3, 2.5]),
        rotation=st.sampled_from([0.0, 0.05, 0.3]),
        translation=st.sampled_from([0.0, 1.0, 7.5]),
        lag=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 12), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_observe_equals_the_per_frame_draws(
        self, default_head, sigma, rotation, translation, lag, seed, cuts
    ):
        # the stacked draws give what one normal() and two uniform() calls
        # per frame gave, and leave the generator in the same state
        head = dataclasses.replace(
            default_head, landmark_noise_sigma=sigma, pose_jitter_max_rotation=rotation,
            pose_jitter_max_translation=translation, sensor_lag_frames=lag,
        )
        rows = command_rows(head, seed, 12)
        sim = HeadSimulator(head, np.random.default_rng(seed))
        bounds = [0, *sorted(cuts), len(rows)]
        stacks = [sim.observe(rows[a:b]) for a, b in zip(bounds, bounds[1:])]

        rng = np.random.default_rng(seed)
        shown = np.concatenate([np.zeros((lag, len(CHANNELS))), rows])[:len(rows)]
        want = {name: [] for name in ("observed", "true", "rotation", "translation")}
        for row in shown:
            true = forward(head, as_command(row))
            noisy = true.copy()
            if sigma > 0:
                noisy += rng.normal(0.0, sigma, size=(N_LANDMARKS, 3))
            pose = Pose(rotation=rng.uniform(-rotation, rotation, size=3),
                        translation=rng.uniform(-translation, translation, size=3))
            for name, value in zip(want, (apply_pose(noisy, pose), true, pose.rotation,
                                          pose.translation)):
                want[name].append(value)
        got = {
            "observed": [f.landmarks_observed for f in stacks],
            "true": [f.landmarks_true for f in stacks],
            "rotation": [f.pose.rotation for f in stacks],
            "translation": [f.pose.translation for f in stacks],
        }
        for name in want:
            a, b = np.concatenate(got[name]), np.array(want[name])
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
        assert sim.rng.bit_generator.state == rng.bit_generator.state

    def test_invalid_command_rows_rejected(self, default_head):
        sim = HeadSimulator(default_head)
        for bad in (np.full((2, 9), 256.0), np.full((2, 9), 1.5), np.zeros((2, 8)), np.zeros(9)):
            with pytest.raises(InvalidCommandError):
                sim.observe(bad)
            with pytest.raises(InvalidCommandError):
                forward(default_head, bad)


class TestRandomCommand:
    def test_reproducible_sequence(self, default_head):
        a = [random_command(default_head, np.random.default_rng(4)) for _ in range(5)]
        b = [random_command(default_head, np.random.default_rng(4)) for _ in range(5)]
        assert a == b

    def test_uniform_mean(self, default_head):
        rng = np.random.default_rng(5)
        draws = np.array([random_command(default_head, rng).as_array() for _ in range(10_000)])
        means = draws.mean(axis=0)
        assert np.all(np.abs(means - 127.5) < 5.0)

    def test_draws_are_valid_commands(self, default_head):
        rng = np.random.default_rng(6)
        for _ in range(100):
            assert_valid_command(random_command(default_head, rng))


class TestInterpolate:
    def test_constant_endpoints_give_copies(self):
        a = ActuatorCommand({ch: 42 for ch in CHANNELS})
        out = interpolate_commands(a, a, 4)
        assert out == [a] * 4

    def test_linear_ramp_values(self):
        a = ActuatorCommand.neutral()
        b = command_with(11, 255)
        out = interpolate_commands(a, b, 4)
        assert [c.values[11] for c in out] == [51, 102, 153, 204]
        for c in out:
            assert all(v == 0 for ch, v in c.values.items() if ch != 11)

    def test_zero_steps_is_empty(self):
        a, b = ActuatorCommand.neutral(), command_with(5, 100)
        assert interpolate_commands(a, b, 0) == []

    def test_negative_steps_rejected(self):
        a = ActuatorCommand.neutral()
        with pytest.raises(ValueError):
            interpolate_commands(a, a, -1)

    def test_outputs_are_valid_commands(self, default_head):
        rng = np.random.default_rng(7)
        a, b = random_command(default_head, rng), random_command(default_head, rng)
        for cmd in interpolate_commands(a, b, 6):
            assert_valid_command(cmd)


class TestHeadConfig:
    def test_json_round_trip(self, default_head, tmp_path):
        path = tmp_path / "head.json"
        default_head.save(path)
        loaded = HeadConfig.load(path)
        assert loaded.sha256() == default_head.sha256()
        assert np.array_equal(loaded.neutral_landmarks, default_head.neutral_landmarks)

    def test_keys_with_defaults_may_be_left_out(self, default_head, tmp_path):
        doc = to_json(default_head)
        for key in ("landmark_noise_sigma", "pose_jitter_max_rotation",
                    "pose_jitter_max_translation", "sensor_lag_frames", "rng_seed"):
            del doc[key]
        for act in doc["actuators"]:
            del act["symmetric"]
        for au in doc["au_defs"]:
            del au["weights"], au["bias"], au["noise_sigma"]
        path = tmp_path / "head.json"
        path.write_text(json.dumps(doc))
        expected = HeadConfig(
            default_head.neutral_landmarks,
            default_head.actuators,
            au_defs=[AUDef(d.au, crosstalk=d.crosstalk) for d in default_head.au_defs],
        )
        assert HeadConfig.load(path).sha256() == expected.sha256()

    def test_actuators_are_kept_in_channel_order(self, default_head):
        shuffled = dataclasses.replace(default_head, actuators=default_head.actuators[::-1])
        assert [a.channel for a in shuffled.actuators] == list(CHANNELS)
        assert shuffled.sha256() == default_head.sha256()

    def test_asymmetric_neutral_rejected(self, default_head):
        pts = default_head.neutral_landmarks.copy()
        pts[0, 1] += 5.0
        with pytest.raises(ConfigError):
            dataclasses.replace(default_head, neutral_landmarks=pts)

    def test_asymmetric_basis_on_symmetric_actuator_rejected(self, default_head):
        acts = [dataclasses.replace(a) for a in default_head.actuators]
        acts[0] = dataclasses.replace(acts[0], basis=[(37, 0.0, -3.0, 0.0)])
        with pytest.raises(ConfigError):
            dataclasses.replace(default_head, actuators=acts)

    def test_negative_seed_rejected(self, default_head):
        with pytest.raises(ConfigError, match="^rng_seed must be >= 0$"):
            dataclasses.replace(default_head, rng_seed=-1)

    def test_wrong_channel_set_rejected(self, default_head):
        acts = [a for a in default_head.actuators if a.channel != 11]
        acts.append(ActuatorDef(12, "lean head", [(8, 0.0, -1.0, 0.0)], symmetric=True))
        with pytest.raises(ConfigError):
            dataclasses.replace(default_head, actuators=acts)

    def test_basis_built_once_and_read_only(self, default_head):
        basis = default_head.basis_matrix()
        assert basis is default_head.basis_matrix()
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0
        by_channel = {a.channel: a.dense_basis() for a in default_head.actuators}
        assert np.array_equal(basis, np.stack([by_channel[ch] for ch in CHANNELS]))

    def test_replace_rebuilds_basis(self, default_head):
        acts = [dataclasses.replace(a) for a in default_head.actuators]
        k = next(i for i, a in enumerate(acts) if a.channel == 11)
        acts[k] = dataclasses.replace(
            acts[k], basis=[(i, 2 * x, 2 * y, 2 * z) for i, x, y, z in acts[k].basis]
        )
        head = dataclasses.replace(default_head, actuators=acts)
        assert head.basis_matrix() is not default_head.basis_matrix()
        jaw = CHANNEL_INDEX[11]
        assert np.array_equal(head.basis_matrix()[jaw], 2 * default_head.basis_matrix()[jaw])
        moved = forward(head, command_with(11, 255)) - head.neutral_landmarks
        assert np.allclose(moved, 2 * default_head.basis_matrix()[jaw], atol=1e-12)

    def test_dependent_bases_rejected(self, default_head):
        acts = [dataclasses.replace(a) for a in default_head.actuators]
        jaw = next(a for a in acts if a.channel == 11)
        dup = dataclasses.replace(acts[0], basis=[(i, x / 2, y / 2, z / 2) for i, x, y, z in jaw.basis])
        acts[0] = dup
        with pytest.raises(ConfigError):
            dataclasses.replace(default_head, actuators=acts)

    @pytest.mark.parametrize("index", [-1, N_LANDMARKS, 70])
    def test_basis_index_outside_the_landmarks_rejected(self, index):
        with pytest.raises(ConfigError, match=f"basis\\[1\\] landmark index {index} outside"):
            ActuatorDef(1, "lid", [(37, 0.0, -1.0, 0.0), (index, 0.0, -1.0, 0.0)], False)
        with pytest.raises(ConfigError, match=r"quadratic term \(7, 11\): basis\[0\]"):
            QuadraticTerm(7, 11, [(index, 0.0, 1.0, 0.0)])

    @pytest.mark.parametrize("a, b, error", [
        (99, 7, "channel_a 99 is not one of"), (7, 2, "channel_b 2 is not one of"),
    ], ids=["channel_a", "channel_b"])
    def test_quadratic_term_on_unknown_channel_rejected(self, a, b, error):
        with pytest.raises(ConfigError, match=error):
            QuadraticTerm(a, b, [(8, 0.0, 1.0, 0.0)])
