"""Deterministic android-head simulator.

The head is a linear blendshape model: each actuator channel owns a sparse
landmark displacement basis reached at full activation (command value 255),
and the observed face is the neutral geometry plus the activation-weighted
sum of bases.  Observations add per-coordinate Gaussian landmark noise and
a uniformly drawn rigid pose within configured jitter bounds, optionally
delayed by an integer sensor lag.

Everything is a pure function of (config, inputs, seed): two simulators
built from the same config and fed the same command sequence produce
bit-identical frames, whether the sequence arrives one command at a time
or as stacked (n, 9) command rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidCommandError
from .features import AUDef
from .geometry import (
    MIRROR_INDEX,
    N_LANDMARKS,
    Pose,
    apply_pose,
    check_landmarks,
)

# Controllable channels: eyelids (1, 4), eyebrows (5, 6), mouth (7-10),
# jaw (11).  Eye-gaze (2, 3) and neck (12-14) channels of the physical
# head are not modelled.
CHANNELS = (1, 4, 5, 6, 7, 8, 9, 10, 11)
CHANNEL_INDEX = {ch: i for i, ch in enumerate(CHANNELS)}
N_CHANNELS = len(CHANNELS)

COMMAND_MIN = 0
COMMAND_MAX = 255

# Absolute tolerance (mm) of the x -> -x mirror-symmetry checks on the
# neutral landmarks and on the bases of actuators marked symmetric.
SYMMETRY_TOL = 1e-6


@dataclass
class ActuatorCommand:
    """One command frame: integer value in [0, 255] per channel."""

    values: dict[int, int]

    def __post_init__(self) -> None:
        vals = {}
        for ch, v in self.values.items():
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
        self.values = vals

    @classmethod
    def neutral(cls) -> "ActuatorCommand":
        return cls({ch: 0 for ch in CHANNELS})

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ActuatorCommand":
        a = np.asarray(arr)
        if a.shape != (N_CHANNELS,):
            raise InvalidCommandError(f"expected {N_CHANNELS} values, got {a.shape}")
        return cls(dict(zip(CHANNELS, a.tolist())))

    def as_array(self) -> np.ndarray:
        """Values ordered by ``CHANNELS``, as floats."""
        return np.array([self.values[ch] for ch in CHANNELS], dtype=float)


class SparseBasis:
    """Mixin for a ``basis`` field holding sparse (index, dx, dy, dz)
    landmark displacements: its dense form and its JSON codec."""

    def dense_basis(self) -> np.ndarray:
        """Expand the sparse (index, dx, dy, dz) list to a (68, 3) field."""
        out = np.zeros((N_LANDMARKS, 3))
        for idx, dx, dy, dz in self.basis:
            out[int(idx)] += (dx, dy, dz)
        return out

    def basis_to_json(self) -> list[list]:
        return [[int(i), float(x), float(y), float(z)] for i, x, y, z in self.basis]

    @staticmethod
    def basis_from_json(rows: list) -> list[tuple[int, float, float, float]]:
        return [(int(i), float(x), float(y), float(z)) for i, x, y, z in rows]


@dataclass
class ActuatorDef(SparseBasis):
    """One channel: sparse landmark displacement basis at full activation."""

    channel: int
    name: str
    basis: list[tuple[int, float, float, float]]
    symmetric: bool = True

    def to_dict(self) -> dict:
        return {
            "id": self.channel,
            "name": self.name,
            "basis": self.basis_to_json(),
            "symmetric": self.symmetric,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActuatorDef":
        return cls(
            channel=int(d["id"]),
            name=d["name"],
            basis=cls.basis_from_json(d["basis"]),
            symmetric=bool(d["symmetric"]),
        )


@dataclass
class QuadraticTerm(SparseBasis):
    """Optional pairwise cross-term: extra displacement ~ a_i * a_j.

    Off by default; lets robustness studies break the head's linearity.
    """

    channel_a: int
    channel_b: int
    basis: list[tuple[int, float, float, float]]

    def to_dict(self) -> dict:
        return {
            "channel_a": self.channel_a,
            "channel_b": self.channel_b,
            "basis": self.basis_to_json(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticTerm":
        return cls(
            channel_a=int(d["channel_a"]),
            channel_b=int(d["channel_b"]),
            basis=cls.basis_from_json(d["basis"]),
        )


@dataclass
class HeadConfig:
    """Full parametric description of the simulated head."""

    neutral_landmarks: np.ndarray
    actuators: list[ActuatorDef]
    landmark_noise_sigma: float = 0.0
    pose_jitter_max_rotation: float = 0.0
    pose_jitter_max_translation: float = 0.0
    sensor_lag_frames: int = 0
    au_defs: list[AUDef] = field(default_factory=list)
    rng_seed: int = 0
    quadratic_terms: list[QuadraticTerm] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.neutral_landmarks = check_landmarks(self.neutral_landmarks)
        # CHANNELS ascend, so channel order is CHANNELS order
        ordered = sorted(self.actuators, key=lambda a: a.channel)
        self._basis = np.array([a.dense_basis() for a in ordered]).reshape(-1, N_LANDMARKS, 3)
        self._basis.flags.writeable = False
        self.validate()

    def validate(self) -> None:
        channels = [a.channel for a in self.actuators]
        if sorted(channels) != sorted(CHANNELS):
            raise ConfigError(
                f"actuator channels {sorted(channels)} != expected {sorted(CHANNELS)}"
            )
        if self.landmark_noise_sigma < 0:
            raise ConfigError("landmark_noise_sigma must be >= 0")
        if self.pose_jitter_max_rotation < 0 or self.pose_jitter_max_translation < 0:
            raise ConfigError("pose jitter bounds must be >= 0")
        if self.sensor_lag_frames < 0:
            raise ConfigError("sensor_lag_frames must be >= 0")

        mirrored = self.neutral_landmarks[MIRROR_INDEX] * np.array([-1.0, 1.0, 1.0])
        if not np.allclose(self.neutral_landmarks, mirrored, atol=SYMMETRY_TOL):
            raise ConfigError("neutral landmarks are not symmetric about x=0")

        for act in self.actuators:
            if not act.symmetric:
                continue
            dense = act.dense_basis()
            mirrored = dense[MIRROR_INDEX] * np.array([-1.0, 1.0, 1.0])
            if not np.allclose(dense, mirrored, atol=SYMMETRY_TOL):
                raise ConfigError(
                    f"actuator {act.channel} ({act.name}) marked symmetric but its "
                    "basis is not mirror-symmetric"
                )

        flat = self.basis_matrix().reshape(N_CHANNELS, -1)
        if np.linalg.matrix_rank(flat) != N_CHANNELS:
            raise ConfigError("actuator displacement bases are linearly dependent")

        au_ids = [d.au for d in self.au_defs]
        if len(set(au_ids)) != len(au_ids):
            raise ConfigError("duplicate AU ids in head config")

    def basis_matrix(self) -> np.ndarray:
        """Dense displacement bases stacked in ``CHANNELS`` order, (9, 68, 3).

        Built once when the config is constructed (``dataclasses.replace``
        builds it anew) and returned read-only; changing ``actuators`` in
        place afterwards does not reach it.
        """
        return self._basis

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "head-config/v1",
            "neutral_landmarks": [[float(c) for c in row] for row in self.neutral_landmarks],
            "actuators": [a.to_dict() for a in sorted(self.actuators, key=lambda a: a.channel)],
            "landmark_noise_sigma": float(self.landmark_noise_sigma),
            "pose_jitter_max_rotation": float(self.pose_jitter_max_rotation),
            "pose_jitter_max_translation": float(self.pose_jitter_max_translation),
            "sensor_lag_frames": int(self.sensor_lag_frames),
            "au_defs": [d.to_dict() for d in self.au_defs],
            "rng_seed": int(self.rng_seed),
            "quadratic_terms": [q.to_dict() for q in self.quadratic_terms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HeadConfig":
        schema = d.get("schema", "head-config/v1")
        if schema != "head-config/v1":
            raise ConfigError(f"unsupported head config schema {schema!r}")
        return cls(
            neutral_landmarks=np.array(d["neutral_landmarks"], dtype=float),
            actuators=[ActuatorDef.from_dict(a) for a in d["actuators"]],
            landmark_noise_sigma=float(d["landmark_noise_sigma"]),
            pose_jitter_max_rotation=float(d["pose_jitter_max_rotation"]),
            pose_jitter_max_translation=float(d["pose_jitter_max_translation"]),
            sensor_lag_frames=int(d["sensor_lag_frames"]),
            au_defs=[AUDef.from_dict(a) for a in d.get("au_defs", [])],
            rng_seed=int(d["rng_seed"]),
            quadratic_terms=[QuadraticTerm.from_dict(q) for q in d.get("quadratic_terms", [])],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "HeadConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def sha256(self) -> str:
        """Hash of the canonical serialized form, for provenance checks."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ObservedFrame:
    """One simulated camera observation, or a stack of n of them.

    For a stack, the landmark fields are (n, 68, 3) and ``pose`` holds
    (n, 3) arrays.
    """

    landmarks_observed: np.ndarray
    landmarks_true: np.ndarray
    pose: Pose


def _command_rows(commands: ActuatorCommand | np.ndarray) -> np.ndarray:
    """(n, 9) float command values; one ActuatorCommand is n = 1."""
    if isinstance(commands, ActuatorCommand):
        return commands.as_array()[None, :]
    rows = np.asarray(commands, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != N_CHANNELS:
        raise InvalidCommandError(f"expected (n, {N_CHANNELS}) command rows, got {rows.shape}")
    if not np.all((rows >= COMMAND_MIN) & (rows <= COMMAND_MAX) & (rows == np.floor(rows))):
        raise InvalidCommandError(
            f"command rows must hold integers in [{COMMAND_MIN}, {COMMAND_MAX}]"
        )
    return rows


def forward(config: HeadConfig, commands: ActuatorCommand | np.ndarray) -> np.ndarray:
    """Noiseless face-frame landmarks (blendshape sum): (68, 3) for one
    command, (n, 68, 3) for (n, 9) command rows."""
    rows = _command_rows(commands)
    act = rows / COMMAND_MAX
    # a (1, 9) @ (9, 204) product per row rounds as the one-command sum does
    moved = np.matmul(act[:, None, :], config.basis_matrix().reshape(N_CHANNELS, -1))
    pts = config.neutral_landmarks + moved.reshape(len(rows), N_LANDMARKS, 3)
    for q in config.quadratic_terms:
        a = act[:, CHANNEL_INDEX[q.channel_a]] * act[:, CHANNEL_INDEX[q.channel_b]]
        on = a != 0.0
        pts[on] += a[on, None, None] * q.dense_basis()
    return pts[0] if isinstance(commands, ActuatorCommand) else pts


def random_command(config: HeadConfig, rng: np.random.Generator) -> ActuatorCommand:
    """Each channel drawn independently and uniformly from {0, ..., 255}."""
    vals = rng.integers(COMMAND_MIN, COMMAND_MAX + 1, size=N_CHANNELS)
    return ActuatorCommand.from_array(vals)


def interpolate_commands(
    a: ActuatorCommand, b: ActuatorCommand, steps: int
) -> list[ActuatorCommand]:
    """``steps`` intermediate commands between a and b, endpoints excluded.

    Values sit at fractions i/(steps+1) and are rounded to the nearest
    integer (ties up), keeping the wire protocol integer-valued.
    """
    rows = interpolate_rows(a.as_array(), b.as_array(), steps)
    return [ActuatorCommand.from_array(v.astype(int)) for v in rows]


def interpolate_rows(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """:func:`interpolate_commands` on command rows: for (..., 9) arrays
    ``a`` and ``b``, the (..., steps, 9) float rows between them."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    frac = (np.arange(1, steps + 1) / (steps + 1))[:, None]
    return np.floor(a[..., None, :] + (b - a)[..., None, :] * frac + 0.5)


class HeadSimulator:
    """Stateful observation stream over one head configuration.

    Owns the noise RNG (seeded from ``config.rng_seed`` unless an explicit
    generator is passed) and the sensor-lag buffer, which starts filled
    with neutral commands.  Not thread-safe; use one instance per stream.
    """

    def __init__(self, config: HeadConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.rng_seed)
        # commands issued but not yet seen, oldest first
        self._lag = np.zeros((config.sensor_lag_frames, N_CHANNELS))

    def observe(self, commands: ActuatorCommand | np.ndarray) -> ObservedFrame:
        """Issue one command, or (n, 9) command rows in order, and return the
        (lagged, noisy, posed) observation of each.

        Random draws go frame by frame (landmark noise, then rotation, then
        translation), so a stack observes exactly what n single calls would.
        """
        cfg = self.config
        rows = _command_rows(commands)
        n = len(rows)
        queued = np.concatenate([self._lag, rows])
        self._lag = queued[n:].copy()
        true_pts = forward(cfg, queued[:n])

        noisy = true_pts.copy()
        rot, trans = np.empty((n, 3)), np.empty((n, 3))
        sigma = cfg.landmark_noise_sigma
        r, t = cfg.pose_jitter_max_rotation, cfg.pose_jitter_max_translation
        for i in range(n):
            if sigma > 0:
                noisy[i] += self.rng.normal(0.0, sigma, size=(N_LANDMARKS, 3))
            rot[i] = self.rng.uniform(-r, r, size=3)
            trans[i] = self.rng.uniform(-t, t, size=3)

        if isinstance(commands, ActuatorCommand):
            true_pts, noisy, rot, trans = true_pts[0], noisy[0], rot[0], trans[0]
        pose = Pose(rotation=rot, translation=trans)
        return ObservedFrame(
            landmarks_observed=apply_pose(noisy, pose),
            landmarks_true=true_pts,
            pose=pose,
        )
