"""Dataset collection against the simulator, persistence, and CSV ingestion.

Collection protocol per target expression: a block of neutral frames
(sized so neutrals make up ``neutral_fraction`` of the neutral+target mix),
then the expression held for ``au_window`` frames, then ``interp_steps``
interpolation frames easing toward the next expression.  Neutral and
interpolation frames are recorded (and counted) but never become dataset
rows; each held expression collapses to exactly one row whose AU and
landmark features are the window means.

Persistence format: a directory holding ``metadata.json`` plus
``frames.csv`` with columns
``frame_id, role, a1,a4,a5,a6,a7,a8,a9,a10,a11, X_0..X_67, Y_0..Y_67,
Z_0..Z_67, AU01..AU45``.
Distance features are not stored; they are recomputed from the stored
aligned landmarks on load.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DatasetCorruptError,
    OpenFaceFormatError,
    ProtocolError,
    ProvenanceWarning,
    UnsupportedVersionError,
)
from .features import AU_IDS, AUReadout, window_average
from .geometry import (
    CHUNK,
    N_LANDMARKS,
    Pose,
    center,
    derotate,
    pairwise_distances,
    procrustes_align,
)
from .simulator import (
    CHANNELS,
    COMMAND_MAX,
    COMMAND_MIN,
    N_CHANNELS,
    HeadConfig,
    HeadSimulator,
    interpolate_rows,
    random_command,
)

DATASET_SCHEMA = "dataset/v1"

ROLE_NEUTRAL = "neutral"
ROLE_TARGET = "target"
ROLE_INTERP = "interp"

# Default share of the rows a seeded split holds out for testing.
TEST_FRACTION = 0.2

# Default tracker confidence under which an OpenFace row is not used.
CONFIDENCE_THRESHOLD = 0.8


@dataclass
class CollectionProtocol:
    """Parameters of one simulated recording session."""

    n_target_frames: int = 500
    neutral_fraction: float = 0.75
    interp_steps: int = 4
    au_window: int = 7
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_target_frames < 1:
            raise ProtocolError("n_target_frames must be >= 1")
        if not 0.0 <= self.neutral_fraction < 1.0:
            raise ProtocolError("neutral_fraction must be in [0, 1)")
        if self.interp_steps < 0:
            raise ProtocolError("interp_steps must be >= 0")
        if self.au_window < 1:
            raise ProtocolError("au_window must be >= 1")

    def to_dict(self) -> dict:
        return {
            "n_target_frames": self.n_target_frames,
            "neutral_fraction": self.neutral_fraction,
            "interp_steps": self.interp_steps,
            "au_window": self.au_window,
            "rng_seed": self.rng_seed,
        }


@dataclass
class Dataset:
    """Target rows with all three feature representations, plus provenance."""

    frame_ids: np.ndarray    # (n,) int index of each row's held expression
    aus: np.ndarray          # (n, 17)
    landmarks: np.ndarray    # (n, 204) flattened aligned landmarks
    distances: np.ndarray    # (n, 2278) recomputed from `landmarks`
    commands: np.ndarray     # (n, 9) float copies of the integer commands
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.frame_ids)

    def features(self, kind: str) -> np.ndarray:
        if kind == "au":
            return self.aus
        if kind == "landmarks":
            return self.landmarks
        if kind == "distances":
            return self.distances
        raise ValueError(f"unknown feature kind {kind!r}")


def _neutral_block_sizes(n_targets: int, neutral_fraction: float) -> list[int]:
    """Split the neutral-frame budget into one block per target expression.

    Total neutral count is chosen so neutrals are ``neutral_fraction`` of
    the neutral+target mix (targets counting once per expression).
    """
    if neutral_fraction == 0.0:
        return [0] * n_targets
    total = round(n_targets * neutral_fraction / (1.0 - neutral_fraction))
    base, extra = divmod(total, n_targets)
    return [base + 1 if i < extra else base for i in range(n_targets)]


# role codes of the recorded frames, in the order of ``_ROLES``
_NEUTRAL, _TARGET, _INTERP = range(3)
_ROLES = (ROLE_NEUTRAL, ROLE_TARGET, ROLE_INTERP)


def _schedule(
    targets: np.ndarray, blocks: list[int], window: int, interp_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every recorded frame's command row, in recording order, and its role code."""
    interp = interpolate_rows(targets[:-1], targets[1:], interp_steps)
    rows, roles = [], []
    for i, target in enumerate(targets):
        rows += [np.zeros((blocks[i], N_CHANNELS)), np.broadcast_to(target, (window, N_CHANNELS))]
        roles += [_NEUTRAL] * blocks[i] + [_TARGET] * window
        if i < len(interp):
            rows.append(interp[i])
            roles += [_INTERP] * interp_steps
    return np.concatenate(rows), np.array(roles)


def collect(head: HeadConfig, protocol: CollectionProtocol) -> Dataset:
    """Run the full recording protocol against the simulator.

    Deterministic: the command stream is seeded from ``protocol.rng_seed``,
    observation noise from ``head.rng_seed``, and AU detection noise from
    both.  Stored landmark rows are derotated, aligned to the neutral
    reference, and averaged over each held expression.  The frames go
    through the simulator and the alignment ``CHUNK`` at a time; only the
    aligned target frames and the neutral frames' distances at the AU
    pairs are kept.
    """
    rng_cmd = np.random.default_rng(protocol.rng_seed)
    rng_au = np.random.default_rng([head.rng_seed, protocol.rng_seed, 0xAE])
    n, window = protocol.n_target_frames, protocol.au_window

    # one draw call per target: integers buffers its draws within a call
    targets = np.array([random_command(head, rng_cmd).as_array() for _ in range(n)])
    blocks = _neutral_block_sizes(n, protocol.neutral_fraction)
    schedule, roles = _schedule(targets, blocks, window, protocol.interp_steps)

    reference = center(head.neutral_landmarks)
    readout = AUReadout(head.au_defs)
    sim = HeadSimulator(head)
    target_pts, neutral_dist = [], []
    for start in range(0, len(schedule), CHUNK):
        frames = sim.observe(schedule[start:start + CHUNK])
        role = roles[start:start + CHUNK]
        held = role != _INTERP  # interpolation frames are never aligned
        aligned, _ = procrustes_align(
            derotate(frames.landmarks_observed, frames.pose)[held], reference
        )
        target_pts.append(aligned[role[held] == _TARGET])
        neutral_dist.append(readout.distances(aligned[role[held] == _NEUTRAL]))

    target_pts = np.concatenate(target_pts)
    neutral_dist = np.concatenate(neutral_dist)
    if len(neutral_dist):
        # row after row, as np.mean sums the 2278 columns of full distance
        # rows; a mean over one column would be summed pairwise instead
        baseline = np.add.accumulate(neutral_dist)[-1] / len(neutral_dist)
    else:
        baseline = readout.distances(reference)
    aus = readout.intensities(readout.distances(target_pts), baseline, rng_au)

    landmarks = window_average(target_pts.reshape(n * window, -1), window)
    return Dataset(
        frame_ids=np.arange(n),
        aus=window_average(aus, window),
        landmarks=landmarks,
        distances=pairwise_distances(landmarks.reshape(-1, N_LANDMARKS, 3)),
        commands=targets,
        meta={
            "schema": DATASET_SCHEMA,
            "head_config_sha256": head.sha256(),
            "protocol": protocol.to_dict(),
            "recorded_frames": {
                name: int(np.sum(roles == code)) for code, name in enumerate(_ROLES)
            },
            "n_rows": n,
            "neutral_reference": [[float(c) for c in row] for row in reference],
        },
    )


def split_indices(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle of ``n`` rows, then sorted row-disjoint
    (train, test) index arrays; the test part takes the first
    ``round(n * test_fraction)`` shuffled rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = int(round(n * test_fraction))
    if not 1 <= n_test <= n - 1:
        raise ValueError(f"test_fraction {test_fraction} leaves an empty partition")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle then row-disjoint partition (see :func:`split_indices`)."""
    train_idx, test_idx = split_indices(len(d), test_fraction, seed)

    def take(idx: np.ndarray, part: str) -> Dataset:
        meta = dict(d.meta)
        meta["split"] = {"part": part, "test_fraction": test_fraction, "seed": seed}
        meta["n_rows"] = int(idx.size)
        return Dataset(
            frame_ids=d.frame_ids[idx],
            aus=d.aus[idx],
            landmarks=d.landmarks[idx],
            distances=d.distances[idx],
            commands=d.commands[idx],
            meta=meta,
        )

    return take(train_idx, "train"), take(test_idx, "test")


# -- persistence -----------------------------------------------------------

_COMMAND_COLS = [f"a{ch}" for ch in CHANNELS]
_LANDMARK_COLS = (
    [f"X_{i}" for i in range(N_LANDMARKS)]
    + [f"Y_{i}" for i in range(N_LANDMARKS)]
    + [f"Z_{i}" for i in range(N_LANDMARKS)]
)
_AU_COLS = [f"AU{au:02d}" for au in AU_IDS]
_CSV_HEADER = ["frame_id", "role"] + _COMMAND_COLS + _LANDMARK_COLS + _AU_COLS


def save_dataset(d: Dataset, path: str | Path) -> None:
    """Write a dataset directory (metadata.json + frames.csv)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metadata.json").write_text(json.dumps(d.meta, indent=2, sort_keys=True) + "\n")
    with (out / "frames.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for frame_id, command, lm_row, aus in zip(d.frame_ids, d.commands, d.landmarks, d.aus):
            row = [int(frame_id), ROLE_TARGET] + [int(v) for v in command]
            # X_0..X_67, Y_0..Y_67, Z_0..Z_67
            row += [repr(float(v)) for v in lm_row.reshape(N_LANDMARKS, 3).T.ravel()]
            row += [repr(float(v)) for v in aus]
            writer.writerow(row)


def load_dataset(path: str | Path, head: HeadConfig | None = None) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    If ``head`` is given, warns when the stored head-config hash differs
    from the current configuration.
    """
    root = Path(path)
    meta_path = root / "metadata.json"
    csv_path = root / "frames.csv"
    if not meta_path.exists() or not csv_path.exists():
        raise DatasetCorruptError(f"{root} is not a dataset directory")
    meta = json.loads(meta_path.read_text())
    if meta.get("schema") != DATASET_SCHEMA:
        raise UnsupportedVersionError(
            f"dataset schema {meta.get('schema')!r} not supported (want {DATASET_SCHEMA})"
        )
    try:
        ref = np.asarray(meta.get("neutral_reference"), dtype=float)
        ref_ok = ref.shape == (N_LANDMARKS, 3) and bool(np.isfinite(ref).all())
    except (TypeError, ValueError):
        ref_ok = False
    if not ref_ok:
        raise DatasetCorruptError(
            f"{meta_path}: neutral_reference is not a finite ({N_LANDMARKS}, 3) array"
        )

    if head is not None and head.sha256() != meta.get("head_config_sha256"):
        warnings.warn(
            "dataset was collected under a different head configuration",
            ProvenanceWarning,
            stacklevel=2,
        )

    frame_ids, command_rows, au_rows, lm_rows = [], [], [], []
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetCorruptError(f"{csv_path} is empty") from None
        if header != _CSV_HEADER:
            raise DatasetCorruptError(f"{csv_path} has an unexpected column layout")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(_CSV_HEADER):
                raise DatasetCorruptError(f"{csv_path}:{line_no}: truncated row")
            try:
                frame_id = int(row[0])
                role = row[1]
                cmd_vals = [int(v) for v in row[2:2 + len(CHANNELS)]]
                floats = [float(v) for v in row[2 + len(CHANNELS):]]
            except ValueError as e:
                raise DatasetCorruptError(f"{csv_path}:{line_no}: {e}") from None
            if role != ROLE_TARGET:
                raise DatasetCorruptError(
                    f"{csv_path}:{line_no}: dataset rows must have role 'target'"
                )
            if not all(COMMAND_MIN <= v <= COMMAND_MAX for v in cmd_vals):
                raise DatasetCorruptError(
                    f"{csv_path}:{line_no}: command value outside "
                    f"[{COMMAND_MIN}, {COMMAND_MAX}]"
                )
            lm_xyz = np.array(floats[: 3 * N_LANDMARKS]).reshape(3, N_LANDMARKS)
            frame_ids.append(frame_id)
            command_rows.append(cmd_vals)
            lm_rows.append(lm_xyz.T.reshape(-1))
            au_rows.append(floats[3 * N_LANDMARKS:])

    if len(frame_ids) != meta.get("n_rows"):
        raise DatasetCorruptError(
            f"{csv_path} has {len(frame_ids)} rows, metadata says {meta.get('n_rows')}"
        )

    landmarks = np.asarray(lm_rows)
    return Dataset(
        frame_ids=np.array(frame_ids, dtype=int),
        aus=np.array(au_rows, dtype=float),
        landmarks=landmarks,
        distances=pairwise_distances(landmarks.reshape(-1, N_LANDMARKS, 3)),
        commands=np.array(command_rows, dtype=float),
        meta=meta,
    )


# -- OpenFace 2.0 CSV ingestion ---------------------------------------------

@dataclass
class HumanFrame:
    """One tracked frame of a human face (OpenFace 2.0 FeatureExtraction),
    or a stack of n frames: every field then gains a leading axis of n."""

    landmarks: np.ndarray  # (68, 3) mm, camera frame
    aus: np.ndarray        # (17,) intensities in [0, 5]
    pose: Pose
    timestamp: float       # or an (n,) array
    confidence: float      # or an (n,) array

    @classmethod
    def stack(cls, frames: list["HumanFrame"]) -> "HumanFrame":
        """Stack a nonempty list of single frames into one n-frame stack."""
        if not frames:
            raise ValueError("a HumanFrame stack needs at least one frame")
        return cls(
            landmarks=np.stack([f.landmarks for f in frames]),
            aus=np.stack([f.aus for f in frames]),
            pose=Pose(
                rotation=np.stack([f.pose.rotation for f in frames]),
                translation=np.stack([f.pose.translation for f in frames]),
            ),
            timestamp=np.array([f.timestamp for f in frames], dtype=float),
            confidence=np.array([f.confidence for f in frames], dtype=float),
        )


_OPENFACE_AU_COLS = [f"AU{au:02d}_r" for au in AU_IDS]
_OPENFACE_POSE_COLS = ["pose_Tx", "pose_Ty", "pose_Tz", "pose_Rx", "pose_Ry", "pose_Rz"]
# The order a row's cells are read in: confidence first, so a low-confidence
# row is skipped unparsed; an unparsable row names its first bad cell in it.
_OPENFACE_READ_COLS = (
    ["confidence"] + _LANDMARK_COLS + _OPENFACE_AU_COLS
    + [f"pose_R{ax}" for ax in "xyz"] + [f"pose_T{ax}" for ax in "xyz"] + ["timestamp"]
)


def parse_openface_lines(
    lines: Iterable[str],
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
    source: str = "<stream>",
) -> Iterator[HumanFrame]:
    """Parse OpenFace 2.0 FeatureExtraction CSV lines into HumanFrames, lazily.

    Requires 3D landmark columns (``X_0..Z_67``), the 17 AU intensity
    columns (``AU01_r..AU45_r``), pose, timestamp and confidence.  Rows
    under the confidence threshold are dropped.  Header names may carry
    OpenFace's leading spaces.  Each frame is yielded as soon as its line
    is read; errors name ``source`` and the line number.
    """
    required = (
        ["timestamp", "confidence"]
        + _OPENFACE_POSE_COLS
        + _LANDMARK_COLS
        + _OPENFACE_AU_COLS
    )
    reader = csv.reader(lines)
    try:
        raw_header = next(reader)
    except StopIteration:
        raise OpenFaceFormatError(f"{source}: empty file") from None
    header = [h.strip() for h in raw_header]
    col = {name: i for i, name in enumerate(header)}
    missing = [name for name in required if name not in col]
    if missing:
        raise OpenFaceFormatError(f"{source}: missing required columns {missing}")

    idx = [col[name] for name in _OPENFACE_READ_COLS]
    lm_end = 3 * N_LANDMARKS
    au_end = lm_end + len(AU_IDS)
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            confidence = float(row[idx[0]])
            if confidence < confidence_threshold:
                continue
            vals = [float(row[i]) for i in idx[1:]]
        except (ValueError, IndexError):
            for name, i in zip(_OPENFACE_READ_COLS, idx):
                try:
                    float(row[i])
                except (ValueError, IndexError):
                    raise OpenFaceFormatError(
                        f"{source}:{line_no}: unparsable value for column {name!r}"
                    ) from None
        yield HumanFrame(
            landmarks=np.array(vals[:lm_end]).reshape(3, N_LANDMARKS).T.copy(),
            aus=np.clip(vals[lm_end:au_end], 0.0, 5.0),
            pose=Pose(rotation=vals[au_end:au_end + 3], translation=vals[au_end + 3:au_end + 6]),
            timestamp=vals[-1],
            confidence=confidence,
        )


def ingest_openface_csv(
    path: str | Path, confidence_threshold: float = CONFIDENCE_THRESHOLD
) -> list[HumanFrame]:
    """Parse an OpenFace 2.0 FeatureExtraction CSV file into HumanFrames.

    See :func:`parse_openface_lines` for the columns and the filtering.
    """
    with Path(path).open(newline="") as fh:
        return list(parse_openface_lines(fh, confidence_threshold, source=str(path)))
