"""Dataset collection against the simulator, persistence, and CSV ingestion.

Collection protocol per target expression: a block of neutral frames
(sized so neutrals make up ``neutral_fraction`` of the neutral+target mix),
then the expression held for ``au_window`` frames, then ``interp_steps``
interpolation frames easing toward the next expression.  Neutral and
interpolation frames are recorded (and counted) but never become dataset
rows; each held expression collapses to exactly one row whose AU and
landmark features are the window means.

Persistence format: a directory holding ``metadata.json``, the
:class:`DatasetMeta` record written and read by :mod:`records`, plus
``frames.csv`` with columns
``frame_id, role, a1,a4,a5,a6,a7,a8,a9,a10,a11, X_0..X_67, Y_0..Y_67,
Z_0..Z_67, AU01..AU45``.
Distance features are not stored; they are recomputed from the stored
aligned landmarks on load.  Loading checks the record against its
protocol and every row against the record; each error names the file,
then the key path or the line.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    DatasetCorruptError,
    OpenFaceFormatError,
    ProtocolError,
    ProvenanceWarning,
)
from .features import AU_IDS, AUReadout, window_average
from .geometry import N_LANDMARKS, center, pairwise_distances, procrustes_align
from .records import FieldError, from_json, read_json, to_json
from .simulator import (
    CHANNELS,
    COMMAND_MAX,
    COMMAND_MIN,
    N_CHANNELS,
    HeadConfig,
    HeadSimulator,
    interpolate_rows,
)

ROLE_TARGET = "target"

# Default share of the rows a seeded split holds out for testing.
TEST_FRACTION = 0.2

# Default tracker confidence under which an OpenFace row is not used.
CONFIDENCE_THRESHOLD = 0.8

# Frames :func:`collect` observes and aligns per step.  A (68, 3) frame is
# 1.6 kB, so a block of 256 spreads numpy's per-call cost over frames that
# still fit in cache; ``geometry.CHUNK`` (4) is sized for the 55 kB per set
# that each temporary of ``pairwise_distances`` takes instead.
COLLECT_BLOCK = 256

# Rows :func:`save_dataset` converts and writes per step: a row's text is
# about 4.2 kB, so a block's text and Python numbers stay under 1 MB.
SAVE_BLOCK = 64


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
        if self.rng_seed < 0:
            raise ProtocolError("rng_seed must be >= 0")

    def to_dict(self) -> dict:
        return to_json(self)


@dataclass
class RecordedFrames:
    """How many frames of each role a collection recorded."""

    neutral: int
    target: int
    interp: int


@dataclass
class DatasetSplit:
    """Which part of a seeded :func:`split` a dataset is."""

    part: str
    test_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if self.part not in ("train", "test"):
            raise ValueError(f"split part {self.part!r} is not 'train' or 'test'")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class DatasetMeta:
    """The ``metadata.json`` record of a dataset, consistent with its protocol."""

    TAG = ("schema", "dataset/v1")

    head_config_sha256: str
    protocol: CollectionProtocol
    recorded_frames: RecordedFrames
    n_rows: int
    neutral_reference: np.ndarray  # (68, 3), the rows were aligned to it
    split: DatasetSplit | None = None

    def __post_init__(self) -> None:
        ref = self.neutral_reference
        if ref.shape != (N_LANDMARKS, 3) or not np.isfinite(ref).all():
            raise FieldError(f"neutral_reference: not a finite ({N_LANDMARKS}, 3) array")
        p, s = self.protocol, self.split
        rows = p.n_target_frames
        if s is not None:  # the part's share, train first
            try:
                rows = _split_sizes(rows, s.test_fraction)[s.part == "test"]
            except ValueError as e:
                raise FieldError(f"split: {e}") from None
        if self.n_rows != rows:
            raise FieldError(f"n_rows: {self.n_rows}, but the protocol and split give {rows}")
        implied = RecordedFrames(
            neutral=_neutral_total(p.n_target_frames, p.neutral_fraction),
            target=p.n_target_frames * p.au_window,
            interp=(p.n_target_frames - 1) * p.interp_steps,
        )
        if self.recorded_frames != implied:
            raise FieldError(f"recorded_frames: {to_json(self.recorded_frames)}, "
                             f"but the protocol records {to_json(implied)}")


@dataclass
class Dataset:
    """Target rows with all three feature representations, plus provenance."""

    frame_ids: np.ndarray    # (n,) int index of each row's held expression
    aus: np.ndarray          # (n, 17)
    landmarks: np.ndarray    # (n, 204) flattened aligned landmarks
    distances: np.ndarray    # (n, 2278) recomputed from `landmarks`
    commands: np.ndarray     # (n, 9) float copies of the integer commands
    record: DatasetMeta

    def __len__(self) -> int:
        return len(self.frame_ids)

    @property
    def meta(self) -> dict:
        """The ``metadata.json`` document of this dataset, without null entries:
        a dataset that is not a split part has no ``split`` key."""
        return {key: value for key, value in to_json(self.record).items() if value is not None}

    def features(self, kind: str) -> np.ndarray:
        if kind == "au":
            return self.aus
        if kind == "landmarks":
            return self.landmarks
        if kind == "distances":
            return self.distances
        raise ValueError(f"unknown feature kind {kind!r}")


def _neutral_total(n_targets: int, neutral_fraction: float) -> int:
    """The neutral-frame budget: neutrals make up ``neutral_fraction`` of
    the neutral+target mix (targets counting once per expression)."""
    if neutral_fraction == 0.0:
        return 0
    return round(n_targets * neutral_fraction / (1.0 - neutral_fraction))


def _neutral_block_sizes(n_targets: int, neutral_fraction: float) -> list[int]:
    """Split the neutral-frame budget into one block per target expression."""
    base, extra = divmod(_neutral_total(n_targets, neutral_fraction), n_targets)
    return [base + 1 if i < extra else base for i in range(n_targets)]


# role codes of the recorded frames, in the field order of ``RecordedFrames``
_NEUTRAL, _TARGET, _INTERP = range(3)


def _schedule(
    targets: np.ndarray, blocks: list[int], window: int, interp_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every recorded frame's command row, in recording order, and its role code."""
    n = len(targets)
    interp = interpolate_rows(targets[:-1], targets[1:], interp_steps).reshape(-1, N_CHANNELS)
    # segments in role-code order per target (its neutral block, its held
    # window, the interpolation to the next target), and the frames of each
    lengths = np.column_stack([blocks, np.full(n, window), np.full(n, interp_steps)])
    lengths = lengths.ravel()[:-1]  # no interpolation after the last target
    segment = np.repeat(np.arange(len(lengths)), lengths)
    roles, target = segment % 3, segment // 3
    step = np.arange(len(segment)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    # rows: a zero row, then the targets, then the interpolation rows
    source = np.choose(roles, [0, 1 + target, 1 + n + target * interp_steps + step])
    return np.concatenate([np.zeros((1, N_CHANNELS)), targets, interp])[source], roles


def collect(head: HeadConfig, protocol: CollectionProtocol) -> Dataset:
    """Run the full recording protocol against the simulator.

    Deterministic: the command stream is seeded from ``protocol.rng_seed``,
    observation noise from ``head.rng_seed``, and AU detection noise from
    both.  Stored landmark rows are the observed landmarks of the target
    frames, aligned to the neutral reference as they are (the alignment
    finds the head's rotation itself), and averaged over each held
    expression.  The AU baseline is the mean of the neutral frames'
    distances, measured on their observed landmarks: a distance does not
    change under the head's pose.  Under a head with
    ``sensor_lag_frames`` = ``lag`` > 0, the first ``lag`` frames of each
    held window still show the commands of the ``lag`` frames recorded
    before it (the neutral block's, where that block holds at least
    ``lag`` frames), and they enter the row's average like the rest of
    the window.  The frames go through the simulator ``COLLECT_BLOCK`` at
    a time; only the aligned target frames and the neutral frames'
    distances at the AU pairs are kept.
    """
    rng_cmd = np.random.default_rng(protocol.rng_seed)
    rng_au = np.random.default_rng([head.rng_seed, protocol.rng_seed, 0xAE])
    n, window = protocol.n_target_frames, protocol.au_window

    targets = rng_cmd.integers(COMMAND_MIN, COMMAND_MAX + 1, size=(n, N_CHANNELS)).astype(float)
    blocks = _neutral_block_sizes(n, protocol.neutral_fraction)
    schedule, roles = _schedule(targets, blocks, window, protocol.interp_steps)

    reference = center(head.neutral_landmarks)
    readout = AUReadout(head.au_defs)
    sim = HeadSimulator(head)
    target_pts, neutral_dist = [], []
    for start in range(0, len(schedule), COLLECT_BLOCK):
        frames = sim.observe(schedule[start:start + COLLECT_BLOCK])
        role = roles[start:start + COLLECT_BLOCK]
        observed = frames.landmarks_observed
        target_pts.append(procrustes_align(observed[role == _TARGET], reference)[0])
        neutral_dist.append(readout.distances(observed[role == _NEUTRAL]))

    target_pts = np.concatenate(target_pts)
    neutral_dist = np.concatenate(neutral_dist)
    baseline = neutral_dist.mean(axis=0) if len(neutral_dist) else readout.distances(reference)
    aus = readout.intensities(readout.distances(target_pts), baseline, rng_au)

    landmarks = window_average(target_pts.reshape(n * window, -1), window)
    return Dataset(
        frame_ids=np.arange(n),
        aus=window_average(aus, window),
        landmarks=landmarks,
        distances=pairwise_distances(landmarks.reshape(-1, N_LANDMARKS, 3)),
        commands=targets,
        record=DatasetMeta(
            head_config_sha256=head.sha256(),
            protocol=protocol,
            recorded_frames=RecordedFrames(*np.bincount(roles, minlength=3).tolist()),
            n_rows=n,
            neutral_reference=reference,
        ),
    )


def _split_sizes(n: int, test_fraction: float) -> tuple[int, int]:
    """(train, test) row counts of a split of ``n`` rows; ValueError when
    either part would be empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = int(round(n * test_fraction))
    if not 1 <= n_test <= n - 1:
        raise ValueError(f"test_fraction {test_fraction} leaves an empty partition")
    return n - n_test, n_test


def split_indices(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform shuffle of ``n`` rows, then sorted row-disjoint
    (train, test) index arrays; the test part takes the first
    ``round(n * test_fraction)`` shuffled rows."""
    n_test = _split_sizes(n, test_fraction)[1]
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle then row-disjoint partition (see :func:`split_indices`)
    of a dataset that is not a split part itself."""
    if d.record.split is not None:
        raise ValueError(f"the dataset is already the {d.record.split.part} part of a split")
    train_idx, test_idx = split_indices(len(d), test_fraction, seed)

    def take(idx: np.ndarray, part: str) -> Dataset:
        return Dataset(
            frame_ids=d.frame_ids[idx],
            aus=d.aus[idx],
            landmarks=d.landmarks[idx],
            distances=d.distances[idx],
            commands=d.commands[idx],
            record=replace(
                d.record, split=DatasetSplit(part, test_fraction, seed), n_rows=int(idx.size)
            ),
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
# the landmark and AU columns, parsed as floats by numpy
_FLOAT_COLS = list(range(2 + N_CHANNELS, len(_CSV_HEADER)))


def save_dataset(d: Dataset, path: str | Path) -> None:
    """Write a dataset directory (metadata.json + frames.csv)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metadata.json").write_text(json.dumps(d.meta, indent=2, sort_keys=True) + "\n")
    xyz = d.landmarks.reshape(len(d), N_LANDMARKS, 3).transpose(0, 2, 1)  # X_*, Y_*, Z_*: a view
    frame_ids = d.frame_ids.tolist()
    with (out / "frames.csv").open("w", newline="") as fh:
        fh.write(",".join(_CSV_HEADER) + "\r\n")
        # a block of rows at a time: one conversion of its cells to Python
        # numbers and one write, without holding the whole file's text
        for start in range(0, len(d), SAVE_BLOCK):
            rows = slice(start, start + SAVE_BLOCK)
            cells = np.concatenate([xyz[rows].reshape(-1, 3 * N_LANDMARKS), d.aus[rows]], axis=1)
            fh.write("".join(
                ",".join([str(frame_id), ROLE_TARGET, *map(str, command), *map(repr, values)])
                + "\r\n"
                for frame_id, command, values in zip(
                    frame_ids[rows], d.commands[rows].astype(int).tolist(), cells.tolist())
            ))


def load_dataset(path: str | Path, head: HeadConfig | None = None) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`.

    If ``head`` is given, warns when the stored head-config hash differs
    from the current configuration.

    The landmark and AU cells of all rows are parsed by one numpy call, so
    they follow numpy's number syntax: a quoted number, a digit separator
    (``1_0``) and non-ASCII digits are unparsable.  The frame id and the
    commands are read by ``int()``.  LF and CRLF files load alike.  The
    first faulty row, in line order, names its line: a truncated (or
    blank) row, or its first unparsable cell; then the row count is
    checked, then the roles, the command range and finiteness.  A file
    that is not UTF-8 text names the line of its first undecodable byte.
    """
    root = Path(path)
    meta_path = root / "metadata.json"
    csv_path = root / "frames.csv"
    if not meta_path.exists() or not csv_path.exists():
        raise DatasetCorruptError(f"{root} is not a dataset directory")
    try:
        record = from_json(DatasetMeta, read_json(meta_path, DatasetCorruptError), str(meta_path))
    except ConfigError as e:
        raise DatasetCorruptError(str(e)) from None

    if head is not None and head.sha256() != record.head_config_sha256:
        warnings.warn(
            "dataset was collected under a different head configuration",
            ProvenanceWarning,
            stacklevel=2,
        )

    with open_utf8(csv_path, DatasetCorruptError) as fh:  # LF and CRLF read alike
        header = next(fh, None)
        if header is None:
            raise DatasetCorruptError(f"{csv_path} is empty")
        if header.rstrip("\n").split(",") != _CSV_HEADER:
            raise DatasetCorruptError(f"{csv_path} has an unexpected column layout")
        frame_ids, roles, commands = [], [], []

        def rows() -> Iterator[tuple[int, str]]:
            """Each data line, once its frame id, role and commands are read."""
            for line_no, line in enumerate(fh, start=2):
                if line.count(",") != len(_CSV_HEADER) - 1:
                    raise DatasetCorruptError(f"{csv_path}:{line_no}: truncated row")
                frame_id, role, *command = line.split(",", 2 + N_CHANNELS)[:2 + N_CHANNELS]
                try:
                    frame_ids.append(int(frame_id))
                    commands.append(list(map(int, command)))
                except ValueError as e:
                    raise DatasetCorruptError(f"{csv_path}:{line_no}: {e}") from None
                roles.append(role)
                yield line_no, line

        try:
            cells, _ = _parse_rows(rows(), _FLOAT_COLS)
        except _UnparsableCell as e:
            cell = e.line.rstrip("\n").split(",")[_FLOAT_COLS[e.at]]
            raise DatasetCorruptError(
                f"{csv_path}:{e.line_no}: could not convert string to float: {cell!r}"
            ) from None

    n = len(frame_ids)
    if n != record.n_rows:
        raise DatasetCorruptError(f"{csv_path} has {n} rows, metadata says {record.n_rows}")
    commands = np.array(commands)
    for bad, first, problem in (  # each flags cells of the columns from _CSV_HEADER[first] on
        (np.array(roles)[:, None] != ROLE_TARGET, 1, "dataset rows must have role 'target'"),
        ((commands < COMMAND_MIN) | (commands > COMMAND_MAX), 2,
         f"command value outside [{COMMAND_MIN}, {COMMAND_MAX}] in column {{}}"),
        (~np.isfinite(cells), 2 + N_CHANNELS, "non-finite value in column {}"),
    ):
        if bad.any():
            i, j = divmod(int(np.flatnonzero(bad)[0]), bad.shape[1])
            column = repr(_CSV_HEADER[first + j])
            raise DatasetCorruptError(f"{csv_path}:{i + 2}: " + problem.format(column))

    xyz = cells[:, :3 * N_LANDMARKS].reshape(n, 3, N_LANDMARKS)
    landmarks = xyz.transpose(0, 2, 1).reshape(n, -1)
    return Dataset(
        frame_ids=np.array(frame_ids),
        aus=cells[:, 3 * N_LANDMARKS:].copy(),
        landmarks=landmarks,
        distances=pairwise_distances(landmarks.reshape(n, N_LANDMARKS, 3)),
        commands=commands.astype(float),
        record=record,
    )


# -- OpenFace 2.0 CSV ingestion ---------------------------------------------

@dataclass
class HumanFrame:
    """One tracked frame of a human face (OpenFace 2.0 FeatureExtraction),
    or a stack of n frames: every field then gains a leading axis of n.

    ``source`` and ``line`` say where a parsed frame was read: the CSV's
    name and the frame's line number (an (n,) int array for a stack).  A
    frame built in code leaves both None, as does a stack whose frames
    come from different sources.
    """

    landmarks: np.ndarray  # (68, 3) mm, camera frame
    aus: np.ndarray        # (17,) intensities in [0, 5]
    timestamp: float       # or an (n,) array
    confidence: float      # or an (n,) array
    source: str | None = None
    line: int | np.ndarray | None = None

    @classmethod
    def stack(cls, frames: list["HumanFrame"]) -> "HumanFrame":
        """Stack a nonempty list of single frames into one n-frame stack."""
        if not frames:
            raise ValueError("a HumanFrame stack needs at least one frame")
        source = frames[0].source
        located = source is not None and all(
            f.source == source and f.line is not None for f in frames
        )
        return cls(
            landmarks=np.stack([f.landmarks for f in frames]),
            aus=np.stack([f.aus for f in frames]),
            timestamp=np.array([f.timestamp for f in frames], dtype=float),
            confidence=np.array([f.confidence for f in frames], dtype=float),
            source=source if located else None,
            line=np.array([f.line for f in frames]) if located else None,
        )

    def location(self, i: int = 0) -> str:
        """``"<source>:<line>: "`` of the frame (frame ``i`` of a stack), the
        prefix of a data error about it; empty when it was not parsed."""
        if self.source is None or self.line is None:
            return ""
        return f"{self.source}:{np.atleast_1d(self.line)[i]}: "


_OPENFACE_AU_COLS = [f"AU{au:02d}_r" for au in AU_IDS]
_OPENFACE_TAIL_COLS = _OPENFACE_AU_COLS + ["timestamp"]
# The columns of the parsed value array, in its order: the landmarks point
# by point, so that a frame's (68, 3) landmarks are a view of its row, then
# the AUs, the timestamp and the confidence.
_OPENFACE_VALUE_COLS = (
    [f"{ax}_{i}" for i in range(N_LANDMARKS) for ax in "XYZ"] + _OPENFACE_TAIL_COLS
    + ["confidence"]
)
# The order a row's cells are read in, as columns of the value array:
# confidence first, so a low-confidence row is skipped unparsed; an
# unparsable row names its first bad cell in it.
_OPENFACE_READ_ORDER = [
    _OPENFACE_VALUE_COLS.index(name)
    for name in ["confidence"] + _LANDMARK_COLS + _OPENFACE_TAIL_COLS
]
_AUS_AT = slice(3 * N_LANDMARKS, 3 * N_LANDMARKS + len(AU_IDS))
_TIMESTAMP_AT = _AUS_AT.stop
_CONFIDENCE_AT = _TIMESTAMP_AT + 1


@functools.lru_cache(maxsize=8)
def _header_columns(raw_header: str) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The column map of a header line: the file's column index of each
    column of the value array (``_OPENFACE_VALUE_COLS``), and the required
    columns it lacks (the map is then empty).

    Cached by the line's text, as tuples nobody can change: the files of
    one tracker share their header, so each distinct one is mapped once.
    """
    col = {h.strip(): i for i, h in enumerate(raw_header.split(","))}
    required = ["timestamp", "confidence"] + _LANDMARK_COLS + _OPENFACE_AU_COLS
    missing = tuple(name for name in required if name not in col)
    if missing:
        return (), missing
    return tuple(col[name] for name in _OPENFACE_VALUE_COLS), ()


def _openface_columns(rows: Iterator[str], source: str) -> tuple[tuple[int, ...], int]:
    """Read the header line off ``rows``; return its column map
    (:func:`_header_columns`) and its cell count, or raise naming ``source``."""
    try:
        raw_header = next(rows)
    except StopIteration:
        raise OpenFaceFormatError(f"{source}: empty file") from None
    usecols, missing = _header_columns(raw_header)
    if missing:
        raise OpenFaceFormatError(f"{source}: missing required columns {list(missing)}")
    return usecols, raw_header.count(",") + 1


def _check_confidence_threshold(threshold: float) -> None:
    """Reject a NaN confidence threshold: every comparison with it is
    false, so ingestion would keep every row and ``stream`` hold every one.
    An infinite threshold is valid (CLI ``stream`` parses with ``-inf``)."""
    if threshold != threshold:
        raise ValueError("confidence threshold must be a number, got nan")


def _confident_rows(
    rows: Iterator[str],
    confidence_at: int,
    n_cells: int,
    confidence_threshold: float,
    source: str,
) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of each data row to convert.

    Only the confidence cell is read: a row under the threshold (NaN reads
    as 0.0) and a blank row are skipped, unchecked.  A row whose confidence
    cell is not a number is kept, for the converter to name.  A kept row
    must have ``n_cells`` cells, the header's count: a cell inserted or
    dropped would shift every later column, so such a row raises
    OpenFaceFormatError naming ``source`` and its line.
    """
    for line_no, line in enumerate(rows, start=2):
        try:
            confidence = float(line.split(",", confidence_at + 1)[confidence_at])
        except (ValueError, IndexError):
            if not line.replace(",", "").strip():  # a blank line, or one of blank cells
                continue
            try:  # numpy also reads a number padded with \x1c-\x1f
                confidence = float(_loadtxt([line], [confidence_at])[0, 0])
            except ValueError:
                confidence = confidence_threshold  # kept: the converter names the cell
        if confidence != confidence:  # NaN: the tracker has no confidence
            confidence = 0.0
        if confidence < confidence_threshold:
            continue
        cells = line.count(",") + 1
        if cells != n_cells:
            raise OpenFaceFormatError(
                f"{source}:{line_no}: {cells} cells, the header has {n_cells}"
            )
        yield line_no, line


def _loadtxt(lines: Iterable[str], usecols: Sequence[int]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)


class _UnparsableCell(ValueError):
    """A cell numpy cannot parse: column ``at`` of the value array, in the
    row ``line`` on line ``line_no``."""

    def __init__(self, at: int, line_no: int, line: str):
        super().__init__(f"line {line_no}: unparsable value in column {at}")
        self.at, self.line_no, self.line = at, line_no, line


def _parse_rows(
    rows: Iterable[tuple[int, str]], usecols: Sequence[int], order: Iterable[int] | None = None
) -> tuple[np.ndarray, list[int]]:
    """The ``usecols`` cells of ``(line number, line)`` rows as one (n,
    len(usecols)) float array, parsed by one numpy call, and the rows' line
    numbers.

    The rows stream through the parser, so their text is never held whole.
    numpy converts each row as it reads it, so when a cell does not parse
    the row read last is the first bad one: its cells are re-read one at a
    time, in ``order`` (columns of the value array, left to right by
    default), and the first that fails raises :class:`_UnparsableCell`.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:  # numpy would warn that the input holds no data
        return np.empty((0, len(usecols))), []
    line_nos: list[int] = []
    line = ""

    def lines() -> Iterator[str]:
        nonlocal line
        for line_no, line in itertools.chain([first], rows):
            line_nos.append(line_no)
            yield line

    try:
        return _loadtxt(lines(), usecols), line_nos
    except UnicodeDecodeError:  # the file is not text: no cell to name
        raise
    except ValueError:
        for at in range(len(usecols)) if order is None else order:
            try:
                _loadtxt([line], [usecols[at]])
            except ValueError:
                raise _UnparsableCell(at, line_nos[-1], line) from None
        raise


def _openface_frames(
    kept: Iterable[tuple[int, str]], usecols: Sequence[int], source: str
) -> list[HumanFrame]:
    """Convert kept rows to frames with one numpy parse (:func:`_parse_rows`).

    The read cells of every row become one (n, 223) array, in
    ``_OPENFACE_VALUE_COLS`` order; each frame's landmarks and AUs are
    views of its row, its timestamp and confidence floats read from it.
    The frames are built from whole-array pieces (the landmark block as one
    (n, 68, 3) view, the AU block, one ``tolist`` per scalar column), not
    row by row.  If a cell does not parse, the error names the first such
    row and its first bad cell in ``_OPENFACE_READ_ORDER``.
    """
    try:
        values, line_nos = _parse_rows(kept, usecols, _OPENFACE_READ_ORDER)
    except _UnparsableCell as e:
        raise OpenFaceFormatError(
            f"{source}:{e.line_no}: unparsable value for column {_OPENFACE_VALUE_COLS[e.at]!r}"
        ) from None
    aus = values[:, _AUS_AT]
    np.clip(aus, 0.0, 5.0, out=aus)
    confidence = values[:, _CONFIDENCE_AT]
    confidence[np.isnan(confidence)] = 0.0  # the tracker has no confidence
    landmarks = values[:, :_AUS_AT.start].reshape(len(values), N_LANDMARKS, 3)
    return [
        HumanFrame(landmarks=lm, aus=au, timestamp=t, confidence=c, source=source, line=line_no)
        for lm, au, t, c, line_no in zip(
            landmarks, aus, values[:, _TIMESTAMP_AT].tolist(), confidence.tolist(), line_nos
        )
    ]


def parse_openface_lines(
    lines: Iterable[str],
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
    source: str = "<stream>",
) -> Iterator[HumanFrame]:
    """Parse OpenFace 2.0 FeatureExtraction CSV lines into HumanFrames, lazily.

    Requires 3D landmark columns (``X_0..Z_67``), the 17 AU intensity
    columns (``AU01_r..AU45_r``), timestamp and confidence.  Rows
    under the confidence threshold are dropped unparsed and unchecked; a
    NaN confidence reads as 0.0, a frame the tracker has no confidence in,
    and a NaN threshold raises ValueError.  Every other row must have as
    many cells as the header, or OpenFaceFormatError names its line and
    both counts.  Header names may carry OpenFace's leading spaces.
    Each frame is yielded as soon as its line is read, with ``source`` and
    its line number; errors name both.

    Each kept line is converted on its own by the parser
    :func:`ingest_openface_csv` runs once per file (``numpy.loadtxt`` on
    the columns above), so other columns may hold anything.  Blank lines
    (and lines of blank cells) are skipped, and CRLF endings are accepted.
    Cells are not unquoted: OpenFace writes none, and a quoted number is an
    unparsable value, as are digit separators (``1_0``) and non-ASCII digits.
    """
    _check_confidence_threshold(confidence_threshold)
    rows = iter(lines)
    usecols, n_cells = _openface_columns(rows, source)
    for row in _confident_rows(
        rows, usecols[_CONFIDENCE_AT], n_cells, confidence_threshold, source
    ):
        yield from _openface_frames([row], usecols, source)


def ingest_openface_csv(
    path: str | Path, confidence_threshold: float = CONFIDENCE_THRESHOLD
) -> list[HumanFrame]:
    """Parse an OpenFace 2.0 FeatureExtraction CSV file into HumanFrames.

    All kept rows are converted by one numpy parse; see
    :func:`parse_openface_lines` for the columns, the filtering, the cell
    count and the cell syntax, which are the same.  The file is read as
    UTF-8 text (an undecodable byte names its line) with translated
    newlines: CR, LF and CRLF each end a line, as they do untranslated, and
    each line then ends in LF, which Python reads about three times faster
    than an untranslated line.
    """
    _check_confidence_threshold(confidence_threshold)
    source = str(path)
    with open_utf8(path, OpenFaceFormatError) as fh:
        usecols, n_cells = _openface_columns(fh, source)
        kept = _confident_rows(fh, usecols[_CONFIDENCE_AT], n_cells, confidence_threshold, source)
        return _openface_frames(kept, usecols, source)


@contextlib.contextmanager
def open_utf8(path: str | Path, error: type[Exception]) -> Iterator[TextIO]:
    """Open a file as UTF-8 text, with universal newlines.

    A byte that does not decode raises ``error`` as ``<path>:<line>: not
    UTF-8 text``.  Only then is the file read again, as bytes, to count the
    lines before that byte as a text read counts them (LF, CR and CRLF each
    end one).
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as e:
            # the byte after the prefix joins the prefix's last line, or starts one
            line = len((data[:e.start] + b"x").splitlines())
            raise error(f"{path}:{line}: not UTF-8 text") from None
        raise error(f"{path}: not UTF-8 text") from None  # it changed since it was read
