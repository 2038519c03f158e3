"""The three benchmark workloads: ``record``, ``train`` and ``live``.

Each workload is built from a seed and a scratch directory, sets itself up
with :meth:`setup`, and runs one closed-loop pass over its inputs with
:meth:`run_pass`.  A pass returns its wall time, the stage timings and
output digest it produced, and the output checks that failed.  Passes read
time from :func:`clock`, which the benchmark replaces by a clock that stands
still while it times its reference computation.  All calls
into headlearn go through module attributes (``dataset.collect``, not an
imported ``collect``) so that :mod:`spans` can wrap them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from headlearn import analysis, dataset, default_head, features, geometry, learn
from headlearn import retarget, simulator

# The reduced MLP grid of the ``train`` workload: every (depth, width,
# activation) shape is shared by four (learning rate, l2) points, as in the
# default grid, with both depths and both activations present.
TRAIN_GRID = dict(
    depths=[1, 2],
    widths=[32],
    activations=["tanh", "relu"],
    learning_rates=[1e-2, 1e-3],
    l2s=[0.0, 1e-3],
)
TRAIN_EPOCHS = 1000
TEST_FRACTION = 0.2

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass did, how long it took, and which checks failed."""

    seconds: float
    attempted: int
    failed: int
    digest: str
    stages: dict[str, float] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _digest(arrays: list[np.ndarray], extra: object = None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    if extra is not None:
        h.update(json.dumps(extra, sort_keys=True).encode())
    return h.hexdigest()


def _protocol(n_rows: int, seed: int) -> dataset.CollectionProtocol:
    return dataset.CollectionProtocol(
        n_target_frames=n_rows, neutral_fraction=0.75, interp_steps=4,
        au_window=7, rng_seed=seed,
    )


def _expected_counts(p: dataset.CollectionProtocol) -> dict[str, int]:
    n = p.n_target_frames
    return {
        "neutral": round(n * p.neutral_fraction / (1.0 - p.neutral_fraction)),
        "target": n * p.au_window,
        "interp": (n - 1) * p.interp_steps,
    }


# -- record ---------------------------------------------------------------------

class Record:
    """Collect the default 500-row protocol, then save and reload it.

    Set-up loads the head and warms every code path of a pass with a
    50-row collect, save and load, so that the first timed pass pays no
    first-call costs.
    """

    name = "record"
    setup_repeats = 5
    probe = ("simulator", "HeadSimulator.observe", 200)
    warmup_rows = 50

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.protocol = _protocol(500, seed)

    def params(self) -> dict:
        return {
            "protocol": self.protocol.to_dict(),
            "expected_frames": _expected_counts(self.protocol),
        }

    def setup(self) -> None:
        self.head = default_head.load_default_head()
        self.path = self.workdir / "dataset"
        warm = dataset.collect(self.head, _protocol(self.warmup_rows, self.seed))
        dataset.save_dataset(warm, self.path)
        dataset.load_dataset(self.path)

    def run_pass(self) -> PassResult:
        t0 = clock()
        d = dataset.collect(self.head, self.protocol)
        t1 = clock()
        dataset.save_dataset(d, self.path)
        loaded = dataset.load_dataset(self.path)
        t2 = clock()

        errors = []
        counts = d.meta["recorded_frames"]
        if counts != _expected_counts(self.protocol):
            errors.append(f"recorded frame counts {counts}")
        if len(d) != self.protocol.n_target_frames:
            errors.append(f"{len(d)} dataset rows")
        arrays = ("aus", "landmarks", "distances", "commands")
        for name in arrays:
            if not np.array_equal(getattr(d, name), getattr(loaded, name)):
                errors.append(f"loaded {name} differ from the saved ones")
        return PassResult(
            seconds=t2 - t0,
            attempted=3,
            failed=0,
            digest=_digest([getattr(d, n) for n in arrays], counts),
            stages={"collect_s": t1 - t0, "persist_s": t2 - t1},
            facts={"recorded_frames": counts, "rows": len(d)},
            errors=errors,
        )


# -- train ----------------------------------------------------------------------

class Train:
    """Three OLS pipelines, then the four-way comparison on a reduced grid."""

    name = "train"
    setup_repeats = 2
    probe = ("learn", "mlp_fit", 1)
    kinds = ("au", "landmarks", "distances")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.protocol = _protocol(500, seed)

    def params(self) -> dict:
        return {
            "protocol": self.protocol.to_dict(),
            "test_fraction": TEST_FRACTION,
            "split_seed": self.seed,
            "grid": TRAIN_GRID,
            "grid_points": len(learn.HyperGrid(**TRAIN_GRID).points()),
            "epochs": TRAIN_EPOCHS,
            "pca_candidates": list(learn.DEFAULT_PCA_CANDIDATES),
        }

    def setup(self) -> None:
        head = default_head.load_default_head()
        self.data = dataset.collect(head, self.protocol)
        self.train, self.test = dataset.split(self.data, TEST_FRACTION, self.seed)

    def run_pass(self) -> PassResult:
        t0 = clock()
        fit_rmse = []
        for kind in self.kinds:
            model = retarget.fit_pipeline(self.train, kind, regressor="ols", seed=self.seed)
            fit_rmse.append(retarget.evaluate_pipeline(model, self.test))
        t1 = clock()
        report = analysis.compare_representations(
            self.data, split_seed=self.seed, test_fraction=TEST_FRACTION,
            grid=learn.HyperGrid(**TRAIN_GRID), epochs=TRAIN_EPOCHS,
        )
        t2 = clock()

        fit_rmse = np.array(fit_rmse)
        means = dict(zip(report.columns, (float(v) for v in report.column_means())))
        errors = []
        if not (np.all(np.isfinite(fit_rmse)) and np.all(np.isfinite(report.values))):
            errors.append("non-finite test RMSE")
        facts = {
            "rmse": {f"rmse_{c}": v for c, v in means.items()},
            "fit_rmse": {k: float(r.mean()) for k, r in zip(self.kinds, fit_rmse)},
            "distance_pca_dim": report.distance_pca_dim,
            "mlp_hyper": report.mlp_hyper,
            "pruned_aus": report.pruned_aus,
        }
        return PassResult(
            seconds=t2 - t0,
            attempted=len(self.kinds) + 1,
            failed=0,
            digest=_digest([fit_rmse, report.values], facts),
            stages={"fit_s": t1 - t0, "compare_s": t2 - t1},
            facts=facts,
            errors=errors,
        )


# -- live -----------------------------------------------------------------------

# The simulated actor: a face of other proportions and stronger movements
# than the robot's, seen through noisier landmarks, wider pose jitter and a
# camera 450 mm away, so MinMax calibration has real work to do.
ACTOR = dict(
    face_scale=[1.06, 0.96, 1.03],
    movement_scale=1.15,
    landmark_noise_sigma=0.2,
    pose_jitter_max_rotation=0.2,
    pose_jitter_max_translation=15.0,
    camera_offset_mm=[0.0, 0.0, 450.0],
)
LIVE = dict(
    model_rows=250,
    calibration_frames=400,
    frames=1200,
    clip_frames=50,
    hold_frames=8,
    interp_steps=4,
    smoothing_window=3,
    confidence_threshold=0.8,
    low_confidence_share=0.10,
    # of confident rows, per kind of cell, rounded and at least one row;
    # each injected row sits alone in its clip, at a fixed row of the clip,
    # so the frames a failed clip leaves unemitted do not depend on the seed
    nonfinite_share=0.001,
    nonfinite_row_in_clip=37,
)
STREAM_KINDS = ("distances", "au")
LANDMARK_COLS = [f"{ax}_{i}" for ax in "XYZ" for i in range(geometry.N_LANDMARKS)]
AU_COLS = [f"AU{au:02d}_r" for au in features.AU_IDS]
CSV_HEADER = (
    ["frame", "timestamp", "confidence"]
    + [f"pose_T{ax}" for ax in "xyz"] + [f"pose_R{ax}" for ax in "xyz"]
    + LANDMARK_COLS + AU_COLS
)


def _actor_head(seed: int) -> simulator.HeadConfig:
    robot = default_head.load_default_head()
    s = np.array(ACTOR["face_scale"])
    k = ACTOR["movement_scale"]
    acts = [
        dataclasses.replace(a, basis=[
            (i, x * k * s[0], y * k * s[1], z * k * s[2]) for i, x, y, z in a.basis
        ])
        for a in robot.actuators
    ]
    return dataclasses.replace(
        robot,
        neutral_landmarks=robot.neutral_landmarks * s,
        actuators=acts,
        landmark_noise_sigma=ACTOR["landmark_noise_sigma"],
        pose_jitter_max_rotation=ACTOR["pose_jitter_max_rotation"],
        pose_jitter_max_translation=ACTOR["pose_jitter_max_translation"],
        rng_seed=seed,
    )


def _actor_rows(actor: simulator.HeadConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` tracked frames of the actor as OpenFace columns, without frame
    number, timestamp and confidence: pose T, pose R, X, Y, Z, AUs."""
    sim = simulator.HeadSimulator(actor, rng)
    reference = geometry.center(actor.neutral_landmarks)
    baseline = geometry.pairwise_distances(reference)
    offset = np.array(ACTOR["camera_offset_mm"])
    commands = []
    prev = simulator.ActuatorCommand.neutral()
    while len(commands) < n:
        target = simulator.random_command(actor, rng)
        commands += simulator.interpolate_commands(prev, target, LIVE["interp_steps"])
        commands += [target] * LIVE["hold_frames"]
        prev = target
    rows = []
    for cmd in commands[:n]:
        frame = sim.observe(cmd)
        face = geometry.derotate(frame.landmarks_observed, frame.pose)
        aligned, _ = geometry.procrustes_align(face, reference)
        aus = features.extract_aus(actor.au_defs, aligned, baseline, rng)
        pts = frame.landmarks_observed + offset
        rows.append(np.concatenate([
            frame.pose.translation + offset, frame.pose.rotation,
            pts[:, 0], pts[:, 1], pts[:, 2], aus,
        ]))
    return np.array(rows)


def _write_csv(path: Path, rows: np.ndarray, confidence: np.ndarray, first: int) -> None:
    lines = [", ".join(CSV_HEADER)]
    for i, (row, conf) in enumerate(zip(rows, confidence)):
        n = first + i
        cells = [str(n), repr(n / 30.0), repr(float(conf))]
        cells += [repr(float(v)) for v in row]
        lines.append(", ".join(cells))
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Clip:
    path: Path
    n: int
    confident: np.ndarray        # (n,) bool
    nonfinite: dict[str, set]    # stream kind -> in-clip rows that kind reads as non-finite


class Live:
    """Two calibrated models stream OpenFace CSV clips of a simulated actor."""

    name = "live"
    setup_repeats = 2
    probe = ("dataset", "ingest_openface_csv", 1)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.protocol = _protocol(LIVE["model_rows"], seed)

    def params(self) -> dict:
        return {"protocol": self.protocol.to_dict(), "actor": ACTOR, "live": LIVE,
                "stream_kinds": list(STREAM_KINDS)}

    def setup(self) -> None:
        head = default_head.load_default_head()
        data = dataset.collect(head, self.protocol)
        models = {
            kind: retarget.fit_pipeline(data, kind, regressor="ols", seed=self.seed)
            for kind in STREAM_KINDS
        }

        rng = np.random.default_rng([self.seed, 0x11FE])
        actor = _actor_head(self.seed)
        n_cal, n = LIVE["calibration_frames"], LIVE["frames"]
        rows = _actor_rows(actor, n_cal + n, rng)
        self.workdir.mkdir(parents=True, exist_ok=True)
        cal_path = self.workdir / "calibration.csv"
        _write_csv(cal_path, rows[:n_cal], np.full(n_cal, 0.95), 0)
        rows = rows[n_cal:]

        # non-finite cells, each on a confident row of its own clip and in a
        # column its model reads (pruned AUs are not read)
        clip_n = LIVE["clip_frames"]
        n_low = round(n * LIVE["low_confidence_share"])
        k = max(1, round(LIVE["nonfinite_share"] * (n - n_low)))
        clips = rng.choice(n // clip_n, size=2 * k, replace=False)
        picked = clips * clip_n + LIVE["nonfinite_row_in_clip"]
        bad = {"au": sorted(picked[:k].tolist()), "distances": sorted(picked[k:].tolist())}
        lm0, au0 = 6, 6 + len(LANDMARK_COLS)
        read_aus = [features.AU_INDEX[a] for a in models["au"].au_ids_used]
        for r in bad["au"]:
            rows[r, au0 + read_aus[rng.integers(len(read_aus))]] = np.nan
        for r in bad["distances"]:
            rows[r, lm0 + rng.integers(len(LANDMARK_COLS))] = np.nan

        # confidence: a fixed share of the other rows under the threshold
        confidence = rng.uniform(0.85, 0.99, size=n)
        low = rng.choice(np.setdiff1d(np.arange(n), picked), size=n_low, replace=False)
        confidence[low] = rng.uniform(0.1, 0.7, size=low.size)
        confident = confidence >= LIVE["confidence_threshold"]
        self.injected = {kind: len(v) for kind, v in bad.items()}

        clip_dir = self.workdir / "clips"
        clip_dir.mkdir(exist_ok=True)
        self.clips = []
        for c, start in enumerate(range(0, n, clip_n)):
            stop = min(start + clip_n, n)
            path = clip_dir / f"clip_{c:03d}.csv"
            _write_csv(path, rows[start:stop], confidence[start:stop], n_cal + start)
            self.clips.append(Clip(
                path=path,
                n=stop - start,
                confident=confident[start:stop],
                nonfinite={kind: {r - start for r in v if start <= r < stop}
                           for kind, v in bad.items()},
            ))

        cal_frames = dataset.ingest_openface_csv(
            cal_path, confidence_threshold=LIVE["confidence_threshold"])
        self.models = {kind: retarget.calibrate_human(m, cal_frames)
                       for kind, m in models.items()}

    def _stream_clip(
        self, kind: str, clip: Clip, lat: list[float]
    ) -> tuple[list, str | None, int]:
        """Ingest and stream one clip, timing each ``next()`` into ``lat``.

        Returns the emitted commands, the name of the error that ended the
        stream early (or None) and the number of ingested frames.
        """
        frames = dataset.ingest_openface_csv(clip.path, confidence_threshold=0.0)
        it = retarget.stream(
            self.models[kind], frames,
            smoothing_window=LIVE["smoothing_window"],
            confidence_threshold=LIVE["confidence_threshold"],
        )
        commands = []
        while True:
            t = clock()
            try:
                cmd = next(it)
            except StopIteration:
                return commands, None, len(frames)
            except ValueError as e:  # includes LinAlgError and InvalidCommandError
                return commands, type(e).__name__, len(frames)
            lat.append(clock() - t)
            commands.append(cmd)

    def run_pass(self, kinds: tuple[str, ...] = STREAM_KINDS) -> PassResult:
        errors, stages, facts, emitted = [], {}, {}, []
        attempted = failed = 0
        for kind in kinds:
            lat: list[float] = []
            stats = {"frames_in": 0, "held": 0, "failed": 0, "failed_clips": 0,
                     "failed_if_each_injected_row_ends_its_clip": 0}
            seconds = 0.0  # ingest and stream only, not the checks
            for clip in self.clips:
                t = clock()
                commands, error, n_frames = self._stream_clip(kind, clip, lat)
                seconds += clock() - t
                k = len(commands)
                if n_frames != clip.n:
                    errors.append(f"{clip.path.name}: ingested {n_frames} of {clip.n} rows")
                stats["frames_in"] += clip.n
                stats["held"] += int(np.sum(~clip.confident[:k]))
                if clip.nonfinite[kind]:
                    stats["failed_if_each_injected_row_ends_its_clip"] += (
                        clip.n - min(clip.nonfinite[kind]))
                if error is not None:
                    stats["failed"] += clip.n - k
                    stats["failed_clips"] += 1
                    if k not in clip.nonfinite[kind]:
                        errors.append(f"{kind} stream of {clip.path.name} failed at "
                                      f"row {k} with {error}, not at an injected row")
                elif k != clip.n:
                    errors.append(f"{kind} stream of {clip.path.name} emitted "
                                  f"{k} commands for {clip.n} frames")
                for cmd in commands:
                    vals = cmd.values
                    if sorted(vals) != sorted(simulator.CHANNELS) or not all(
                        type(v) is int and 0 <= v <= 255 for v in vals.values()
                    ):
                        errors.append(f"{kind} stream emitted an invalid command {vals}")
                        break
                    emitted.append([vals[ch] for ch in simulator.CHANNELS])
            stages[f"stream_{kind}_s"] = seconds
            stats["emitted"] = stats["frames_in"] - stats["failed"]
            facts[kind] = stats
            facts[f"{kind}_latencies_s"] = lat
            attempted += stats["frames_in"]
            failed += stats["failed"]
        facts["injected_nonfinite_rows"] = self.injected
        summary = {kind: facts[kind] for kind in kinds}
        return PassResult(
            seconds=sum(stages.values()),
            attempted=attempted,
            failed=failed,
            digest=_digest([np.array(emitted, dtype=np.int64)], summary),
            stages=stages,
            facts=facts,
            errors=errors,
        )


WORKLOADS = {w.name: w for w in (Record, Train, Live)}
