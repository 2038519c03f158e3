"""End-use retargeting flows.

A :class:`PipelineModel` bundles everything needed to turn one facial
observation into one actuator command: feature kind (plus the kept AU
subset), MinMax statistics on the robot side (and, after calibration, the
human side), the PCA basis, the regressor, and the neutral landmark
reference used for alignment.

Flows:

* ``facs_target`` + ``express`` - synthesize a basic-emotion expression by
  maximizing its FACS action units within the training range.
* ``retarget_frame`` / ``stream`` - map tracked human frames onto commands,
  with MinMax distribution matching and hold-last gap filling.
"""

from __future__ import annotations

import functools
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analysis import PRUNE_THRESHOLD, low_correlation_features, pearson_matrix
from .dataset import (
    CONFIDENCE_THRESHOLD,
    Dataset,
    HumanFrame,
    _check_confidence_threshold,
    split_indices,
)
from .errors import (
    AlignmentDegenerateError,
    CalibrationRequiredError,
    ConfigError,
    InvalidCommandError,
    OpenFaceFormatError,
)
from .features import (
    AU_IDS,
    AU_INDEX,
    FEATURE_KINDS,
    N_AUS,
    MinMaxStats,
    fit_minmax,
)
from .geometry import (
    N_LANDMARKS,
    center,
    pairwise_distances,
    procrustes_align,
)
from .learn import (
    DEFAULT_EPOCHS,
    DEFAULT_PCA_CANDIDATES,
    HyperGrid,
    LinearModel,
    MlpModel,
    PcaModel,
    TARGET_SCALE,
    choose_pca_dim,
    default_grid,
    grid_search,
    mlp_fit,
    ols_fit,
    pca_fit,
    pca_transform,
    ridge_fit,
    rmse,
    run_layers,
    rung_epochs,
)
from .records import from_json, read_json, to_json
from .simulator import CHANNELS, COMMAND_MAX, COMMAND_MIN, N_CHANNELS, ActuatorCommand

REGRESSORS = ("ols", "ridge", "mlp")

# PCA dimension of the landmark representation
LANDMARK_PCA_DIM = 17

# Share of the training rows that fit_pipeline holds out to validate the
# distance PCA dimension scan (without a tune_dataset) and the MLP grid.
VALIDATION_FRACTION = 0.25

# Maximized action units per basic emotion.
EMOTIONS = {
    "anger": (4, 7, 23),
    "disgust": (9, 15),
    "fear": (1, 2, 4, 5, 7, 20, 26),
    "happy": (6, 12),
    "sadness": (1, 4, 15),
    "surprise": (1, 2, 5, 26),
}

# What the AUs an emotion does not maximize take in a FACS target.
FILL_MODES = ("min", "zero")

# The words of a data error about a frame with a non-finite input.
_UNREAD = "non-finite value in an input the {} model reads"


def facs_target(
    emotion: str,
    au_stats: MinMaxStats,
    fill_mode: str = "min",
) -> np.ndarray:
    """Build the 17-dim AU target for an emotion.

    Maximized AUs take their training maximum; the rest take the training
    minimum (``"min"``) or zero (``"zero"``, the legacy behaviour).
    Staying inside the observed training range keeps the regressor from
    extrapolating.
    """
    try:
        maximized = EMOTIONS[emotion.lower()]
    except KeyError:
        raise ValueError(
            f"unknown emotion {emotion!r}; expected one of {sorted(EMOTIONS)}"
        ) from None
    if fill_mode not in FILL_MODES:
        raise ValueError(f"fill_mode must be one of {FILL_MODES}")
    if au_stats.dim != len(AU_IDS):
        raise ValueError("au_stats must cover all 17 AUs")

    target = au_stats.mins.copy() if fill_mode == "min" else np.zeros(len(AU_IDS))
    for au in maximized:
        target[AU_INDEX[au]] = au_stats.maxs[AU_INDEX[au]]
    return target


def command_from_raw(raw: np.ndarray) -> ActuatorCommand | np.ndarray:
    """Round raw 9-vector predictions and clip them into the command range:
    one (9,) row gives an ActuatorCommand, (n, 9) rows give (n, 9) ints.

    Infinite values clip to the range ends; a NaN raises
    InvalidCommandError naming its channel.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim > 1:
        _check_not_nan(raw)
        return np.clip(np.floor(raw + 0.5), COMMAND_MIN, COMMAND_MAX).astype(int)
    if raw.shape != (N_CHANNELS,):
        raise InvalidCommandError(f"expected {N_CHANNELS} values, got {raw.shape}")
    # one row in Python floats, in one pass: inside the range int() is the
    # floor; a NaN fails both comparisons, then int().  The dict is every
    # channel in order, each an int in range, so the command is built
    # without ActuatorCommand's re-check of that.
    try:
        values = {
            ch: COMMAND_MIN if (u := v + 0.5) < COMMAND_MIN
            else COMMAND_MAX if u >= COMMAND_MAX
            else int(u)
            for ch, v in zip(CHANNELS, raw.tolist())
        }
    except ValueError:
        _check_not_nan(raw)
        raise
    return ActuatorCommand._unchecked(values)


def _check_not_nan(raw: np.ndarray) -> None:
    """Raise InvalidCommandError naming the channel of the first NaN."""
    nan = np.isnan(raw)
    if nan.any():
        raise InvalidCommandError(
            f"channel {CHANNELS[np.nonzero(nan)[-1][0]]} prediction is NaN"
        )


@dataclass
class PipelineModel:
    """A persisted retargeting model (one feature kind, one regressor).

    What a tracked frame feeds it depends on the kind: the kept AUs (au),
    the tracked landmarks aligned onto ``neutral_reference`` (landmarks),
    or the distances between the tracked landmarks as they are (distances:
    a rigid head motion does not change them, so the reference is not
    read).  No kind reads the tracked head pose: the alignment finds the
    best rotation itself.

    A calibrated model folds the human MinMax map, the PCA projection and
    the regressor into one network when it is built (:meth:`features_raw`).
    ``calibrate_human`` builds a new model, which folds its own; do not
    assign ``human_stats`` in place.  The robot-side :meth:`predict_raw`,
    which :func:`evaluate_pipeline` and :func:`express` call, keeps the
    staged steps, whose outputs the fit and comparison pins hash.
    """

    TAG = ("schema", "pipeline-model/v1")
    RETIRED = ("pruned_aus", "clip_range")

    feature_kind: str
    robot_stats: MinMaxStats
    pca: PcaModel
    regressor: LinearModel | MlpModel
    neutral_reference: np.ndarray
    human_stats: MinMaxStats | None = None
    au_ids_used: tuple[int, ...] | None = None
    au_stats_full: MinMaxStats | None = None
    provenance: dict | None = None

    def __post_init__(self) -> None:
        if self.feature_kind not in FEATURE_KINDS:
            raise ConfigError(f"feature_kind {self.feature_kind!r} is not one of {FEATURE_KINDS}")
        if self.feature_kind == "au" and self.au_ids_used is None:
            raise ConfigError("au-kind model needs au_ids_used")
        if self.au_ids_used is not None and not set(self.au_ids_used) <= set(AU_IDS):
            raise ConfigError(f"au_ids_used {self.au_ids_used} are not all among {AU_IDS}")
        ref = self.neutral_reference
        if ref.shape != (N_LANDMARKS, 3) or not np.isfinite(ref).all():
            raise ConfigError("neutral_reference is not a finite (68, 3) array")
        self._check_widths()
        # columns of the kept AUs among all 17
        self.au_index = (
            np.array([AU_INDEX[a] for a in self.au_ids_used])
            if self.feature_kind == "au" else None
        )
        self.folded = self._fold() if self.human_stats is not None else None

    def _fold(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], str | None]:
        """The MinMax map, the PCA projection and the regressor as one
        network ``raw = run_layers(layers, activation, x - mins)``:
        (mins, layers, activation).  The map and the projection fold into
        the first layer, with an MLP's input standardization; an MLP's
        ``TARGET_SCALE`` folds into its last.  A linear model is one layer.

        The human minimum is subtracted first, as the MinMax map does: after
        a short calibration the human spans are tiny, and folding it into
        the bias would cancel two huge terms.  A degenerate human dimension
        weighs 0 and contributes the robot midpoint, as the map gives it.
        """
        human, robot = self.human_stats, self.robot_stats
        span = human.maxs - human.mins
        degenerate = span == 0.0
        scale = np.where(
            degenerate, 0.0, (robot.maxs - robot.mins) / np.where(degenerate, 1.0, span)
        )
        base = np.where(degenerate, (robot.mins + robot.maxs) / 2.0, robot.mins)
        reg = self.regressor
        if isinstance(reg, LinearModel):
            layers, activation = [(reg.weights.T, reg.intercept)], None
        else:
            layers = [(w.T, b) for w, b in zip(reg.weights, reg.biases)]
            activation = reg.activation
            layers[-1] = layers[-1][0] * TARGET_SCALE, layers[-1][1] * TARGET_SCALE
            w = layers[0][0] / reg.input_scale[:, None]
            layers[0] = w, layers[0][1] - reg.input_mean @ w
        w, b = layers[0]
        projection = self.pca.components.T @ w  # (d, width)
        # F-ordered, like every later layer's ``w.T``, so that one frame takes
        # BLAS's matrix-vector path without a transpose
        layers[0] = (np.asfortranarray(scale[:, None] * projection),
                     (base - self.pca.mean) @ projection + b)
        return human.mins, layers, activation

    def _check_widths(self) -> None:
        """Raise ConfigError unless the parts agree on their widths, so a
        mismatched model file fails when it loads, not deep in a flow."""
        pca = self.pca
        reg = self.regressor
        layers = reg.weights if isinstance(reg, MlpModel) else [reg.weights]
        checks = [
            ("robot_stats.dim", self.robot_stats.dim, "pca.n_features", pca.n_features),
            ("regressor input width", layers[0].shape[-1], "pca.k", pca.k),
            ("regressor output width", layers[-1].shape[0], "channel count", N_CHANNELS),
        ]
        if self.human_stats is not None:
            checks.append(
                ("human_stats.dim", self.human_stats.dim, "pca.n_features", pca.n_features)
            )
        if self.feature_kind == "au":
            checks.append(
                ("len(au_ids_used)", len(self.au_ids_used), "pca.n_features", pca.n_features)
            )
            if self.au_stats_full is not None:
                checks.append(("au_stats_full.dim", self.au_stats_full.dim, "AU count", N_AUS))
        bad = [f"{a} {x} != {b} {y}" for a, x, b, y in checks if x != y]
        if bad:
            raise ConfigError("inconsistent model: " + "; ".join(bad))

    @property
    def pruned_aus(self) -> tuple[int, ...] | None:
        """AU ids dropped from an au-kind model's inputs, in AU order."""
        if self.au_ids_used is None:
            return None
        return tuple(a for a in AU_IDS if a not in self.au_ids_used)

    # -- feature plumbing --------------------------------------------------

    def dataset_features(self, d: Dataset) -> np.ndarray:
        """Model-space features for dataset rows (already aligned)."""
        if self.feature_kind == "au":
            return d.aus[:, self.au_index]
        return d.features(self.feature_kind)

    def frame_features(self, frame: HumanFrame) -> np.ndarray:
        """Model-space features for one tracked human frame, (d,), or for a
        stack of n frames, (n, d).

        Only the landmarks kind aligns, the tracked landmarks as they are,
        and raises AlignmentDegenerateError on a collinear set, after the
        frame's CSV source and line when it was parsed.  Derotating them by
        the tracked pose first would change the aligned set only by
        rounding (within 1e-12 relative): the alignment finds the best
        rotation itself.  Distances are measured on the tracked landmarks:
        the distances of the aligned set equal them up to the same
        rounding, so aligning first would only cost time.
        """
        if self.feature_kind == "au":
            return frame.aus.take(self.au_index, axis=-1)
        if self.feature_kind == "distances":
            return pairwise_distances(frame.landmarks)
        try:
            aligned, _ = procrustes_align(frame.landmarks, self.neutral_reference)
        except AlignmentDegenerateError as err:
            raise AlignmentDegenerateError(f"{frame.location(err.index)}{err}", err.index) from None
        return aligned.reshape(aligned.shape[:-2] + (-1,))

    def reads_finite(self, frame: HumanFrame) -> np.ndarray:
        """Per frame, whether every input the model reads is finite: the
        kept AUs for the au kind, the landmarks for the other two.  A 0-d
        bool for one frame, an (n,) bool array for a stack."""
        if self.feature_kind == "au":
            return np.isfinite(frame.aus[..., self.au_index]).all(axis=-1)
        return np.isfinite(frame.landmarks).all(axis=(-2, -1))

    def usable_features(
        self, frame: HumanFrame
    ) -> tuple[np.ndarray | None, int | None, str | AlignmentDegenerateError | None]:
        """The features of a tracked frame, (d,), or of a stack, (n, d), and
        the first frame the model cannot use and the words why, or the
        located AlignmentDegenerateError: (features, i, why), i and why None
        when it can use every frame.  The first of these to hold over the
        stack names its first frame: (1) an input the model reads is not
        finite (:meth:`reads_finite`); (2) a landmarks model meets collinear
        landmarks; (3) the features are not finite (the squares in a
        distance overflow past about 1e154 mm).  The features are None after
        (1) or (2).  Every input an au or a distances model reads reaches
        its features (the kept AUs are them; each landmark ends 67
        distances), so one check of the features finds (1) and (3)."""
        kind = self.feature_kind
        if kind == "landmarks":  # non-finite landmarks align to NaN, with warnings
            i = _first_false(self.reads_finite(frame))
            if i is not None:
                return None, i, _UNREAD.format(kind)
            try:
                features = self.frame_features(frame)
            except AlignmentDegenerateError as err:
                return None, err.index, err
        else:
            features = self.frame_features(frame)
        i = _first_nonfinite(features)
        if i is None:
            return features, None, None
        if kind != "landmarks":  # a non-finite input comes first
            j = i if kind == "au" else _first_false(self.reads_finite(frame))
            if j is not None:
                return None, j, _UNREAD.format(kind)
        return features, i, f"non-finite {kind} features computed from its inputs"

    def predict_raw(self, features: np.ndarray) -> np.ndarray:
        """Unrounded command predictions for model-space feature rows."""
        z = pca_transform(self.pca, features)
        return self.regressor.predict(z)

    def _check_calibrated(self) -> None:
        """Raise CalibrationRequiredError unless the model folded human stats."""
        if self.folded is None:
            raise CalibrationRequiredError(
                "model has no human MinMax stats; run calibrate_human first"
            )

    def features_raw(self, features: np.ndarray) -> np.ndarray:
        """Unrounded commands, (9,) or (n, 9), of a calibrated model for the
        features of a tracked frame, (d,), or of a stack, (n, d): MinMax-map
        the human range onto the robot range, project by the PCA, regress,
        as one folded network (``folded``).  It equals the staged steps
        within 1e-9 relative for a linear model, and within 1e-12 of a row's
        largest value for an MLP.  An uncalibrated model raises
        CalibrationRequiredError."""
        if self.folded is None:
            self._check_calibrated()
        mins, layers, activation = self.folded
        return run_layers(layers, activation, features - mins)


def _first_false(ok: np.ndarray) -> int | None:
    """Index of the first False of ``ok`` (one bool per frame), or None."""
    if ok.ndim == 0:  # one frame: its truth is faster than .all()
        return None if ok else 0
    return None if ok.all() else int(np.argmin(ok))


def _first_nonfinite(rows: np.ndarray) -> int | None:
    """Index of the first of ``rows`` (one per frame) holding a non-finite
    value, or None."""
    if rows.ndim == 1 and len(rows) <= 32:  # faster as Python floats than by numpy
        return None if all(map(math.isfinite, rows.tolist())) else 0
    return _first_false(np.isfinite(rows).all(axis=-1))


def save_model(model: PipelineModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json(model)) + "\n")


def load_model(path: str | Path) -> PipelineModel:
    return from_json(PipelineModel, read_json(path), str(path))


# -- fitting ----------------------------------------------------------------


def fit_pipeline(
    train: Dataset,
    kind: str,
    regressor: str = "ols",
    ridge_lambda: float = 1.0,
    pca_k: int | None = None,
    pca_candidates: Sequence[int] = DEFAULT_PCA_CANDIDATES,
    tune_dataset: Dataset | None = None,
    grid: HyperGrid | None = None,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
) -> PipelineModel:
    """Train a full retargeting pipeline on a dataset.

    Feature handling per kind:

    * ``au``: AUs with no usable actuator correlation on the training set
      (``analysis.PRUNE_THRESHOLD``) are dropped; PCA keeps full rank, so
      it is a pure rotation.
    * ``landmarks``: PCA to ``pca_k`` (default ``LANDMARK_PCA_DIM``).
    * ``distances``: PCA dimension tuned over ``pca_candidates`` against
      ``tune_dataset`` (a seeded ``VALIDATION_FRACTION`` of the training
      rows when none is given), using a linear readout.

    ``regressor`` is one of ``ols``, ``ridge``, ``mlp``; the MLP variant
    grid-searches over ``grid`` by successive halving (see
    :func:`~headlearn.learn.grid_search`; ``provenance["grid_search"]``
    records the rule and its rungs), validated on a seeded
    ``VALIDATION_FRACTION`` of the training rows, then refits the winning
    configuration on the full training set.
    """
    if kind not in FEATURE_KINDS:
        raise ConfigError(f"unknown feature kind {kind!r}")
    if regressor not in REGRESSORS:
        raise ConfigError(f"unknown regressor {regressor!r}")

    y = train.commands
    au_ids_used = None
    au_stats_full = None

    if kind == "au":
        pruned = low_correlation_features(pearson_matrix(train.commands, train.aus))
        au_ids_used = tuple(a for a in AU_IDS if a not in pruned)
        if not au_ids_used:
            raise ConfigError(
                f"all AUs were pruned: none correlates with an actuator at "
                f"|r| >= {PRUNE_THRESHOLD}"
            )
        idx = [AU_INDEX[a] for a in au_ids_used]
        x = train.aus[:, idx]
        au_stats_full = fit_minmax(train.aus)
    else:
        x = train.features(kind)

    # choose the PCA dimension
    pca = None
    if pca_k is None:
        if kind == "distances":
            if tune_dataset is None:
                fit_idx, val_idx = split_indices(len(x), VALIDATION_FRACTION, seed + 1)
                scan = x[fit_idx], y[fit_idx], x[val_idx], y[val_idx]
                pca_k = choose_pca_dim(*scan, pca_candidates)[0]
            else:  # the scan fits on x itself: its first pca_k axes are the pipeline's
                scan = x, y, tune_dataset.features(kind), tune_dataset.commands
                pca_k, _, pca, z = choose_pca_dim(*scan, pca_candidates)
                pca = PcaModel(pca.mean, pca.components[:pca_k].copy(),
                               pca.explained_variance_ratio[:pca_k].copy())
                z = np.ascontiguousarray(z[:, :pca_k])
        elif kind == "landmarks":
            pca_k = LANDMARK_PCA_DIM
        else:
            pca_k = x.shape[1]  # full-rank rotation over the kept AUs
    if pca is None:
        pca = pca_fit(x, min(pca_k, x.shape[1], x.shape[0] - 1))
        z = pca_transform(pca, x)

    if regressor == "ols":
        reg = ols_fit(z, y)
    elif regressor == "ridge":
        reg = ridge_fit(z, y, ridge_lambda)
    else:
        grid = grid if grid is not None else default_grid()
        try:
            tr_idx, val_idx = split_indices(len(z), VALIDATION_FRACTION, seed + 2)
        except ValueError:
            raise ConfigError(
                f"the MLP grid search's validation split ({VALIDATION_FRACTION:.0%} of "
                f"the training rows) is empty on {len(z)} training rows"
            ) from None
        best, _ = grid_search(
            z[tr_idx], y[tr_idx], z[val_idx], y[val_idx],
            grid, epochs=epochs, seed=seed,
        )
        h = best.hyper
        reg = mlp_fit(
            z, y,
            hidden_layers=h["hidden_layers"],
            activation=h["activation"],
            learning_rate=h["learning_rate"],
            epochs=h["epochs"],
            l2=h["l2"],
            seed=h["seed"],
        )

    provenance = {
        "dataset_head_sha256": train.record.head_config_sha256,
        "dataset_split": to_json(train.record.split) if train.record.split else None,
        "seed": seed,
        "regressor": regressor,
    }
    if regressor == "mlp":
        provenance["grid_search"] = {
            "rule": "successive halving: each rung trains on a quarter as many points "
                    "as the rung before, rounded up, best first",
            "rung_epochs": rung_epochs(epochs),
        }
    return PipelineModel(
        feature_kind=kind,
        robot_stats=fit_minmax(x),
        pca=pca,
        regressor=reg,
        # centred once more (a shift of up to 1e-14 mm), as models have always stored it
        neutral_reference=center(train.record.neutral_reference),
        au_ids_used=au_ids_used,
        au_stats_full=au_stats_full,
        provenance=provenance,
    )


def evaluate_pipeline(model: PipelineModel, d: Dataset) -> np.ndarray:
    """Per-channel RMSE of raw (unrounded) predictions on a dataset."""
    pred = model.predict_raw(model.dataset_features(d))
    return rmse(pred, d.commands)


# -- end-use flows ------------------------------------------------------------


def express(model: PipelineModel, au_target: np.ndarray) -> ActuatorCommand:
    """Predict the command for a 17-dim AU target (robot AU scale)."""
    if model.feature_kind != "au":
        raise ConfigError(f"express needs an au-kind model, got {model.feature_kind!r}")
    target = np.asarray(au_target, dtype=float)
    if target.shape != (len(AU_IDS),):
        raise ValueError("au_target must have 17 entries")
    return command_from_raw(model.predict_raw(target[model.au_index]))


def calibrate_human(model: PipelineModel, frames: Iterable[HumanFrame]) -> PipelineModel:
    """Fit human-side MinMax stats from a recording and attach them.

    The recording should cover neutral plus expressive frames so the
    observed range spans the actor's expression space.  The frames go
    through the model as one stack.  The first frame the model cannot use
    (:meth:`PipelineModel.usable_features`) raises OpenFaceFormatError
    naming its index and timestamp, after its CSV source and line when it
    was parsed (collinear landmarks: AlignmentDegenerateError after them).
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("calibration needs at least 2 frames")
    features, i, why = model.usable_features(HumanFrame.stack(frames))
    if why is not None:
        raise _frame_error(
            why, f"{frames[i].location()}calibration frame {i} (timestamp {frames[i].timestamp})"
        )
    return replace(model, human_stats=fit_minmax(features))


def retarget_frame(
    model: PipelineModel, frame: HumanFrame
) -> ActuatorCommand | np.ndarray:
    """Map one tracked human frame onto an actuator command, or a stack of
    n frames onto (n, 9) int command rows: the
    :meth:`PipelineModel.features_raw` prediction, rounded and clipped.

    A model without human stats raises CalibrationRequiredError.  The first
    frame the model cannot use (:meth:`PipelineModel.usable_features`), or
    else the first whose prediction is not finite, raises
    OpenFaceFormatError naming its timestamp, after its CSV source and line
    when it was parsed (collinear landmarks: AlignmentDegenerateError after
    them); :func:`stream` holds each such frame.
    """
    model._check_calibrated()
    features, i, why = model.usable_features(frame)
    if why is None:
        raw = model.features_raw(features)
        i = _first_nonfinite(raw)
        if i is None:
            return command_from_raw(raw)
        why = f"non-finite command prediction from its {model.feature_kind} features"
    raise _frame_error(
        why, f"{frame.location(i)}frame at timestamp {float(np.atleast_1d(frame.timestamp)[i])}"
    )


def _frame_error(why: str | AlignmentDegenerateError, name: str) -> Exception:
    """The located AlignmentDegenerateError as it is, or else the words
    ``why`` as an OpenFaceFormatError after ``name``, the frame's words."""
    if isinstance(why, AlignmentDegenerateError):
        return why
    return OpenFaceFormatError(f"{name}: {why}")


def stream(
    model: PipelineModel,
    frames: Iterable[HumanFrame],
    smoothing_window: int = 1,
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
) -> Iterator[ActuatorCommand]:
    """Per-frame retargeting with trailing smoothing and hold-last gaps.

    Emits exactly one command per input frame.  Frames under the
    confidence threshold (or with a NaN confidence), and the frames
    :func:`retarget_frame` raises on (see
    :meth:`PipelineModel.usable_features`, and a non-finite prediction),
    repeat the previously emitted command (the neutral command before any
    frame passed); other frames enter a trailing moving average of raw
    predictions of length ``smoothing_window`` before rounding.

    A model without human stats raises CalibrationRequiredError when the
    first frame arrives, before any command is emitted; a NaN threshold
    raises ValueError.
    """
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be >= 1")
    _check_confidence_threshold(confidence_threshold)
    # the last raw predictions, summed oldest first from 0.0: the sum
    # np.add.reduce makes of the rows of an array (-0.0 columns sum to 0.0)
    window = deque(maxlen=smoothing_window)
    last = ActuatorCommand.neutral()
    for frame in frames:
        model._check_calibrated()
        # a NaN confidence counts as low
        if frame.confidence >= confidence_threshold:
            features, _, why = model.usable_features(frame)
            if why is None:
                raw = model.features_raw(features)
                if _first_nonfinite(raw) is None:
                    window.append(raw)
                    last = command_from_raw(functools.reduce(np.add, window, 0.0) / len(window))
        yield last
