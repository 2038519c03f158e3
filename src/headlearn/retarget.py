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

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .analysis import PRUNE_THRESHOLD, low_correlation_features, pearson_matrix
from .dataset import CONFIDENCE_THRESHOLD, Dataset, HumanFrame, split_indices
from .errors import (
    CalibrationRequiredError,
    ConfigError,
    InvalidCommandError,
    OpenFaceFormatError,
    UnsupportedVersionError,
)
from .features import (
    AU_IDS,
    AU_INDEX,
    FEATURE_KINDS,
    N_AUS,
    MinMaxStats,
    fit_minmax,
    minmax_map,
)
from .geometry import (
    N_LANDMARKS,
    center,
    derotate,
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
    choose_pca_dim,
    default_grid,
    grid_search,
    mlp_fit,
    ols_fit,
    pca_fit,
    pca_transform,
    ridge_fit,
    rmse,
)
from .simulator import CHANNELS, COMMAND_MAX, COMMAND_MIN, N_CHANNELS, ActuatorCommand

MODEL_SCHEMA = "pipeline-model/v1"

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
    nan = np.isnan(raw)
    if nan.any():
        raise InvalidCommandError(
            f"channel {CHANNELS[np.nonzero(nan)[-1][0]]} prediction is NaN"
        )
    rows = np.clip(np.floor(raw + 0.5), COMMAND_MIN, COMMAND_MAX).astype(int)
    return ActuatorCommand.from_array(rows) if rows.ndim == 1 else rows


@dataclass
class PipelineModel:
    """A persisted retargeting model (one feature kind, one regressor)."""

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
            raise ConfigError(f"unknown feature kind {self.feature_kind!r}")
        if self.feature_kind == "au" and self.au_ids_used is None:
            raise ConfigError("au-kind model needs au_ids_used")
        self._check_widths()
        # columns of the kept AUs among all 17
        self.au_index = (
            np.array([AU_INDEX[a] for a in self.au_ids_used])
            if self.feature_kind == "au" else None
        )

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
        stack of n frames, (n, d)."""
        if self.feature_kind == "au":
            return frame.aus[..., self.au_index]
        face = derotate(frame.landmarks, frame.pose)
        aligned, _ = procrustes_align(face, self.neutral_reference)
        if self.feature_kind == "landmarks":
            return aligned.reshape(aligned.shape[:-2] + (-1,))
        return pairwise_distances(aligned)

    def reads_finite(self, frame: HumanFrame) -> np.ndarray:
        """Per frame, whether every input the model reads is finite: the
        kept AUs for the au kind, the landmarks and the pose otherwise.
        A 0-d bool for one frame, an (n,) bool array for a stack."""
        if self.feature_kind == "au":
            return np.isfinite(frame.aus[..., self.au_index]).all(axis=-1)
        return (
            np.isfinite(frame.landmarks).all(axis=(-2, -1))
            & np.isfinite(frame.pose.rotation).all(axis=-1)
            & np.isfinite(frame.pose.translation).all(axis=-1)
        )

    def predict_raw(self, features: np.ndarray) -> np.ndarray:
        """Unrounded command predictions for model-space feature rows."""
        z = pca_transform(self.pca, features)
        return self.regressor.predict(z)

    def _check_calibrated(self) -> None:
        """Raise CalibrationRequiredError unless human stats are attached."""
        if self.human_stats is None:
            raise CalibrationRequiredError(
                "model has no human MinMax stats; run calibrate_human first"
            )

    def human_raw(self, frame: HumanFrame) -> np.ndarray:
        """Unrounded command for one tracked human frame, (9,), or for a
        stack of n frames, (n, 9).

        Pipeline: derotate -> align to the neutral reference -> extract the
        model's feature kind (AUs come straight from the tracker) -> MinMax-map
        the human range onto the robot range -> PCA -> regress.
        """
        self._check_calibrated()
        mapped = minmax_map(self.frame_features(frame), self.human_stats, self.robot_stats)
        raw = self.predict_raw(np.atleast_2d(mapped))
        return raw[0] if mapped.ndim == 1 else raw

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": MODEL_SCHEMA,
            "feature_kind": self.feature_kind,
            "robot_stats": self.robot_stats.to_dict(),
            "human_stats": self.human_stats.to_dict() if self.human_stats else None,
            "pca": self.pca.to_dict(),
            "regressor": self.regressor.to_dict(),
            "neutral_reference": self.neutral_reference.tolist(),
            "au_ids_used": list(self.au_ids_used) if self.au_ids_used else None,
            "au_stats_full": self.au_stats_full.to_dict() if self.au_stats_full else None,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineModel":
        if d.get("schema") != MODEL_SCHEMA:
            raise UnsupportedVersionError(
                f"model schema {d.get('schema')!r} not supported (want {MODEL_SCHEMA})"
            )
        reg = d["regressor"]
        regressor = (
            LinearModel.from_dict(reg) if reg["kind"] == "linear" else MlpModel.from_dict(reg)
        )
        return cls(
            feature_kind=d["feature_kind"],
            robot_stats=MinMaxStats.from_dict(d["robot_stats"]),
            human_stats=(
                MinMaxStats.from_dict(d["human_stats"]) if d.get("human_stats") else None
            ),
            pca=PcaModel.from_dict(d["pca"]),
            regressor=regressor,
            neutral_reference=np.array(d["neutral_reference"], dtype=float),
            au_ids_used=tuple(d["au_ids_used"]) if d.get("au_ids_used") else None,
            au_stats_full=(
                MinMaxStats.from_dict(d["au_stats_full"]) if d.get("au_stats_full") else None
            ),
            provenance=d.get("provenance"),
        )


def save_model(model: PipelineModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_dict()) + "\n")


def load_model(path: str | Path) -> PipelineModel:
    return PipelineModel.from_dict(json.loads(Path(path).read_text()))


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
    grid-searches over ``grid``, validated on a seeded
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
    if pca_k is None:
        if kind == "distances":
            if tune_dataset is None:
                fit_idx, val_idx = split_indices(len(x), VALIDATION_FRACTION, seed + 1)
                scan = x[fit_idx], y[fit_idx], x[val_idx], y[val_idx]
            else:
                scan = x, y, tune_dataset.features(kind), tune_dataset.commands
            pca_k, _ = choose_pca_dim(*scan, pca_candidates)
        elif kind == "landmarks":
            pca_k = LANDMARK_PCA_DIM
        else:
            pca_k = x.shape[1]  # full-rank rotation over the kept AUs
    pca_k = min(pca_k, x.shape[1], x.shape[0] - 1)

    pca = pca_fit(x, pca_k)
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
        "dataset_head_sha256": train.meta.get("head_config_sha256"),
        "dataset_split": train.meta.get("split"),
        "seed": seed,
        "regressor": regressor,
    }
    return PipelineModel(
        feature_kind=kind,
        robot_stats=fit_minmax(x),
        pca=pca,
        regressor=reg,
        neutral_reference=_dataset_neutral_reference(train),
        au_ids_used=au_ids_used,
        au_stats_full=au_stats_full,
        provenance=provenance,
    )


def _dataset_neutral_reference(d: Dataset) -> np.ndarray:
    """The neutral landmark reference the dataset rows were aligned to."""
    ref = d.meta.get("neutral_reference")
    if ref is None:
        raise ConfigError("dataset metadata lacks the neutral alignment reference")
    return center(np.array(ref, dtype=float).reshape(N_LANDMARKS, 3))


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
    raw = model.predict_raw(target[model.au_index][None, :])[0]
    return command_from_raw(raw)


def calibrate_human(model: PipelineModel, frames: Iterable[HumanFrame]) -> PipelineModel:
    """Fit human-side MinMax stats from a recording and attach them.

    The recording should cover neutral plus expressive frames so the
    observed range spans the actor's expression space.  The frames go
    through the model as one stack.  A frame with a non-finite value in an
    input the model reads raises OpenFaceFormatError naming the frame's
    index and timestamp.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("calibration needs at least 2 frames")
    stack = HumanFrame.stack(frames)
    finite = model.reads_finite(stack)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OpenFaceFormatError(
            f"calibration frame {i} (timestamp {frames[i].timestamp}): "
            f"non-finite value in an input the {model.feature_kind} model reads"
        )
    stats = fit_minmax(model.frame_features(stack))
    return replace(model, human_stats=stats)


def retarget_frame(
    model: PipelineModel, frame: HumanFrame
) -> ActuatorCommand | np.ndarray:
    """Map one tracked human frame onto an actuator command, or a stack of
    n frames onto (n, 9) int command rows: the
    :meth:`PipelineModel.human_raw` prediction, rounded and clipped.

    A non-finite value in an input the model reads raises
    OpenFaceFormatError naming the timestamp of the first such frame.
    """
    finite = np.atleast_1d(model.reads_finite(frame))
    if not finite.all():
        timestamp = float(np.atleast_1d(frame.timestamp)[np.argmin(finite)])
        raise OpenFaceFormatError(
            f"frame at timestamp {timestamp}: "
            f"non-finite value in an input the {model.feature_kind} model reads"
        )
    return command_from_raw(model.human_raw(frame))


def stream(
    model: PipelineModel,
    frames: Iterable[HumanFrame],
    smoothing_window: int = 1,
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
) -> Iterator[ActuatorCommand]:
    """Per-frame retargeting with trailing smoothing and hold-last gaps.

    Emits exactly one command per input frame.  Frames under the
    confidence threshold, and frames with a non-finite value in an input
    the model reads, repeat the previously emitted command (the neutral
    command before any frame passed); other frames enter a trailing moving
    average of raw predictions of length ``smoothing_window`` before
    rounding.

    A model without human stats raises CalibrationRequiredError when the
    first frame arrives, before any command is emitted.
    """
    if smoothing_window < 1:
        raise ValueError("smoothing_window must be >= 1")
    buffer: list[np.ndarray] = []
    last = ActuatorCommand.neutral()
    for frame in frames:
        model._check_calibrated()
        if frame.confidence < confidence_threshold or not model.reads_finite(frame):
            yield last
            continue
        buffer.append(model.human_raw(frame))
        if len(buffer) > smoothing_window:
            buffer.pop(0)
        last = command_from_raw(np.mean(buffer, axis=0))
        yield last
