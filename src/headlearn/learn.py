"""Dimensionality reduction and regression.

PCA uses the sample covariance eigendecomposition for narrow inputs and
switches to the Gram-matrix route when there are fewer rows than columns
(the pairwise-distance representation: 2278 columns, a few hundred rows).
Regressors are multi-output throughout; MLP training is plain full-batch
gradient descent with a fixed epoch budget, deterministic under a seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SingularFitError, TrainingDivergedError

# Candidate output dimensions scanned for the distance representation:
# every second value from 3 to 40.
DEFAULT_PCA_CANDIDATES = tuple(range(3, 40, 2))

# choose_pca_dim's near-optimal margin, relative to the best RMSE.
PCA_DIM_REL_TOL = 0.01

_COV_ROUTE_MAX_DIM = 512

# MLP training: full-batch epochs, and the momentum of every step.
DEFAULT_EPOCHS = 2000
MOMENTUM = 0.95

# The MLP learns commands divided by this, the top of the 0-255 range.
TARGET_SCALE = 255.0


@dataclass
class PcaModel:
    """Mean + orthonormal principal axes (rows) + explained variance ratios."""

    mean: np.ndarray
    components: np.ndarray               # (k, d)
    explained_variance_ratio: np.ndarray  # (k,)

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance_ratio": self.explained_variance_ratio.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PcaModel":
        return cls(
            mean=np.array(d["mean"], dtype=float),
            components=np.array(d["components"], dtype=float),
            explained_variance_ratio=np.array(d["explained_variance_ratio"], dtype=float),
        )


def pca_fit(x: np.ndarray, k: int) -> PcaModel:
    """Fit a k-component PCA.

    Components are sorted by descending variance and sign-fixed so each
    component's largest-magnitude entry is positive.  Explained variance
    ratios are fractions of the total variance across all directions.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca_fit needs a 2-D matrix with at least 2 rows")
    n, d = x.shape
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} out of range [1, {min(n - 1, d)}]")

    mean = x.mean(axis=0)
    xc = x - mean

    if d <= _COV_ROUTE_MAX_DIM or n >= d:
        cov = xc.T @ xc / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        components = np.ascontiguousarray(eigvecs[:, order].T[:k])
        total = eigvals.sum()
    else:
        # Gram route: eigenvectors of (Xc Xc^T)/(n-1) lift to feature space.
        gram = xc @ xc.T / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        total = eigvals.sum()
        u = eigvecs[:, order[:k]]
        scale = np.sqrt(eigvals[:k] * (n - 1))
        if np.any(scale == 0.0):
            raise ValueError(f"k={k} exceeds the data rank; reduce k")
        components = (xc.T @ u / scale).T

    signs = np.sign(components[np.arange(k), np.argmax(np.abs(components), axis=1)])
    signs[signs == 0.0] = 1.0
    components = np.ascontiguousarray(components * signs[:, None])

    evr = eigvals[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(mean=mean, components=components, explained_variance_ratio=evr)


def pca_transform(m: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows onto the principal axes."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.n_features:
        raise ValueError(f"input has {x.shape[-1]} columns, model fitted on {m.n_features}")
    return (x - m.mean) @ m.components.T


@dataclass
class PcaDimReport:
    """Per-candidate downstream error and cumulative explained variance."""

    candidates: list[int]
    rmses: list[float]
    cumulative_evr: list[float]
    chosen: int
    best_rmse: float


def choose_pca_dim(
    x_fit: np.ndarray,
    y_fit: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    candidates: Sequence[int],
) -> tuple[int, PcaDimReport]:
    """Pick the smallest dimension whose downstream linear RMSE is near-optimal.

    Principal axes are nested, so one PCA fit on ``x_fit`` at the largest
    candidate serves them all: candidate k is scored by an OLS fit on the
    first k projected columns, as mean per-channel RMSE on the validation
    rows.  The smallest candidate within ``PCA_DIM_REL_TOL`` of the best
    wins, so exact ties go to the smaller k.  The report's cumulative EVR
    comes from the same fit.
    """
    cands = sorted(set(int(k) for k in candidates))
    if not cands:
        raise ValueError("candidates must be nonempty")
    n_fit, dim = np.shape(x_fit)
    if not 1 <= cands[-1] <= min(n_fit - 1, dim):
        raise ValueError(
            f"PCA dimension scan: largest candidate k={cands[-1]} out of range "
            f"[1, {min(n_fit - 1, dim)}] for {n_fit} fit rows"
        )

    pca = pca_fit(x_fit, cands[-1])
    z_fit = pca_transform(pca, x_fit)
    z_val = pca_transform(pca, x_val)
    rmses = [
        float(np.mean(rmse(ols_fit(z_fit[:, :k], y_fit).predict(z_val[:, :k]), y_val)))
        for k in cands
    ]
    cum = np.cumsum(pca.explained_variance_ratio)
    best = min(rmses)
    chosen = next(k for k, r in zip(cands, rmses) if r <= best * (1.0 + PCA_DIM_REL_TOL))
    return chosen, PcaDimReport(
        candidates=cands, rmses=rmses, cumulative_evr=[float(cum[k - 1]) for k in cands],
        chosen=chosen, best_rmse=best,
    )


# -- linear models -----------------------------------------------------------


@dataclass
class LinearModel:
    """Multi-output affine predictor: y = x @ weights.T + intercept."""

    weights: np.ndarray    # (outputs, inputs)
    intercept: np.ndarray  # (outputs,)
    ridge_lambda: float | None = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weights.T + self.intercept

    def to_dict(self) -> dict:
        return {
            "kind": "linear",
            "weights": self.weights.tolist(),
            "intercept": self.intercept.tolist(),
            "ridge_lambda": self.ridge_lambda,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LinearModel":
        return cls(
            weights=np.array(d["weights"], dtype=float),
            intercept=np.array(d["intercept"], dtype=float),
            ridge_lambda=d.get("ridge_lambda"),
        )


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        raise ValueError(f"targets must be 2-D (n, outputs), got shape {y.shape}")
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"incompatible shapes X{x.shape} vs Y{y.shape}")
    return x, y


def ols_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ordinary least squares with intercept, via SVD-based lstsq."""
    x, y = _check_xy(x, y)
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    coeffs, _, rank, _ = np.linalg.lstsq(aug, y, rcond=None)
    if rank < aug.shape[1]:
        raise SingularFitError(
            f"design matrix is rank-deficient (rank {rank} < {aug.shape[1]}); "
            "use ridge_fit with a positive lambda"
        )
    return LinearModel(weights=np.ascontiguousarray(coeffs[:-1].T),
                       intercept=coeffs[-1].copy())


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float) -> LinearModel:
    """L2-penalized least squares; the intercept is not penalized."""
    if lam < 0:
        raise ValueError("ridge lambda must be >= 0")
    x, y = _check_xy(x, y)
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(x.shape[1])
    try:
        w = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError as e:
        raise SingularFitError(
            "penalized normal equations are singular; increase lambda"
        ) from e
    weights = np.ascontiguousarray(w.T)
    return LinearModel(
        weights=weights,
        intercept=y_mean - weights @ x_mean,
        ridge_lambda=float(lam),
    )


def rmse(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-output root-mean-square error."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    if p.ndim == 1:
        p, t = p[:, None], t[:, None]
    return np.sqrt(np.mean((p - t) ** 2, axis=0))


# -- multilayer perceptron ----------------------------------------------------

_ACTIVATIONS = ("tanh", "relu")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if name == "tanh" else np.maximum(z, 0.0)


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    return 1.0 - a * a if name == "tanh" else (z > 0.0).astype(float)


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], activation: str, a: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass: every layer's output, from the input ``a`` to the
    (linear) network output, and every layer's pre-activation."""
    last = len(weights) - 1
    acts, zs = [a], []
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(z if i == last else _act(activation, z))
    return acts, zs


@dataclass
class MlpModel:
    """Fully connected regressor trained on [0, 1]-scaled targets.

    Inputs are standardized internally (per-feature mean/scale frozen from
    the training set) so full-batch gradient descent is well conditioned.
    ``predict`` rescales outputs back to the command range by
    ``TARGET_SCALE`` (clipping is left to command construction).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    input_mean: np.ndarray
    input_scale: np.ndarray
    hyper: dict = field(default_factory=dict)
    final_train_loss: float = float("nan")

    def n_params(self) -> int:
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))

    def forward_scaled(self, x: np.ndarray) -> np.ndarray:
        """Network output on the internal [0, 1] target scale."""
        a = (np.asarray(x, dtype=float) - self.input_mean) / self.input_scale
        return _forward(self.weights, self.biases, self.activation, a)[0][-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward_scaled(x) * TARGET_SCALE

    def to_dict(self) -> dict:
        return {
            "kind": "mlp",
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "activation": self.activation,
            "input_mean": self.input_mean.tolist(),
            "input_scale": self.input_scale.tolist(),
            "hyper": self.hyper,
            "final_train_loss": self.final_train_loss,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpModel":
        # files from older builds also hold the layer sizes and an output
        # scale (always 255); neither is read
        return cls(
            weights=[np.array(w, dtype=float) for w in d["weights"]],
            biases=[np.array(b, dtype=float) for b in d["biases"]],
            activation=d["activation"],
            input_mean=np.array(d["input_mean"], dtype=float),
            input_scale=np.array(d["input_scale"], dtype=float),
            hyper=d.get("hyper", {}),
            final_train_loss=float(d.get("final_train_loss", float("nan"))),
        )


def mlp_loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activation: str,
    l2: float,
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Squared-error loss (plus L2 on weights) and its gradients.

    The loss is the per-sample mean of the summed squared output errors,
    so gradient magnitudes do not shrink with the output width.  Exposed
    separately so the backpropagation can be checked against finite
    differences.
    """
    acts, zs = _forward(weights, biases, activation, np.asarray(x, dtype=float))
    last = len(weights) - 1
    n = x.shape[0]
    diff = acts[-1] - y
    loss = float(np.sum(diff ** 2) / n) + l2 * float(sum(np.sum(w ** 2) for w in weights))

    grad_w = [np.zeros_like(w) for w in weights]
    grad_b = [np.zeros_like(b) for b in biases]
    delta = 2.0 * diff / n
    for i in range(last, -1, -1):
        grad_w[i] = delta.T @ acts[i] + 2.0 * l2 * weights[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i]) * _act_grad(activation, zs[i - 1], acts[i])
    return loss, grad_w, grad_b


def mlp_init(
    layer_sizes: Sequence[int], activation: str, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Seeded weight initialisation (He for relu, Glorot for tanh)."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        if activation == "relu":
            scale = np.sqrt(2.0 / fan_in)
        else:
            scale = np.sqrt(2.0 / (fan_in + fan_out))
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def mlp_fit(
    x: np.ndarray,
    y: np.ndarray,
    hidden_layers: Sequence[int] = (32,),
    activation: str = "tanh",
    learning_rate: float = 1e-2,
    epochs: int = DEFAULT_EPOCHS,
    l2: float = 0.0,
    seed: int = 0,
) -> MlpModel:
    """Train by full-batch gradient descent with classical momentum
    (``MOMENTUM``).

    Deterministic under ``seed``.  Targets are actuator commands on the
    0-255 scale; they are divided by ``TARGET_SCALE`` internally.  An empty
    ``hidden_layers`` gives a pure linear model.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}")
    if learning_rate <= 0 or epochs < 1 or l2 < 0:
        raise ValueError("bad hyperparameters: need lr > 0, epochs >= 1, l2 >= 0")
    x, y = _check_xy(x, y)
    y01 = y / TARGET_SCALE

    input_mean = x.mean(axis=0)
    input_scale = x.std(axis=0)
    input_scale[input_scale == 0.0] = 1.0
    x = (x - input_mean) / input_scale

    layer_sizes = [x.shape[1], *[int(h) for h in hidden_layers], y01.shape[1]]
    rng = np.random.default_rng(seed)
    weights, biases = mlp_init(layer_sizes, activation, rng)

    hyper = {
        "hidden_layers": [int(h) for h in hidden_layers],
        "activation": activation,
        "learning_rate": learning_rate,
        "epochs": epochs,
        "l2": l2,
        "seed": seed,
        "momentum": MOMENTUM,
    }

    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    loss = float("nan")
    # overflow during a diverging run is expected; it surfaces as the
    # non-finite loss check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            loss, gw, gb = mlp_loss_and_grads(weights, biases, activation, l2, x, y01)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"training diverged with {hyper}")
            for i in range(len(weights)):
                vel_w[i] = MOMENTUM * vel_w[i] - learning_rate * gw[i]
                vel_b[i] = MOMENTUM * vel_b[i] - learning_rate * gb[i]
                weights[i] += vel_w[i]
                biases[i] += vel_b[i]

    return MlpModel(
        weights=weights,
        biases=biases,
        activation=activation,
        input_mean=input_mean,
        input_scale=input_scale,
        hyper=hyper,
        final_train_loss=loss,
    )


# -- grid search ----------------------------------------------------------


@dataclass
class HyperGrid:
    """Candidate axes for MLP hyperparameter search."""

    depths: list[int]
    widths: list[int]
    activations: list[str]
    learning_rates: list[float]
    l2s: list[float]

    def __post_init__(self) -> None:
        for name in ("depths", "widths", "activations", "learning_rates", "l2s"):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name!r} must be nonempty")

    def points(self) -> list[tuple]:
        """All (depth, width, activation, lr, l2) combinations, in axis order."""
        return list(itertools.product(
            self.depths, self.widths, self.activations, self.learning_rates, self.l2s
        ))


def default_grid() -> HyperGrid:
    return HyperGrid(
        depths=[1, 2],
        widths=[16, 32, 64],
        activations=["tanh", "relu"],
        learning_rates=[1e-2, 1e-3],
        l2s=[0.0, 1e-3],
    )


@dataclass
class GridEntry:
    """One evaluated grid point."""

    depth: int
    width: int
    activation: str
    learning_rate: float
    l2: float
    val_rmse: float
    n_params: int
    error: str | None = None

    def sort_key(self) -> tuple:
        # rank: validation RMSE, then fewer parameters, then axis order
        return (
            self.val_rmse,
            self.n_params,
            self.depth,
            self.width,
            self.activation,
            self.learning_rate,
            self.l2,
        )


def grid_search(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    grid: HyperGrid,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
) -> tuple[MlpModel, list[GridEntry]]:
    """Exhaustively train the grid and rank by validation RMSE.

    Each point gets its own deterministic seed derived from ``seed`` and
    its position in the grid, so results do not depend on evaluation
    order.
    """
    results: list[tuple[GridEntry, MlpModel | None]] = []
    for idx, (depth, width, act, lr, l2) in enumerate(grid.points()):
        try:
            model = mlp_fit(
                x_train, y_train,
                hidden_layers=[width] * depth,
                activation=act,
                learning_rate=lr,
                epochs=epochs,
                l2=l2,
                seed=seed * 100003 + idx,
            )
        except TrainingDivergedError as e:
            entry = GridEntry(depth, width, act, lr, l2, float("inf"), 0, error=str(e))
            model = None
        else:
            val = float(np.mean(rmse(model.predict(x_val), y_val)))
            entry = GridEntry(depth, width, act, lr, l2, val, model.n_params())
        results.append((entry, model))
    results.sort(key=lambda em: em[0].sort_key())
    leaderboard = [e for e, _ in results]
    best_entry, best_model = results[0]
    if best_model is None:
        causes = "; ".join(f"{e.depth}x{e.width}/{e.activation}: {e.error}" for e in leaderboard)
        raise TrainingDivergedError(f"all grid candidates diverged: {causes}")
    return best_model, leaderboard
