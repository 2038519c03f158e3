"""Dimensionality reduction and regression.

PCA uses the sample covariance eigendecomposition for narrow inputs and
switches to the Gram-matrix route when there are fewer rows than columns
(the pairwise-distance representation: 2278 columns, a few hundred rows).
Regressors are multi-output throughout; MLP training is plain full-batch
gradient descent with a fixed epoch budget, deterministic under a seed,
and the MLP grid search drops losing points early by successive halving.
Training folds each layer's bias into its weights as the weight of a
constant-1 input, so a layer's forward step and its gradients are one
matrix product each; ``MlpModel.predict`` adds its biases apart.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, SingularFitError, TrainingDivergedError

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

    def __post_init__(self) -> None:
        m, c, evr = self.mean, self.components, self.explained_variance_ratio
        if m.ndim != 1 or c.ndim != 2 or evr.ndim != 1:
            raise ConfigError("PCA mean and explained_variance_ratio must be 1-D, components 2-D")
        if len(m) != c.shape[1] or len(evr) != c.shape[0]:
            raise ConfigError(
                f"PCA components are {c.shape[0]} x {c.shape[1]}, but mean has {len(m)} "
                f"entries and explained_variance_ratio {len(evr)}"
            )

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def pca_fit(x: np.ndarray, k: int) -> PcaModel:
    """Fit a k-component PCA.

    Components are sorted by descending variance and sign-fixed so each
    component's largest-magnitude entry is positive.  Explained variance
    ratios are fractions of the total variance across all directions.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("pca_fit needs a 2-D matrix with at least 2 rows")
    _check_finite(x=x)
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


def _one_row_as_batch(f):
    """Run a 1-D ``x`` of ``f(model, x)`` as the one-row batch ``x[None, :]``:
    a 1-D product may take another BLAS path, with other bits."""

    @functools.wraps(f)
    def rows(model, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return f(model, x[None, :])[0] if x.ndim == 1 else f(model, x)

    return rows


@_one_row_as_batch
def pca_transform(m: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows onto the principal axes."""
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
) -> tuple[int, PcaDimReport, PcaModel, np.ndarray]:
    """Pick the smallest dimension whose downstream linear RMSE is near-optimal.

    Principal axes are nested, so one PCA fit on ``x_fit`` at the largest
    candidate serves them all: candidate k is scored by an OLS fit on the
    first k projected columns, as mean per-channel RMSE on the validation
    rows.  The smallest candidate within ``PCA_DIM_REL_TOL`` of the best
    wins, so exact ties go to the smaller k.  The report's cumulative EVR
    comes from the same fit.

    Returns ``(k, report, pca, z_fit)``: the scan's fit, at the largest
    candidate, and its projection of ``x_fit``.  By the nesting, their first
    k axes and columns are ``pca_fit(x_fit, k)`` and its projection (to
    rounding for one axis on the Gram route, and where BLAS takes another
    kernel for fewer columns).
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

    x_val, y_val = _check_xy(x_val, y_val, ("x_val", "y_val"))
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
    ), pca, z_fit


# -- linear models -----------------------------------------------------------


@dataclass
class LinearModel:
    """Multi-output affine predictor: y = x @ weights.T + intercept."""

    TAG = ("kind", "linear")

    weights: np.ndarray    # (outputs, inputs)
    intercept: np.ndarray  # (outputs,)
    ridge_lambda: float | None = None

    def __post_init__(self) -> None:
        w, b = self.weights, self.intercept
        if w.ndim != 2 or b.shape != w.shape[:1]:
            raise ConfigError(
                f"linear weights {w.shape} need an intercept of {w.shape[:1]}, got {b.shape}"
            )

    @_one_row_as_batch
    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.intercept


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ValueError at the first non-finite cell of each named 2-D array."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            row, col = np.argwhere(~np.isfinite(a))[0]
            raise ValueError(f"{name} is not finite at (row {row}, column {col}): {a[row, col]}")


def _check_xy(x: np.ndarray, y: np.ndarray, names=("x", "y")) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        raise ValueError(f"targets must be 2-D (n, outputs), got shape {y.shape}")
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"incompatible shapes X{x.shape} vs Y{y.shape}")
    _check_finite(**dict(zip(names, (x, y))))
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
    """L2-penalized least squares; the intercept is not penalized.  The
    penalty ``lam`` is finite and >= 0 (a NaN or infinite one gives NaN
    weights)."""
    if not 0 <= lam < math.inf:
        raise ValueError(f"ridge lambda must be finite and >= 0, got {lam}")
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


def _activate(activation: str, z: np.ndarray) -> None:
    """Write a hidden layer's activation over its pre-activation ``z``."""
    if activation == "tanh":
        np.tanh(z, out=z)
    else:
        np.maximum(z, 0.0, out=z)


def run_layers(
    layers: Sequence[tuple[np.ndarray, np.ndarray]], activation: str | None, a: np.ndarray
) -> np.ndarray:
    """The network of affine ``layers`` from the input ``a``: ``a @ w + b``
    for each ``(w, b)``, with ``w`` of shape (inputs, outputs), and the
    activation after every layer but the last."""
    for w, b in layers[:-1]:
        a = a @ w + b
        _activate(activation, a)
    w, b = layers[-1]
    return a @ w + b


@dataclass
class MlpModel:
    """Fully connected regressor trained on [0, 1]-scaled targets.

    Inputs are standardized internally (per-feature mean/scale frozen from
    the training set) so full-batch gradient descent is well conditioned.
    ``predict`` rescales outputs back to the command range by
    ``TARGET_SCALE`` (clipping is left to command construction).
    """

    TAG = ("kind", "mlp")
    RETIRED = ("layer_sizes", "output_scale")

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str
    input_mean: np.ndarray
    input_scale: np.ndarray
    hyper: dict = field(default_factory=dict)
    final_train_loss: float = float("nan")

    def __post_init__(self) -> None:
        """Raise ConfigError unless the layers chain: each bias matches its
        layer's outputs, each layer reads the previous one's outputs and the
        first reads the input standardization's width."""
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"MLP activation {self.activation!r} is not one of {_ACTIVATIONS}")
        ws, bs = self.weights, self.biases
        if not ws or len(ws) != len(bs):
            raise ConfigError(f"MLP has {len(ws)} weights and {len(bs)} biases")
        width = self.input_mean.shape
        if self.input_scale.shape != width or len(width) != 1:
            raise ConfigError(
                f"MLP input_mean {width} and input_scale {self.input_scale.shape} differ"
            )
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or w.shape[1:] != width or b.shape != w.shape[:1]:
                inputs = "input_mean entries" if i == 0 else f"weights[{i - 1}] rows"
                raise ConfigError(
                    f"MLP weights[{i}] {w.shape} needs as many columns as the {width[0]} "
                    f"{inputs} and as many rows as biases[{i}] {b.shape}"
                )
            width = w.shape[:1]

    def n_params(self) -> int:
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))

    @_one_row_as_batch
    def predict(self, x: np.ndarray) -> np.ndarray:
        a = (x - self.input_mean) / self.input_scale
        layers = [(w.T, b) for w, b in zip(self.weights, self.biases)]
        return run_layers(layers, self.activation, a) * TARGET_SCALE


class _FlatNet:
    """An MLP's parameters ``theta`` and their gradient ``grad``, each one
    flat vector.  Each layer is one C-ordered (fan_in + 1, fan_out) block
    ``[Wᵀ; b]``: its bias is the weight of a constant-1 input, its last row,
    so one matrix product gives a layer's output with its bias, reading the
    block as stored, and one its weight and bias gradients together.
    ``layers`` are views of ``theta``, ``grads`` of ``grad``; ``is_weight``
    marks the entries of ``theta`` that l2 reads: all rows but the last."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], activation: str):
        blocks = [np.vstack([w.T, b]) for w, b in zip(weights, biases)]
        self.theta = np.concatenate([block.ravel() for block in blocks], dtype=float)
        self.grad = np.zeros_like(self.theta)
        ends = list(itertools.accumulate(block.size for block in blocks))
        self.layers, self.grads = (
            [flat[end - block.size:end].reshape(block.shape) for block, end in zip(blocks, ends)]
            for flat in (self.theta, self.grad)
        )
        self.is_weight = np.concatenate([np.arange(block.size) < block.size - block.shape[1]
                                         for block in blocks])
        self.activation = activation

    def work_arrays(self, n: int) -> list[np.ndarray]:
        """An empty array per layer for ``n`` rows: (n, fan_out + 1) under a
        hidden layer, its last column for the ones, and (n, outputs) last."""
        *hidden, last = (wb.shape[1] for wb in self.layers)
        return [np.empty((n, h + 1)) for h in hidden] + [np.empty((n, last))]

    def loss_and_grads(self, l2: float, x: np.ndarray, y: np.ndarray, outs, deltas) -> float:
        """The loss on (``x``, ``y``), with its gradient written into ``grad``.
        ``x`` ends in a ones column.  ``outs`` and ``deltas`` come from
        :meth:`work_arrays`; both are left holding garbage."""
        layers, n, last = self.layers, x.shape[0], len(self.layers) - 1
        acts = [x, *outs]
        for i, wb in enumerate(layers):
            z = acts[i + 1]
            if i == last:
                np.matmul(acts[i], wb, out=z)
            else:  # activated in one contiguous pass, the ones column then reset
                np.matmul(acts[i], wb, out=z[:, :-1])
                _activate(self.activation, z)
                z[:, -1] = 1.0
        diff = np.subtract(outs[-1], y, out=outs[-1])
        loss = float(np.add.reduce(np.multiply(diff, diff, out=deltas[-1]), axis=None) / n)
        if l2 != 0.0:
            loss += l2 * float(sum(np.add.reduce(wb[:-1] * wb[:-1], axis=None) for wb in layers))
        np.multiply(diff, 2.0, out=deltas[-1])
        deltas[-1] /= n
        delta = deltas[-1]
        for i in range(last, -1, -1):
            np.matmul(acts[i].T, delta, out=self.grads[i])
            if i > 0:  # the activation's derivative, written over the activation
                a = acts[i]
                if self.activation == "tanh":
                    np.subtract(1.0, np.multiply(a, a, out=a), out=a)
                else:
                    np.greater(a, 0.0, out=a)  # a > 0 exactly where its pre-activation is
                # BLAS runs this product faster on a C-ordered copy of the
                # block's transpose than on the transposed view
                np.matmul(delta, layers[i].T.copy(), out=deltas[i - 1])
                deltas[i - 1] *= a
                delta = deltas[i - 1][:, :-1]  # the ones column has no delta
        if l2 != 0.0:  # grad += 2 l2 theta on the weights: one pass over the whole vector
            np.add(self.grad, np.multiply(self.theta, 2.0 * l2), out=self.grad,
                   where=self.is_weight)
        return loss


def _with_ones(x: np.ndarray) -> np.ndarray:
    """``x`` with a column of ones appended."""
    return np.column_stack([x, np.ones(len(x))])


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


class MlpRun(_FlatNet):
    """One full-batch gradient-descent run with classical momentum
    (``MOMENTUM``) that can be trained on in steps.

    The whole state (``theta`` and its ``velocity``) lives on the run and
    the learning rate is constant, so ``train(a)`` then ``train(b)`` is the
    same arithmetic, bit for bit, as ``train(a + b)``.  Deterministic under
    ``seed``.  Targets are actuator commands on the 0-255 scale; they are
    divided by ``TARGET_SCALE`` internally.  ``x`` holds the standardized
    inputs and a ones column, which carries each first-layer bias; every
    hidden work array ends in one too.  An empty ``hidden_layers`` gives a
    pure linear model; a hidden width must be an integer of at least 1.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        hidden_layers: Sequence[int],
        activation: str,
        learning_rate: float,
        l2: float,
        seed: int,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
        if learning_rate <= 0 or l2 < 0:
            raise ValueError("bad hyperparameters: need lr > 0, l2 >= 0")
        for h in hidden_layers:
            if not (isinstance(h, numbers.Integral) and h >= 1):
                raise ValueError(f"bad hyperparameters: hidden width {h!r} is not an int >= 1")
        x, y = _check_xy(x, y)
        self.y = y / TARGET_SCALE
        self.input_mean = x.mean(axis=0)
        self.input_scale = x.std(axis=0)
        self.input_scale[self.input_scale == 0.0] = 1.0
        self.x = _with_ones((x - self.input_mean) / self.input_scale)

        self.hidden_layers = [int(h) for h in hidden_layers]
        self.learning_rate = learning_rate
        self.l2 = l2
        self.seed = seed
        layer_sizes = [x.shape[1], *self.hidden_layers, self.y.shape[1]]
        super().__init__(
            *mlp_init(layer_sizes, activation, np.random.default_rng(seed)), activation
        )
        self.velocity = np.zeros_like(self.theta)
        self.epochs = 0  # trained so far
        self.loss = float("nan")  # training loss before the last update

    def hyper(self, epochs: int) -> dict:
        """The hyperparameters of this run trained to ``epochs`` epochs."""
        return {
            "hidden_layers": list(self.hidden_layers),
            "activation": self.activation,
            "learning_rate": self.learning_rate,
            "epochs": epochs,
            "l2": self.l2,
            "seed": self.seed,
            "momentum": MOMENTUM,
        }

    def train(self, epochs: int) -> None:
        """Train ``epochs`` more epochs.  Raise TrainingDivergedError at the
        first non-finite loss; ``self.epochs`` then counts the updates made."""
        if epochs < 1:
            raise ValueError("bad hyperparameters: need epochs >= 1")
        loss = self.loss
        outs, deltas = (self.work_arrays(len(self.x)) for _ in range(2))
        # overflow during a diverging run is expected; it surfaces as the
        # non-finite loss check below
        with np.errstate(over="ignore", invalid="ignore"):
            for done in range(epochs):
                loss = self.loss_and_grads(self.l2, self.x, self.y, outs, deltas)
                if not math.isfinite(loss):
                    target = self.epochs + epochs
                    self.epochs += done
                    raise TrainingDivergedError(f"training diverged with {self.hyper(target)}")
                self.velocity *= MOMENTUM
                self.velocity -= self.learning_rate * self.grad
                self.theta += self.velocity
        self.epochs += epochs
        self.loss = loss

    def model(self) -> MlpModel:
        """The network as trained so far, holding copies of the run's arrays."""
        return MlpModel(
            weights=[wb[:-1].T.copy() for wb in self.layers],
            biases=[wb[-1].copy() for wb in self.layers],
            activation=self.activation,
            input_mean=self.input_mean,
            input_scale=self.input_scale,
            hyper=self.hyper(self.epochs),
            final_train_loss=self.loss,
        )


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
    """Train an :class:`MlpRun` for ``epochs`` epochs and return its model."""
    run = MlpRun(x, y, hidden_layers, activation, learning_rate, l2, seed)
    run.train(epochs)
    return run.model()


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
        for name, least in (("depths", 0), ("widths", 1)):
            for v in getattr(self, name):
                if not (isinstance(v, numbers.Integral) and v >= least):
                    raise ValueError(f"grid axis {name!r} needs integers >= {least}, got {v!r}")

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
    """One grid point, as far as the search trained it."""

    depth: int
    width: int
    activation: str
    learning_rate: float
    l2: float
    val_rmse: float
    n_params: int
    epochs: int  # trained; for a diverged point, the updates before the divergence
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


def rung_epochs(epochs: int) -> list[int]:
    """The epochs at which :func:`grid_search` scores and culls its points:
    ``epochs // 16``, ``epochs // 4`` and ``epochs``, without zeros or repeats."""
    if epochs < 1:
        raise ValueError("bad hyperparameters: need epochs >= 1")
    return sorted({r for r in (epochs // 16, epochs // 4, epochs) if r >= 1})


def _train_to(run: MlpRun, point: tuple, epochs: int, x_val, y_val) -> GridEntry:
    """Train ``run`` to ``epochs`` epochs and score it on the validation rows."""
    try:
        run.train(epochs - run.epochs)
    except TrainingDivergedError as e:
        error = str(e)
    else:
        model = run.model()
        # the last update can overflow the weights after a finite loss
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(np.mean(rmse(model.predict(x_val), y_val)))
        if np.isfinite(val):
            return GridEntry(*point, val, model.n_params(), run.epochs)
        error = f"validation RMSE is {val} after training with {model.hyper}"
    return GridEntry(*point, float("inf"), 0, run.epochs, error=error)


def grid_search(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    grid: HyperGrid,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
) -> tuple[MlpModel, list[GridEntry]]:
    """Successive halving over the grid, ranked by validation RMSE.

    Every point trains to the first of :func:`rung_epochs` and is scored.
    Each later rung takes a quarter, rounded up, as many points as the rung
    before it: the best points so far, by rung reached and then by
    :meth:`GridEntry.sort_key`, resume their runs up to the rung until that
    many have reached it without diverging.  A point diverges when its
    training loss or its validation RMSE is not finite.  A point that
    trains to ``epochs`` has the weights an exhaustive search gives it; an
    eliminated point reports its RMSE at the rung where it stopped, so on
    other data the exhaustive winner can be dropped early.

    The leaderboard lists the points that did not diverge, deepest rung
    first, then by ``sort_key``, then the diverged ones; its first entry is
    the returned model.  Each point gets its own deterministic seed derived
    from ``seed`` and its position in the grid, so results do not depend on
    evaluation order.
    """
    rungs = rung_epochs(epochs)
    x_val, y_val = _check_xy(x_val, y_val, ("x_val", "y_val"))
    points = grid.points()
    runs = [
        MlpRun(x_train, y_train, [width] * depth, act, lr, l2, seed * 100003 + idx)
        for idx, (depth, width, act, lr, l2) in enumerate(points)
    ]
    entries: dict[int, GridEntry] = {}

    def ranked() -> list[int]:
        return sorted(entries, key=lambda i: (
            entries[i].error is not None, -entries[i].epochs, entries[i].sort_key()
        ))

    candidates, quota = range(len(points)), len(points)
    for rung in rungs:
        reached = 0
        for i in candidates:
            if reached == quota:
                break
            entries[i] = _train_to(runs[i], points[i], rung, x_val, y_val)
            reached += entries[i].error is None
        candidates = [i for i in ranked() if entries[i].error is None]
        quota = math.ceil(quota / 4)
    order = ranked()
    leaderboard = [entries[i] for i in order]
    if leaderboard[0].error is not None:
        causes = "; ".join(f"{e.depth}x{e.width}/{e.activation}: {e.error}" for e in leaderboard)
        raise TrainingDivergedError(f"all grid candidates diverged: {causes}")
    return runs[order[0]].model(), leaderboard
