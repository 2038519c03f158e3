"""Hardware and representation diagnostics.

Covers the actuator-by-AU Pearson correlation matrix (with an explicit
missing marker for zero-variance columns), pruning of AUs the head cannot
express, and the four-way representation comparison (AU+LR, AU+MLP,
landmarks+LR, distances+LR) on one shared train/test split.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import TEST_FRACTION, Dataset, split
from .features import AU_IDS, N_AUS
from .learn import DEFAULT_EPOCHS, HyperGrid, default_grid
from .simulator import CHANNELS, N_CHANNELS

MISSING = "NA"

# An AU whose strongest |r| with any actuator stays under this is pruned
# from AU-based training.
PRUNE_THRESHOLD = 0.2


@dataclass
class CorrMatrix:
    """Pearson correlations between the actuator channels of ``CHANNELS``
    (rows) and the AUs of ``AU_IDS`` (cols).

    ``missing`` marks pairs where a zero-variance column makes the
    coefficient undefined; ``r`` holds 0.0 there and must not be read.
    """

    r: np.ndarray
    missing: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("actuator," + ",".join(f"AU{a:02d}" for a in AU_IDS) + "\n")
        for i, ch in enumerate(CHANNELS):
            cells = [
                MISSING if self.missing[i, j] else repr(float(self.r[i, j]))
                for j in range(N_AUS)
            ]
            buf.write(f"{ch}," + ",".join(cells) + "\n")
        return buf.getvalue()

    def to_text(self) -> str:
        head = "act |" + "".join(f" AU{a:02d} " for a in AU_IDS)
        lines = [head, "-" * len(head)]
        for i, ch in enumerate(CHANNELS):
            cells = []
            for j in range(N_AUS):
                cells.append("   NA" if self.missing[i, j] else f"{self.r[i, j]:+.2f}")
            lines.append(f"{ch:>3} | " + " ".join(cells))
        return "\n".join(lines)


def pearson_matrix(commands: np.ndarray, features: np.ndarray) -> CorrMatrix:
    """Sample Pearson coefficient for every (channel, AU) pair, from (n, 9)
    command rows and (n, 17) AU rows.

    Zero-variance columns on either side yield the missing marker instead
    of propagating NaN.
    """
    cmd = np.asarray(commands, dtype=float)
    feat = np.asarray(features, dtype=float)
    if cmd.ndim != 2 or feat.ndim != 2 or cmd.shape[0] != feat.shape[0]:
        raise ValueError(f"row counts differ: {cmd.shape} vs {feat.shape}")
    if cmd.shape[0] < 2:
        raise ValueError("need at least 2 rows for a correlation")
    if cmd.shape[1] != N_CHANNELS or feat.shape[1] != N_AUS:
        raise ValueError(
            f"expected (n, {N_CHANNELS}) commands and (n, {N_AUS}) AUs, "
            f"got {cmd.shape} and {feat.shape}"
        )

    cmd_c = cmd - cmd.mean(axis=0)
    feat_c = feat - feat.mean(axis=0)
    cmd_sd = np.sqrt((cmd_c ** 2).sum(axis=0))
    feat_sd = np.sqrt((feat_c ** 2).sum(axis=0))

    cov = cmd_c.T @ feat_c
    denom = np.outer(cmd_sd, feat_sd)
    missing = denom == 0.0
    r = np.zeros_like(cov)
    np.divide(cov, denom, out=r, where=~missing)
    r = np.clip(r, -1.0, 1.0)
    r[missing] = 0.0
    return CorrMatrix(r=r, missing=missing)


def low_correlation_features(m: CorrMatrix, threshold: float = PRUNE_THRESHOLD) -> list[int]:
    """AU ids whose strongest actuator correlation stays under ``threshold``.

    Columns that are entirely missing (no defined coefficient at all) count
    as zero correlation.  These AUs carry no usable signal about the head
    and are excluded from AU-based training.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    pruned = []
    for j, au in enumerate(AU_IDS):
        defined = ~m.missing[:, j]
        strongest = np.max(np.abs(m.r[defined, j])) if defined.any() else 0.0
        if strongest < threshold:
            pruned.append(au)
    return pruned


# -- four-way representation comparison --------------------------------------

# column -> (title, feature kind, regressor)
_COLUMNS = {
    "au_lr": ("AUs + LR", "au", "ols"),
    "au_mlp": ("AUs + MLP", "au", "mlp"),
    "landmarks_lr": ("Landm. + LR", "landmarks", "ols"),
    "distances_lr": ("Dist. + LR", "distances", "ols"),
}
COMPARISON_COLUMNS = tuple(_COLUMNS)


@dataclass
class ComparisonReport:
    """Per-actuator test RMSE for the four representation/model pairs."""

    columns: list[str]
    values: np.ndarray  # (channels, columns)
    pruned_aus: list[int]
    distance_pca_dim: int
    mlp_hyper: dict = field(default_factory=dict)

    def column_means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("actuator," + ",".join(self.columns) + "\n")
        for i, ch in enumerate(CHANNELS):
            buf.write(f"{ch}," + ",".join(repr(float(v)) for v in self.values[i]) + "\n")
        buf.write("mean," + ",".join(repr(float(v)) for v in self.column_means()) + "\n")
        return buf.getvalue()

    def to_text(self) -> str:
        titles = [_COLUMNS[c][0] for c in self.columns]
        head = f"{'Act.':>5} |" + "".join(f" {t:>12}" for t in titles)
        lines = [head, "-" * len(head)]
        for i, ch in enumerate(CHANNELS):
            lines.append(
                f"{ch:>5} |" + "".join(f" {v:>12.2f}" for v in self.values[i])
            )
        lines.append("-" * len(head))
        lines.append(
            f"{'mean':>5} |" + "".join(f" {v:>12.2f}" for v in self.column_means())
        )
        lines.append("")
        lines.append(f"pruned AUs: {self.pruned_aus or 'none'}")
        lines.append(f"distance PCA dimension: {self.distance_pca_dim}")
        return "\n".join(lines)


def compare_representations(
    d: Dataset,
    split_seed: int,
    test_fraction: float = TEST_FRACTION,
    grid: HyperGrid | None = None,
    epochs: int = DEFAULT_EPOCHS,
) -> ComparisonReport:
    """Train and evaluate the four representation/model pairs on one split.

    All columns share the same seeded 80/20 split and ``fit_pipeline``'s
    defaults.  The landmark column reduces to ``LANDMARK_PCA_DIM``
    dimensions; the distance column tunes its dimension over the default
    PCA candidates against the shared test set, the same protocol used to
    pick the dimensionality in the original hardware experiments.

    For context, the hardware experiments this simulator stands in for
    reported per-actuator test RMSEs of 43.04 / 39.74 / 23.66 / 20.46
    (actuator 1) and 22.54 / 22.49 / 9.90 / 9.26 (actuator 11) for the
    same four columns; simulated magnitudes differ, the column ordering
    is what carries over.
    """
    from .retarget import evaluate_pipeline, fit_pipeline  # cycle-free at runtime

    grid = grid if grid is not None else default_grid()
    train, test = split(d, test_fraction, split_seed)
    # tune_dataset is read by the distance kind only, grid and epochs by the MLP only
    models = {
        name: fit_pipeline(
            train, kind, regressor=regressor, tune_dataset=test,
            grid=grid, epochs=epochs, seed=split_seed,
        )
        for name, (_, kind, regressor) in _COLUMNS.items()
    }
    return ComparisonReport(
        columns=list(COMPARISON_COLUMNS),
        values=np.column_stack([evaluate_pipeline(m, test) for m in models.values()]),
        pruned_aus=list(models["au_lr"].pruned_aus),
        distance_pca_dim=models["distances_lr"].pca.k,
        mlp_hyper=dict(models["au_mlp"].regressor.hyper),
    )
