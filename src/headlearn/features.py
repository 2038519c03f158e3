"""Facial-expression feature representations.

Three feature kinds flow through the learning pipeline:

* ``"au"``         - 17 action-unit intensities, each in [0, 5]
* ``"landmarks"``  - flattened aligned 3D landmarks, 204 values (mm)
* ``"distances"``  - all 2278 pairwise landmark distances (mm)

AU intensities are produced by a synthetic extractor: an affine readout of
inter-landmark distance changes against a neutral baseline, with optional
channel crosstalk and Gaussian detection noise, clipped to the [0, 5]
intensity scale.  This mimics the behaviour (and the imperfections) of a
video-based AU tracker without needing pixels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import N_PAIRS, PAIR_INDICES, pair_distances, pair_index

# The 17 AU intensity channels emitted by OpenFace 2.0, in fixed order.
AU_IDS = (1, 2, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 20, 23, 25, 26, 45)
AU_INDEX = {au: i for i, au in enumerate(AU_IDS)}
N_AUS = len(AU_IDS)

FEATURE_KINDS = ("au", "landmarks", "distances")


@dataclass
class AUDef:
    """Synthetic readout of one action unit from landmark-pair distances.

    ``weights`` maps distance changes (mm, relative to the neutral baseline)
    to intensity; ``crosstalk`` adds a fraction of other AUs' pre-clip
    values, modelling correlated mis-detection.
    """

    au: int
    weights: list[tuple[int, int, float]] = field(default_factory=list)
    bias: float = 0.0
    noise_sigma: float = 0.0
    crosstalk: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.au not in AU_INDEX:
            raise ConfigError(f"unknown AU id {self.au}; expected one of {AU_IDS}")
        for i, j, w in self.weights:
            pair_index(i, j)  # validates the landmark pair
            if not np.isfinite(w):
                raise ConfigError(f"AU{self.au:02d} has a non-finite weight")
        if self.noise_sigma < 0:
            raise ConfigError(f"AU{self.au:02d} noise_sigma must be >= 0")
        for other, _ in self.crosstalk:
            if other not in AU_INDEX:
                raise ConfigError(f"AU{self.au:02d} crosstalk names unknown AU id {other}")


class AUReadout:
    """The synthetic AU extractor of one ``au_defs`` list, checked once.

    ``pairs`` holds the flat indices (ascending, see ``PAIR_INDICES``) of
    the landmark pairs the weights read; :meth:`distances` measures only
    those, and :meth:`intensities` turns them into the 17 AU intensities.
    Both take one landmark set or a stack of them.
    """

    def __init__(self, au_defs: list[AUDef]):
        by_id = {d.au: d for d in au_defs}
        if len(by_id) != len(au_defs):
            raise ConfigError("duplicate AU ids in au_defs")
        missing = [au for au in AU_IDS if au not in by_id]
        if missing:
            raise ConfigError(f"au_defs missing definitions for AUs {missing}")
        self.defs = [by_id[au] for au in AU_IDS]
        read = [[(pair_index(i, j), w) for i, j, w in d.weights] for d in self.defs]
        pairs = sorted({p for terms in read for p, _ in terms})
        column = {p: c for c, p in enumerate(pairs)}
        self._terms = [[(column[p], w) for p, w in terms] for terms in read]
        self.pairs = np.array(pairs, dtype=int)
        self._first, self._second = PAIR_INDICES[self.pairs].T
        self._sigmas = np.array([d.noise_sigma for d in self.defs])

    def distances(self, landmarks: np.ndarray) -> np.ndarray:
        """Distances at ``pairs``: (k,) for one set, (n, k) for a stack."""
        return pair_distances(landmarks, self._first, self._second)

    def intensities(
        self,
        distances: np.ndarray,
        neutral: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """AU intensities, (17,) or (n, 17), from distances at ``pairs`` and
        the neutral expression's distances at the same pairs.

        Per AU: base = sum(w * (d - d_neutral)) + bias; crosstalk then adds
        coefficients times other AUs' base values; Gaussian noise (if
        ``rng`` given, one row of 17 draws per frame) and clipping to [0, 5]
        come last.
        """
        delta = np.asarray(distances, dtype=float) - neutral
        base = np.empty(delta.shape[:-1] + (N_AUS,))
        for k, (d, terms) in enumerate(zip(self.defs, self._terms)):
            acc = d.bias
            for c, w in terms:
                acc = acc + w * delta[..., c]
            base[..., k] = acc

        crossed = base.copy()
        for k, d in enumerate(self.defs):
            for other, coeff in d.crosstalk:
                crossed[..., k] += coeff * base[..., AU_INDEX[other]]

        if rng is not None:
            crossed = crossed + rng.standard_normal(crossed.shape) * self._sigmas
        return np.clip(crossed, 0.0, 5.0)


def extract_aus(
    au_defs: list[AUDef],
    landmarks: np.ndarray,
    neutral_baseline: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Compute the 17 AU intensities for one landmark set, or (n, 17) for a
    stack of n sets.

    ``neutral_baseline`` is the pairwise-distance vector of the neutral
    expression (the person-specific normalisation reference); see
    :meth:`AUReadout.intensities` for the readout.
    """
    readout = AUReadout(au_defs)
    baseline = np.asarray(neutral_baseline, dtype=float)
    if baseline.shape != (N_PAIRS,):
        raise ValueError("neutral_baseline must be a 2278-long distance vector")
    return readout.intensities(readout.distances(landmarks), baseline[readout.pairs], rng)


@dataclass
class MinMaxStats:
    """Per-dimension extrema of a fitted feature sample."""

    RETIRED = ("kind",)

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins and maxs must be 1-D arrays of equal length")
        if np.any(self.maxs < self.mins):
            raise ValueError("per-dimension max must be >= min")

    @property
    def dim(self) -> int:
        return self.mins.shape[0]


def fit_minmax(samples: np.ndarray) -> MinMaxStats:
    """Per-dimension extrema over a sample matrix (rows = samples)."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] < 2:
        raise ValueError("fit_minmax needs >= 2 samples")
    return MinMaxStats(mins=x.min(axis=0), maxs=x.max(axis=0))


def minmax_map(x: np.ndarray, src: MinMaxStats, dst: MinMaxStats) -> np.ndarray:
    """Affinely map values from one observed range onto another, per dimension.

    Dimensions where the source range is degenerate (max == min) map to the
    midpoint of the target range.  The feature kinds have distinct widths
    (at most 17, 204 and 2278), so the width check also rejects stats of
    different kinds.
    """
    if src.dim != dst.dim:
        raise ValueError(f"stats dimensions differ: {src.dim} vs {dst.dim}")
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != src.dim:
        raise ValueError(f"input has {arr.shape[-1]} dims, stats have {src.dim}")

    span_src = src.maxs - src.mins
    span_dst = dst.maxs - dst.mins
    degenerate = span_src == 0.0
    safe_span = np.where(degenerate, 1.0, span_src)
    scaled = (arr - src.mins) / safe_span * span_dst + dst.mins
    midpoint = (dst.mins + dst.maxs) / 2.0
    return np.where(degenerate, midpoint, scaled)


def window_average(frames: np.ndarray, window: int) -> np.ndarray:
    """Reduce non-overlapping blocks of ``window`` rows to their means.

    A trailing partial block is dropped.  Used to smooth per-frame feature
    fluctuations over a held expression.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.atleast_2d(np.asarray(frames, dtype=float))
    if x.shape[0] < window:
        raise ValueError(f"need at least {window} frames, got {x.shape[0]}")
    n_blocks = x.shape[0] // window
    trimmed = x[: n_blocks * window]
    return trimmed.reshape(n_blocks, window, x.shape[1]).mean(axis=1)
