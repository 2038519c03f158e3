"""3D facial-landmark geometry.

Works on the standard 68-point face layout (jawline 0-16, eyebrows 17-26,
nose 27-35, eyes 36-47, outer lip 48-59, inner lip 60-67), coordinates in
millimetres.  Landmark sets are plain ``(68, 3)`` float arrays; the
functions below also take a stack of ``n`` sets as an ``(n, 68, 3)`` array
(and a :class:`Pose` of ``(n, 3)`` arrays) and treat each set as the
single-set call would, bit for bit.

Euler convention used everywhere (poses, jitter, OpenFace ``pose_R*``
round-trips): intrinsic X-Y-Z, radians, applied as ``R = Rx @ Ry @ Rz``
to column vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentDegenerateError

N_LANDMARKS = 68
N_PAIRS = N_LANDMARKS * (N_LANDMARKS - 1) // 2  # 2278

# Sets of a stack processed per array step by pairwise_distances: a
# temporary of a 4-set step takes about 220 kB, so the step's working set
# stays in L2 while it still spreads numpy's per-call cost (BENCH_31.json).
CHUNK = 4

# Upper-triangle indices in lexicographic (i, j) order, i < j.  This fixes
# the element order of every pairwise-distance vector.
_TRIU = np.triu_indices(N_LANDMARKS, k=1)
PAIR_INDICES = np.stack(_TRIU, axis=1)
# Pairs are in lexicographic order, so landmark i is the first endpoint of
# the next 67 - i pairs: repeating each landmark that often gives the first
# endpoints of all pairs
_FIRST_REPEATS = np.arange(N_LANDMARKS - 1, -1, -1)
# The same pairs as indices of cells in a flat (68, 3) set, (2, 3, 2278):
# [first or second landmark, x y or z, pair]
_TRIU_CELLS = np.stack([np.arange(3)[:, None] + 3 * i for i in _TRIU])

# Left/right landmark correspondence under the x -> -x mirror.
_MIRROR_PAIRS = (
    # jawline
    [(i, 16 - i) for i in range(8)]
    # eyebrows
    + [(17 + i, 26 - i) for i in range(5)]
    # nostrils
    + [(31, 35), (32, 34)]
    # eyes
    + [(36, 45), (37, 44), (38, 43), (39, 42), (40, 47), (41, 46)]
    # outer lip
    + [(48, 54), (49, 53), (50, 52), (59, 55), (58, 56)]
    # inner lip
    + [(60, 64), (61, 63), (67, 65)]
)

MIRROR_INDEX = np.arange(N_LANDMARKS)
for _a, _b in _MIRROR_PAIRS:
    MIRROR_INDEX[_a] = _b
    MIRROR_INDEX[_b] = _a


def check_landmarks(points: np.ndarray) -> np.ndarray:
    """Validate and return a (68, 3) float array of finite coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (N_LANDMARKS, 3):
        raise ValueError(f"landmark set must have shape (68, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("landmark set contains non-finite coordinates")
    return pts


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of each matrix in a stack)."""
    return a.swapaxes(-1, -2)


def center(points: np.ndarray) -> np.ndarray:
    """Translate a point set (each set of a stack) so its centroid is at
    the origin."""
    pts = np.asarray(points, dtype=float)
    # the sum and division np.mean makes, without its per-call cost
    return pts - np.add.reduce(pts, axis=-2, keepdims=True) / pts.shape[-2]


# Entries of the three elementary rotations Rx, Ry, Rz, as indices into
# [cos x, cos y, cos z, sin x, sin y, sin z, -sin x, -sin y, -sin z, 1, 0].
_ELEMENTARY = np.array([
    9, 10, 10, 10, 0, 6, 10, 3, 0,   # Rx
    1, 10, 4, 10, 9, 10, 7, 10, 1,   # Ry
    2, 8, 10, 5, 2, 10, 10, 10, 9,   # Rz
])


def _wrap_angle(a: float) -> float:
    """One angle wrapped into (-pi, pi], as :class:`Pose` wraps a stack."""
    a = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if a == -math.pi else a


@dataclass
class Pose:
    """Rigid head pose: intrinsic X-Y-Z Euler angles (rad) + translation (mm).

    Both fields have shape (3,), or (n, 3) for a stack of n poses.
    """

    rotation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        # wrap into (-pi, pi]; an infinite angle becomes NaN without a warning
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape == (3,):
            # one pose: Python's float % rounds as np.remainder does
            self.rotation = np.array([_wrap_angle(a) for a in rot.tolist()])
        else:
            with np.errstate(invalid="ignore"):
                rot = np.remainder(rot + math.pi, 2.0 * math.pi)
            rot -= math.pi
            rot[rot == -math.pi] = math.pi
            self.rotation = rot
        self.translation = np.asarray(self.translation, dtype=float).copy()
        if (
            self.rotation.shape[-1:] != (3,)
            or self.rotation.ndim > 2
            or self.translation.shape != self.rotation.shape
        ):
            raise ValueError(
                "pose needs 3 rotation angles and 3 translation values "
                "(or (n, 3) arrays of each for a stack)"
            )

    def matrix(self) -> np.ndarray:
        """Rotation matrix for the intrinsic X-Y-Z angles, (3, 3) or (n, 3, 3)."""
        lead = self.rotation.shape[:-1]
        entries = np.empty(lead + (11,))
        np.cos(self.rotation, out=entries[..., 0:3])
        np.sin(self.rotation, out=entries[..., 3:6])
        np.negative(entries[..., 3:6], out=entries[..., 6:9])
        entries[..., 9] = 1.0
        entries[..., 10] = 0.0
        # (..., 3, 3, 3) with the elementary-rotation axis moved to the front
        rx, ry, rz = entries[..., _ELEMENTARY].reshape(lead + (3, 3, 3)).swapaxes(0, -3)
        return rx @ ry @ rz


def apply_pose(points: np.ndarray, pose: Pose) -> np.ndarray:
    """Rotate then translate a landmark set (face frame -> camera frame)."""
    r = pose.matrix()
    return np.asarray(points, dtype=float) @ _t(r) + pose.translation[..., None, :]


def derotate(points: np.ndarray, pose: Pose) -> np.ndarray:
    """Undo a pose and centre the result at the centroid origin.

    Inverse of :func:`apply_pose` up to the centring: the returned set is
    the camera-frame input expressed in the face frame with centroid 0.
    """
    r = pose.matrix()
    face = (np.asarray(points, dtype=float) - pose.translation[..., None, :]) @ r
    return center(face)


def pair_distances(points: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Euclidean distances between landmarks ``first[k]`` and ``second[k]``,
    one vector per set: shape (k,), or (n, k) for a stack."""
    pts = np.asarray(points, dtype=float)
    # take gathers about twice as fast as fancy indexing, and keeps a
    # stacked result C-ordered
    diff = np.take(pts, first, axis=-2) - np.take(pts, second, axis=-2)
    diff *= diff
    return _lengths(diff[..., 0], diff[..., 1], diff[..., 2])


def _lengths(x2: np.ndarray, y2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Euclidean lengths of difference vectors from their squared x, y and
    z components.

    The squares are summed as (x² + z²) + y²: the order numpy's einsum
    kernel took on x86-64 (numpy 2.4), which measured these lengths before,
    so they keep their bits.
    """
    out = x2 + z2
    out += y2
    return np.sqrt(out, out=out)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """All 2278 unordered inter-landmark Euclidean distances.

    Element order is lexicographic by (i, j) with i < j, matching
    ``PAIR_INDICES``.  Invariant under any rigid transform of the input.
    A stack of n sets gives an (n, 2278) array, measured ``CHUNK`` sets at
    a time: the temporaries take about 55 kB per set, so they stay near
    220 kB each however long the stack.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        # one set: one gather of both endpoints' cells of the flat set, laid
        # out component by component, is faster than gathering rows
        cells = pts.take(_TRIU_CELLS)
        diff = cells[0] - cells[1]
        diff *= diff
        return _lengths(*diff)
    # a stack: each gather reads one contiguous (n, 68) coordinate plane
    planes = np.ascontiguousarray(pts.transpose(2, 0, 1))
    out = np.empty((len(pts), N_PAIRS))
    for start in range(0, len(pts), CHUNK):
        block = planes[:, start:start + CHUNK]
        diff = block.repeat(_FIRST_REPEATS, axis=-1)
        diff -= block.take(_TRIU[1], axis=-1)
        diff *= diff
        out[start:start + CHUNK] = _lengths(*diff)
    return out


def pair_index(i: int, j: int) -> int:
    """Flat index of pair (i, j) within a pairwise-distance vector."""
    if i == j:
        raise ValueError("pair needs two distinct landmark indices")
    if i > j:
        i, j = j, i
    if not 0 <= i < j < N_LANDMARKS:
        raise ValueError(f"landmark indices out of range: ({i}, {j})")
    return _triu_offset(i, j)


def pair_indices(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """:func:`pair_index` of each pair (``first[k]``, ``second[k]``) of two
    int arrays; the first pair it would reject raises its error."""
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    bad = (lo == hi) | (lo < 0) | (hi >= N_LANDMARKS)
    if bad.any():
        k = int(np.argmax(bad))
        pair_index(int(first[k]), int(second[k]))
    return _triu_offset(lo, hi)


def _triu_offset(i, j):
    """Flat index of pairs i < j: ints, or int arrays of equal shape."""
    # offset of row i in the upper triangle, then column offset
    return i * (2 * N_LANDMARKS - i - 1) // 2 + (j - i - 1)


# The rank check's bound.  A Gram matrix srcᵀ src divided by its trace has
# eigenvalues μ1 ≥ μ2 ≥ μ3 ≥ 0 that sum to 1, so the sum of its principal
# 2 × 2 minors, e2 = μ1μ2 + μ1μ3 + μ2μ3, is at most 3·μ1μ2 ≤ 3·μ2/μ1.  A set
# with e2 ≥ _CLEAR_E2 thus has σ2/σ1 = √(μ2/μ1) ≥ 1e-3, far above the
# check's 1e-9 whatever the rounding, and needs no SVD.  Dividing by the
# trace keeps the products in range; a trace below _MIN_TRACE may have lost
# its bits to underflow, and one that overflowed is not finite, so such a
# set goes to the SVD as well.
_CLEAR_E2 = 3e-6
_MIN_TRACE = 1e-290


def _bound_clears(upper, trace):
    """Whether Gram matrices of upper triangles ``(a, b, c, e, f, i)`` and
    ``trace`` have e2 ≥ ``_CLEAR_E2``: Python floats, or arrays of sets."""
    a, b, c, e, f, i = (x / trace for x in upper)
    return a * e - b * b + a * i - c * c + e * i - f * f >= _CLEAR_E2


def _first_rank_deficient(src: np.ndarray) -> int | None:
    """Index of the first centred set (0 for one set) that spans fewer than
    two dimensions, σ1 ≤ 0 or σ2 ≤ 1e-9·σ1 of its singular values, or None.

    Only the sets the Gram bound cannot clear get an SVD.
    """
    if src.ndim == 2:
        # one set: the bound in Python floats costs less than array steps
        with np.errstate(over="ignore", invalid="ignore"):
            (a, b, c), (_, e, f), (_, _, i) = (src.T @ src).tolist()
        trace = a + e + i
        if _MIN_TRACE < trace < math.inf and _bound_clears((a, b, c, e, f, i), trace):
            return None
        unsure = np.zeros(1, dtype=int)
    else:
        with np.errstate(all="ignore"):  # a set out of the bound's range is unsure
            gram = (_t(src) @ src).reshape(-1, 9).T
            trace = gram[0] + gram[4] + gram[8]
            cleared = (_MIN_TRACE < trace) & (trace < math.inf)
            cleared &= _bound_clears(gram[[0, 1, 2, 4, 5, 8]], trace)  # upper triangle
        unsure = np.flatnonzero(~cleared)
        if not len(unsure):
            return None
    spread = np.linalg.svd(src.reshape((-1,) + src.shape[-2:])[unsure], compute_uv=False)
    top, second = spread.T[0], spread.T[1]
    bad = unsure[(top <= 0.0) | (second <= 1e-9 * top)]
    return int(bad[0]) if len(bad) else None


def procrustes_align(
    source: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate ``source`` onto ``reference`` minimising the Frobenius misfit.

    Both sets are centred internally; no scaling is applied.  Returns the
    aligned (centred, rotated) source and the proper rotation matrix R
    (det +1, reflections corrected) with ``aligned[i] = R @ centred_source[i]``.

    A stack of sources (n, N, 3) is aligned set by set, onto one shared
    reference (N, 3) or onto a stack of references of the source's shape;
    it returns (n, N, 3) aligned sets and (n, 3, 3) rotations.

    Raises AlignmentDegenerateError when a source spans fewer than two
    dimensions, which leaves the rotation underdetermined; for a stack the
    message and the error's ``index`` name the first such frame.  A source
    whose coordinates are not finite, or so near the end of the float range
    that its centring or its cross-covariance with the reference overflows,
    aligns to NaN, with a NaN rotation.
    """
    src = center(source)
    ref = center(reference)
    if ref.shape not in (src.shape, src.shape[-2:]):
        raise ValueError("source and reference must have the same shape")
    cross = _t(src) @ ref
    # a NaN or inf in the centred source reaches its cross-covariance too
    finite = np.isfinite(cross).all(axis=(-2, -1))
    if not finite.all():  # the reference stands in for such a source, then NaN replaces it
        src = np.where(finite[..., None, None], src, ref)
        cross = _t(src) @ ref

    i = _first_rank_deficient(src)
    if i is not None:
        where = f"frame {i}: " if src.ndim > 2 else ""
        raise AlignmentDegenerateError(
            f"{where}source landmarks are rank-deficient; rotation is underdetermined", i
        )

    u, _, vt = np.linalg.svd(cross)
    vu = _t(vt) @ _t(u)
    if vu.ndim == 2:
        # one set: vu is orthogonal, so its determinant is +-1 and the
        # cofactor expansion has the sign LU gives
        (a, b, c), (e, f, g), (h, i, j) = vu.tolist()
        d = np.sign(a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h))
    else:
        d = np.sign(np.linalg.det(vu))
    # diag(1, 1, d), multiplied in as the single-set algebra has it
    flip = np.zeros(d.shape + (3, 3))
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = d
    rot = _t(vt) @ flip @ _t(u)
    aligned = src @ _t(rot)
    if not finite.all():
        aligned[~finite] = rot[~finite] = np.nan
    return aligned, rot
