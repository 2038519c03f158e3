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

# Sets of a stack processed per array step (here and in dataset collection):
# enough to spread numpy's per-call cost, few enough that the temporaries
# stay small (a 32-set step of pairwise distances takes about 5 MB).
CHUNK = 32

# Upper-triangle indices in lexicographic (i, j) order, i < j.  This fixes
# the element order of every pairwise-distance vector.
_TRIU = np.triu_indices(N_LANDMARKS, k=1)
PAIR_INDICES = np.stack(_TRIU, axis=1)

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
    return pts - pts.mean(axis=-2, keepdims=True)


# Entries of the three elementary rotations Rx, Ry, Rz, as indices into
# [cos x, cos y, cos z, sin x, sin y, sin z, -sin x, -sin y, -sin z, 1, 0].
_ELEMENTARY = np.array([
    9, 10, 10, 10, 0, 6, 10, 3, 0,   # Rx
    1, 10, 4, 10, 9, 10, 7, 10, 1,   # Ry
    2, 8, 10, 5, 2, 10, 10, 10, 9,   # Rz
])


@dataclass
class Pose:
    """Rigid head pose: intrinsic X-Y-Z Euler angles (rad) + translation (mm).

    Both fields have shape (3,), or (n, 3) for a stack of n poses.
    """

    rotation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        # wrap into (-pi, pi]; an infinite angle becomes NaN without a warning
        with np.errstate(invalid="ignore"):
            rot = np.remainder(np.asarray(self.rotation, dtype=float) + math.pi, 2.0 * math.pi)
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
    return np.sqrt(np.einsum("...ij,...ij->...i", diff, diff))


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """All 2278 unordered inter-landmark Euclidean distances.

    Element order is lexicographic by (i, j) with i < j, matching
    ``PAIR_INDICES``.  Invariant under any rigid transform of the input.
    A stack of n sets gives an (n, 2278) array, measured ``CHUNK`` sets at
    a time: the temporaries take about 170 kB per set, so they stay near
    5 MB however long the stack.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        return pair_distances(pts, *_TRIU)
    out = np.empty((len(pts), N_PAIRS))
    for start in range(0, len(pts), CHUNK):
        out[start:start + CHUNK] = pair_distances(pts[start:start + CHUNK], *_TRIU)
    return out


def pair_index(i: int, j: int) -> int:
    """Flat index of pair (i, j) within a pairwise-distance vector."""
    if i == j:
        raise ValueError("pair needs two distinct landmark indices")
    if i > j:
        i, j = j, i
    if not 0 <= i < j < N_LANDMARKS:
        raise ValueError(f"landmark indices out of range: ({i}, {j})")
    # offset of row i in the upper triangle, then column offset
    return i * (2 * N_LANDMARKS - i - 1) // 2 + (j - i - 1)


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
    message names the first such frame by its index.
    """
    src = center(source)
    ref = center(reference)
    if ref.shape not in (src.shape, src.shape[-2:]):
        raise ValueError("source and reference must have the same shape")

    spread = np.linalg.svd(src, compute_uv=False)
    top, second = spread.T[0], spread.T[1]
    bad = (top <= 0.0) | (second <= 1e-9 * top)
    if bad.any():
        where = f"frame {np.flatnonzero(bad)[0]}: " if src.ndim > 2 else ""
        raise AlignmentDegenerateError(
            f"{where}source landmarks are rank-deficient; rotation is underdetermined"
        )

    u, _, vt = np.linalg.svd(_t(src) @ ref)
    d = np.sign(np.linalg.det(_t(vt) @ _t(u)))
    # diag(1, 1, d), multiplied in as the single-set algebra has it
    flip = np.zeros(d.shape + (3, 3))
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = d
    rot = _t(vt) @ flip @ _t(u)
    return src @ _t(rot), rot
