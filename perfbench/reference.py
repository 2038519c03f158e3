"""A fixed reference computation that uses no headlearn code.

The untraced run times it around and inside every pass and reports the
pass's wall time in units of it (``pass_ref``).  On a host whose speed
drifts with its neighbours' load, the reference slows down with the
program, so the ratio holds where wall time does not.  Its mix follows the
program's: per 68-point face, a centring, a 3x3 SVD and a rotation in
numpy, then some Python dict and sort work.  It takes about 7 ms.
"""

from __future__ import annotations

import time

import numpy as np

_FACES = np.random.default_rng(20241217).normal(size=(32, 68, 3))
_ROUNDS = 4


def reference_s() -> float:
    """Wall time of one run of the reference computation, in seconds."""
    t = time.perf_counter()
    for face in _FACES:
        for _ in range(_ROUNDS):
            c = face - face.mean(axis=0)
            u, _, vt = np.linalg.svd(c.T @ c)
            c = c @ (u @ vt)
            np.linalg.norm(c, axis=1)
            table = {k: (k, k * 0.5) for k in range(30)}
            sorted(table, key=lambda k: -k)
    return time.perf_counter() - t
