import os
import sys

# One BLAS thread, whatever the environment asks for: the pinned digests
# of BLAS-summed outputs hold only for one thread (with two, the pins of
# compare_representations and fit_pipeline move), and the suite's small
# matmuls gain nothing from more.  OpenBLAS reads these when numpy is
# first imported, so under pytest that must not have happened yet.  (A
# script that imports this file for its helpers, without pytest, is not
# checked.)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if "numpy" in sys.modules and "pytest" in sys.modules:
    import pytest

    raise pytest.UsageError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread "
        "(by a plugin loaded with -p or by an entry point); the pinned outputs "
        "assume one thread, so run without that plugin"
    )

import dataclasses
import hashlib

import numpy as np
import pytest

from headlearn.dataset import CollectionProtocol, collect, split
from headlearn.default_head import build_default_head
from headlearn.geometry import N_LANDMARKS
from headlearn.simulator import CHANNELS


@pytest.fixture(scope="session")
def default_head():
    return build_default_head()


@pytest.fixture(scope="session")
def quiet_head(default_head):
    """Default head with sensor noise and pose jitter zeroed."""
    return dataclasses.replace(
        default_head,
        landmark_noise_sigma=0.0,
        pose_jitter_max_rotation=0.0,
        pose_jitter_max_translation=0.0,
    )


@pytest.fixture(scope="session")
def small_dataset(default_head):
    """Quick noisy dataset for unit tests (not the full 500-row protocol)."""
    return collect(default_head, CollectionProtocol(n_target_frames=60, rng_seed=7))


@pytest.fixture(scope="session")
def default_dataset(default_head):
    """The full default collection at seed 0 (the acceptance protocol)."""
    return collect(default_head, CollectionProtocol(rng_seed=0))


@pytest.fixture(scope="session")
def default_split(default_dataset):
    return split(default_dataset, 0.2, 0)


def array_sha256(a):
    """SHA-256 over an array's dtype, shape and C-order bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def random_rigid(rng):
    """A uniformly random proper rotation and a translation."""
    a = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    t = rng.uniform(-50.0, 50.0, size=3)
    return q, t


def openface_csv_text(frames):
    """Render HumanFrame-like rows as an OpenFace 2.0 FeatureExtraction CSV.

    ``frames`` is an iterable of dicts with keys: landmarks (68, 3), aus
    (17,), pose (rotation, translation), timestamp, confidence.
    """
    from headlearn.features import AU_IDS

    header = (
        ["frame", "timestamp", "confidence"]
        + [f"pose_T{ax}" for ax in "xyz"]
        + [f"pose_R{ax}" for ax in "xyz"]
        + [f"X_{i}" for i in range(N_LANDMARKS)]
        + [f"Y_{i}" for i in range(N_LANDMARKS)]
        + [f"Z_{i}" for i in range(N_LANDMARKS)]
        + [f"AU{au:02d}_r" for au in AU_IDS]
    )
    lines = [", ".join(header)]
    for n, f in enumerate(frames):
        pts = np.asarray(f["landmarks"])
        row = [n, f["timestamp"], f["confidence"]]
        row += list(np.asarray(f["translation"], dtype=float))
        row += list(np.asarray(f["rotation"], dtype=float))
        row += [repr(float(v)) for v in pts[:, 0]]
        row += [repr(float(v)) for v in pts[:, 1]]
        row += [repr(float(v)) for v in pts[:, 2]]
        row += [repr(float(v)) for v in np.asarray(f["aus"])]
        lines.append(", ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def without_pose_columns(text):
    """OpenFace CSV ``text`` with its six ``pose_*`` columns removed."""
    lines = text.splitlines()
    names = lines[0].split(",")
    keep = [i for i, name in enumerate(names) if not name.strip().startswith("pose_")]
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in lines)


def frames_from_simulator(head, commands, rng_seed=5):
    """Observe a command sequence and package it as OpenFace-style rows.

    AU intensities come from the synthetic extractor on aligned landmarks,
    like a tracker would report them.
    """
    from headlearn.features import extract_aus
    from headlearn.geometry import center, derotate, pairwise_distances, procrustes_align
    from headlearn.simulator import HeadSimulator

    sim = HeadSimulator(head)
    reference = center(head.neutral_landmarks)
    baseline = pairwise_distances(reference)
    rng = np.random.default_rng(rng_seed)
    rows = []
    for i, cmd in enumerate(commands):
        frame = sim.observe(cmd)
        aligned, _ = procrustes_align(
            derotate(frame.landmarks_observed, frame.pose), reference
        )
        rows.append({
            "landmarks": frame.landmarks_observed,
            "aus": extract_aus(head.au_defs, aligned, baseline, rng),
            "rotation": frame.pose.rotation,
            "translation": frame.pose.translation,
            "timestamp": i / 30.0,
            "confidence": 0.98,
        })
    return rows


def assert_valid_command(cmd):
    assert set(cmd.values) == set(CHANNELS)
    for v in cmd.values.values():
        assert isinstance(v, int)
        assert 0 <= v <= 255
