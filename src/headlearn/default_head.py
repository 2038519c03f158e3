"""Built-in head configuration.

A canonical, bilaterally symmetric 68-point neutral face (mm; x to the
subject's left, y up, z toward the camera) plus hand-authored displacement
bases for the nine controllable channels: upper eyelid down, lower eyelid
up, eyebrow up, eyebrow shrink, mouth corner up, mouth corner back, lip
shrink, lips open, jaw down.  All nine movements are symmetric, driven by
a single actuator each.

``build_default_head()`` is the only source of this configuration; the
CLI's ``gen-head`` writes it out as JSON.
"""

from __future__ import annotations

import numpy as np

from .features import AUDef
from .geometry import MIRROR_INDEX, N_LANDMARKS
from .simulator import ActuatorDef, HeadConfig

# Authored half-face: subject-right side (x < 0) and midline points.
# The left side is generated by mirroring.
_HALF_FACE = {
    # jawline (0-7 right side, 8 chin)
    0: (-63.0, 35.0, -30.0),
    1: (-61.0, 18.0, -28.0),
    2: (-58.0, 2.0, -25.0),
    3: (-53.0, -14.0, -20.0),
    4: (-45.0, -28.0, -12.0),
    5: (-35.0, -40.0, -2.0),
    6: (-23.0, -50.0, 6.0),
    7: (-12.0, -57.0, 12.0),
    8: (0.0, -60.0, 14.0),
    # right eyebrow (17 outer - 21 inner)
    17: (-45.0, 42.0, 2.0),
    18: (-37.0, 46.0, 6.0),
    19: (-28.0, 48.0, 8.0),
    20: (-19.0, 46.0, 9.0),
    21: (-11.0, 43.0, 9.0),
    # nose bridge (midline) and base
    27: (0.0, 36.0, 12.0),
    28: (0.0, 26.0, 16.0),
    29: (0.0, 16.0, 20.0),
    30: (0.0, 6.0, 24.0),
    31: (-14.0, -2.0, 12.0),
    32: (-7.0, -4.0, 15.0),
    33: (0.0, -5.0, 17.0),
    # right eye (36 outer corner, 37-38 upper lid, 39 inner corner, 40-41 lower lid)
    36: (-38.0, 30.0, 0.0),
    37: (-31.0, 35.0, 3.0),
    38: (-23.0, 35.0, 3.0),
    39: (-16.0, 30.0, 2.0),
    40: (-23.0, 26.0, 2.0),
    41: (-31.0, 26.0, 1.0),
    # outer lip (48 right corner, 49-50 right upper, 51 top mid,
    # 57 bottom mid, 58-59 right lower)
    48: (-26.0, -26.0, 8.0),
    49: (-17.0, -21.0, 12.0),
    50: (-7.0, -18.0, 14.0),
    51: (0.0, -19.0, 15.0),
    57: (0.0, -36.0, 13.0),
    58: (-7.0, -35.0, 13.0),
    59: (-17.0, -32.0, 11.0),
    # inner lip (60 right corner, 61 right upper, 62 top mid,
    # 66 bottom mid, 67 right lower)
    60: (-22.0, -26.0, 9.0),
    61: (-7.0, -23.0, 13.0),
    62: (0.0, -24.0, 14.0),
    66: (0.0, -29.0, 13.0),
    67: (-7.0, -28.0, 13.0),
}


def _neutral_landmarks() -> np.ndarray:
    pts = np.full((N_LANDMARKS, 3), np.nan)
    for idx, xyz in _HALF_FACE.items():
        pts[idx] = xyz
    for idx in range(N_LANDMARKS):
        m = MIRROR_INDEX[idx]
        if np.isnan(pts[idx]).any():
            pts[idx] = pts[m] * (-1.0, 1.0, 1.0)
    # centre the centroid so aligned observations compare directly
    return pts - pts.mean(axis=0)


def _sym(entries: list[tuple[int, float, float, float]]) -> list[tuple[int, float, float, float]]:
    """Complete a half-authored symmetric basis by mirroring each entry."""
    out = []
    for idx, dx, dy, dz in entries:
        out.append((idx, dx, dy, dz))
        m = int(MIRROR_INDEX[idx])
        if m != idx:
            out.append((m, -dx, dy, dz))
    return sorted(out)


def _actuators() -> list[ActuatorDef]:
    # Depth components follow each region's pivot: the jaw swings back as it
    # opens, brows slide over the skull curve, the mouth ring recedes under
    # pucker and corner-back.  Neighbouring landmarks follow the actuation
    # point so soft tissue moves coherently.
    return [
        ActuatorDef(1, "upper eyelid down", _sym([
            (37, 0.0, -3.4, 1.6), (38, 0.0, -3.4, 1.6),
            (36, 0.0, -2.4, 1.3), (39, 0.0, -2.4, 1.3),
        ])),
        ActuatorDef(4, "lower eyelid up", _sym([
            (40, 0.0, 1.6, 0.9), (41, 0.0, 1.6, 0.9),
            (36, 0.0, 0.9, 0.7), (39, 0.0, 0.9, 0.7),
        ])),
        ActuatorDef(5, "eyebrow up", _sym([
            (17, 0.0, 4.2, -3.6), (18, 0.0, 4.7, -4.0), (19, 0.0, 4.9, -4.2),
            (20, 0.0, 4.7, -4.0), (21, 0.0, 4.4, -3.8),
        ])),
        ActuatorDef(6, "eyebrow shrink", _sym([
            (21, 4.4, -2.0, 1.6), (20, 3.3, -1.6, 1.4), (19, 2.3, -1.0, 1.1),
            (18, 1.4, -0.4, 0.8), (17, 0.8, 0.0, 0.6),
        ])),
        ActuatorDef(7, "mouth corner up", _sym([
            (48, -1.2, 5.2, 1.4), (60, -1.1, 4.7, 1.3),
            (49, -0.6, 3.2, 0.9), (61, -0.3, 1.9, 0.5),
            (50, -0.1, 2.0, 0.5), (51, 0.0, 1.4, 0.4), (62, 0.0, 1.1, 0.3),
            (59, -0.6, 2.9, 0.8), (67, -0.3, 1.6, 0.5),
            (58, -0.1, 1.7, 0.5), (57, 0.0, 1.2, 0.4), (66, 0.0, 0.9, 0.3),
            # cheek follow-through: lower lid and nose wing lift slightly
            (40, 0.0, 0.8, 0.0), (41, 0.0, 0.5, 0.0),
            (31, 0.6, 1.0, 0.2), (32, 0.3, 0.6, 0.1),
            (4, 0.0, 1.2, 0.8),
        ])),
        ActuatorDef(8, "mouth corner back", _sym([
            (48, -0.9, 0.0, -5.8), (60, -0.8, 0.0, -5.1),
            (49, -0.3, 0.0, -3.2), (61, -0.1, 0.0, -2.3),
            (59, -0.3, 0.0, -3.1), (67, -0.1, 0.0, -2.2),
            (50, 0.0, 0.0, -1.9), (58, 0.0, 0.0, -1.7),
            (51, 0.0, 0.0, -1.5), (57, 0.0, 0.0, -1.4),
            (62, 0.0, 0.0, -1.2), (66, 0.0, 0.0, -1.1),
        ])),
        ActuatorDef(9, "lip shrink", _sym([
            (48, 2.8, 0.0, 2.0), (60, 2.4, 0.0, 1.8),
            (49, 1.6, -0.2, 1.3), (61, 1.1, -0.1, 1.1),
            (59, 1.6, 0.2, 1.3), (67, 1.1, 0.1, 1.1),
            (50, 0.7, -0.1, 1.4), (58, 0.7, 0.1, 1.4),
            (51, 0.0, 0.0, 1.7), (57, 0.0, 0.0, 1.7),
            (62, 0.0, 0.0, 1.5), (66, 0.0, 0.0, 1.5),
        ])),
        ActuatorDef(10, "lips open", _sym([
            (49, 0.0, 1.6, 0.3), (50, 0.0, 2.0, 0.4), (51, 0.0, 2.2, 0.4),
            (61, 0.0, 2.3, 0.5), (62, 0.0, 2.5, 0.5),
            (59, 0.0, -1.8, -0.4), (58, 0.0, -2.4, -0.5), (57, 0.0, -2.6, -0.5),
            (67, 0.0, -2.8, -0.6), (66, 0.0, -3.1, -0.6),
            (48, 0.0, -0.2, 0.0), (60, 0.0, -0.2, 0.0),
        ])),
        ActuatorDef(11, "jaw down", _sym([
            (8, 0.0, -7.8, -11.0),
            (7, 0.0, -7.3, -10.2), (6, 0.0, -6.2, -8.8),
            (5, 0.0, -4.6, -6.6), (4, 0.0, -2.8, -4.2),
            (3, 0.0, -1.3, -2.1), (2, 0.0, -0.5, -0.8),
            (57, 0.0, -6.1, -5.7), (58, 0.0, -5.8, -5.5),
            (66, 0.0, -3.3, -5.3), (67, 0.0, -3.1, -5.0),
            (59, 0.0, -4.7, -4.4),
            (48, 0.0, -3.0, -2.9), (60, 0.0, -3.0, -2.6),
            (49, 0.0, -0.9, -0.8), (50, 0.0, -0.4, -0.2), (51, 0.0, -0.2, -0.2),
            (61, 0.0, -0.5, -0.2), (62, 0.0, -0.3, -0.2),
        ])),
    ]


# Distance pairs used by the synthetic AU readouts.
_EYE_OPEN_PAIRS = [(37, 41), (38, 40), (43, 47), (44, 46)]


def _au_defs() -> list[AUDef]:
    noise = 0.12
    return [
        # inner brow raiser: inner brow to nose-bridge distance
        AUDef(1, [(21, 27, 0.40), (22, 27, 0.40)], bias=0.60, noise_sigma=noise),
        # outer brow raiser: outer brow to outer eye corner
        AUDef(2, [(17, 36, 0.35), (26, 45, 0.35)], bias=0.40, noise_sigma=noise),
        # brow lowerer: inter-brow gap shrinks
        AUDef(4, [(21, 22, -0.28)], bias=0.40, noise_sigma=noise),
        # upper lid raiser: eyes wider than neutral
        AUDef(5, [(i, j, 0.12) for i, j in _EYE_OPEN_PAIRS], bias=2.50, noise_sigma=noise),
        # cheek raiser: mouth corner approaches outer eye corner
        AUDef(6, [(36, 48, -0.15), (45, 54, -0.15)], bias=0.30, noise_sigma=noise,
              crosstalk=[(12, 0.15)]),
        # lid tightener: eyes narrower than neutral
        AUDef(7, [(i, j, -0.10) for i, j in _EYE_OPEN_PAIRS], bias=0.20, noise_sigma=noise,
              crosstalk=[(45, 0.10)]),
        # nose wrinkler: nose wing approaches mouth corner
        AUDef(9, [(31, 48, -0.20), (35, 54, -0.20)], bias=0.25, noise_sigma=noise,
              crosstalk=[(6, 0.20)]),
        # upper lip raiser: no actuator reaches the nose root, so this AU
        # reads nothing from the head (kept to mirror real tracker output)
        AUDef(10, [], bias=0.60, noise_sigma=0.18),
        # lip corner puller: mouth widens, corners leave the chin
        AUDef(12, [(48, 54, 0.25), (48, 8, 0.12), (54, 8, 0.12)], bias=0.40,
              noise_sigma=noise),
        # dimpler: corners pull back toward the jaw hinge
        AUDef(14, [(48, 2, -0.25), (54, 14, -0.25)], bias=0.30, noise_sigma=noise,
              crosstalk=[(12, 0.10)]),
        # lip corner depressor: corners sink away from the nose base
        AUDef(15, [(48, 33, 0.22), (54, 33, 0.22)], bias=0.50, noise_sigma=noise),
        # chin raiser: opposite of the chin dropping from the nose base
        AUDef(17, [(8, 33, -0.15)], bias=1.20, noise_sigma=noise),
        # lip stretcher: wide mouth, corners apart
        AUDef(20, [(48, 54, 0.15), (60, 64, 0.10)], bias=0.80, noise_sigma=noise),
        # lip tightener: corners pulled together (pucker)
        AUDef(23, [(48, 54, -0.20), (60, 64, -0.15)], bias=0.20, noise_sigma=noise),
        # lips part: inner-lip gap
        AUDef(25, [(62, 66, 0.30)], bias=0.10, noise_sigma=noise),
        # jaw drop: chin leaves the nose base
        AUDef(26, [(8, 33, 0.22)], bias=0.10, noise_sigma=noise),
        # blink: eyes shut
        AUDef(45, [(i, j, -0.14) for i, j in _EYE_OPEN_PAIRS], bias=0.05, noise_sigma=noise),
    ]


def build_default_head() -> HeadConfig:
    """Construct the built-in head configuration from scratch."""
    return HeadConfig(
        neutral_landmarks=_neutral_landmarks(),
        actuators=_actuators(),
        landmark_noise_sigma=0.003,
        pose_jitter_max_rotation=0.12,
        pose_jitter_max_translation=10.0,
        sensor_lag_frames=0,
        au_defs=_au_defs(),
        rng_seed=1234,
    )


def load_default_head() -> HeadConfig:
    """The built-in head configuration (same as :func:`build_default_head`)."""
    return build_default_head()
