import numpy as np

from headlearn.default_head import build_default_head, load_default_head
from headlearn.features import AU_IDS
from headlearn.simulator import CHANNELS


class TestDefaultHead:
    def test_builder_digest_pinned(self):
        pinned = "f4f70997126acc2f2d967fe6fab54e8bfa39e9338af17b12ca2a27593840867b"
        assert build_default_head().sha256() == pinned
        assert load_default_head().sha256() == pinned

    def test_covers_all_channels_and_aus(self, default_head):
        assert sorted(a.channel for a in default_head.actuators) == sorted(CHANNELS)
        assert sorted(d.au for d in default_head.au_defs) == sorted(AU_IDS)

    def test_all_actuators_symmetric(self, default_head):
        # every controllable movement of this head is a mirrored pair
        assert all(a.symmetric for a in default_head.actuators)

    def test_has_an_inert_au(self, default_head):
        # one AU reads nothing from the landmarks (no actuator reaches its
        # region); it must still carry detection noise
        inert = [d for d in default_head.au_defs if not d.weights]
        assert [d.au for d in inert] == [10]
        assert inert[0].noise_sigma > 0

    def test_au_noise_heavier_than_landmark_noise(self, default_head):
        # intensities live on a 0-5 scale, landmarks on tens of millimetres;
        # relative to scale the AU channel is the noisy one
        au_rel = min(d.noise_sigma for d in default_head.au_defs) / 5.0
        lm_rel = default_head.landmark_noise_sigma / 100.0
        assert au_rel > lm_rel

    def test_eyelids_cannot_cross(self, default_head):
        # combined lid travel stays under the neutral eye opening, so the
        # lid-gap distances never fold through zero
        neutral = default_head.neutral_landmarks
        gap = neutral[37, 1] - neutral[41, 1]
        dense = {a.channel: a.dense_basis() for a in default_head.actuators}
        closure = -(dense[1][37, 1]) + dense[4][41, 1] + dense[7][41, 1]
        assert closure < gap

    def test_full_activation_stays_plausible(self, default_head):
        from headlearn.simulator import ActuatorCommand, forward

        cmd = ActuatorCommand({ch: 255 for ch in CHANNELS})
        out = forward(default_head, cmd)
        disp = np.linalg.norm(out - default_head.neutral_landmarks, axis=1)
        assert disp.max() < 40.0  # no landmark flies off the face
