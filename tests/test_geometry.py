import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from headlearn.errors import AlignmentDegenerateError
from headlearn.geometry import (
    CHUNK,
    MIRROR_INDEX,
    N_LANDMARKS,
    N_PAIRS,
    PAIR_INDICES,
    Pose,
    apply_pose,
    center,
    derotate,
    pair_distances,
    pair_index,
    pairwise_distances,
    procrustes_align,
)

from conftest import random_rigid


def random_face(rng):
    return rng.normal(scale=30.0, size=(N_LANDMARKS, 3))


class TestPose:
    def test_identity_matrix(self):
        assert np.allclose(Pose().matrix(), np.eye(3))

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = Pose(rotation=rng.uniform(-3, 3, 3)).matrix()
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_angles_wrap_into_half_open_interval(self):
        p = Pose(rotation=[3 * math.pi, -math.pi, 0.1])
        assert np.all(p.rotation > -math.pi)
        assert np.all(p.rotation <= math.pi)
        # -pi lands on the +pi end of the interval
        assert p.rotation[0] == pytest.approx(math.pi)
        assert p.rotation[1] == pytest.approx(math.pi)

    @pytest.mark.parametrize("rotation, translation", [
        (0.5, 0.5),
        ([0.1, 0.2], [0.0, 0.0]),
        (np.zeros((2, 2, 3)), np.zeros((2, 2, 3))),
        (np.zeros(3), np.zeros((1, 3))),
    ], ids=["scalar", "two-angles", "3-d", "shapes-differ"])
    def test_malformed_pose_is_a_value_error(self, rotation, translation):
        with pytest.raises(ValueError, match=r"^pose needs 3 rotation angles"):
            Pose(rotation=rotation, translation=translation)

    def test_intrinsic_xyz_order(self):
        # rotation about x alone moves y toward z
        p = Pose(rotation=[math.pi / 2, 0, 0])
        out = apply_pose(np.array([[0.0, 1.0, 0.0]] * N_LANDMARKS), p)
        assert np.allclose(out[0], [0, 0, 1], atol=1e-12)


class TestDerotate:
    def test_identity_pose_centers_input(self):
        rng = np.random.default_rng(2)
        pts = random_face(rng) + 100.0
        out = derotate(pts, Pose())
        assert np.allclose(out, center(pts), atol=1e-12)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_round_trip_recovers_centered_points(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = random_face(rng)
            pose = Pose(rotation=rng.uniform(-1, 1, 3), translation=rng.uniform(-40, 40, 3))
            back = derotate(apply_pose(pts, pose), pose)
            assert np.allclose(back, center(pts), atol=1e-9)

    def test_output_centroid_is_origin(self):
        rng = np.random.default_rng(4)
        pose = Pose(rotation=[0.3, -0.2, 0.5], translation=[10, 20, 30])
        out = derotate(random_face(rng), pose)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)


class TestPairwiseDistances:
    def test_coincident_points_give_zeros(self):
        pts = np.ones((N_LANDMARKS, 3)) * 5.0
        assert np.all(pairwise_distances(pts) == 0.0)

    def test_output_length(self):
        rng = np.random.default_rng(5)
        assert pairwise_distances(random_face(rng)).shape == (N_PAIRS,)
        assert N_PAIRS == 68 * 67 // 2

    def test_rigid_invariance(self):
        rng = np.random.default_rng(6)
        pts = random_face(rng)
        base = pairwise_distances(pts)
        for _ in range(20):
            q, t = random_rigid(rng)
            moved = pts @ q.T + t
            assert np.allclose(pairwise_distances(moved), base, atol=1e-9)

    def test_pair_order_is_lexicographic(self):
        # oracle: brute-force enumeration of the documented order
        expected = [(i, j) for i in range(N_LANDMARKS) for j in range(i + 1, N_LANDMARKS)]
        assert [tuple(p) for p in PAIR_INDICES] == expected

    def test_pair_index_matches_enumeration(self):
        for flat, (i, j) in enumerate(PAIR_INDICES):
            assert pair_index(int(i), int(j)) == flat
        assert pair_index(5, 3) == pair_index(3, 5)
        with pytest.raises(ValueError):
            pair_index(3, 3)
        with pytest.raises(ValueError):
            pair_index(0, 68)

    def test_known_distance(self):
        pts = np.zeros((N_LANDMARKS, 3))
        pts[1] = (3.0, 4.0, 0.0)
        assert pairwise_distances(pts)[pair_index(0, 1)] == pytest.approx(5.0)


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(7)
        pts = center(random_face(rng))
        aligned, rot = procrustes_align(pts, pts)
        assert np.allclose(rot, np.eye(3), atol=1e-12)
        assert np.allclose(aligned, pts, atol=1e-12)

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(8)
        ref = center(random_face(rng))
        for _ in range(20):
            q, _ = random_rigid(rng)
            source = ref @ q.T  # source = q applied to reference
            aligned, rot = procrustes_align(source, ref)
            assert np.allclose(rot, q.T, atol=1e-9)
            assert np.allclose(aligned, ref, atol=1e-9)

    def test_rotation_is_proper(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_face(rng), random_face(rng)
            _, rot = procrustes_align(a, b)
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-10)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)

    def test_alignment_never_increases_misfit(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b = center(random_face(rng)), center(random_face(rng))
            aligned, _ = procrustes_align(a, b)
            assert np.linalg.norm(aligned - b) <= np.linalg.norm(a - b) + 1e-9

    def test_degenerate_source_raises(self):
        collinear = np.zeros((N_LANDMARKS, 3))
        collinear[:, 0] = np.arange(N_LANDMARKS)
        with pytest.raises(AlignmentDegenerateError):
            procrustes_align(collinear, collinear[::-1])
        with pytest.raises(AlignmentDegenerateError):
            procrustes_align(np.zeros((N_LANDMARKS, 3)), collinear)


    def test_overflowing_source_aligns_to_nan(self):
        # a set whose centring or cross-covariance overflows, or that holds
        # a NaN, aligns to NaN; every other set of the stack as it aligns alone
        rng = np.random.default_rng(11)
        ref = random_face(rng)
        pts = np.stack([random_face(rng) for _ in range(6)])
        pts[1, [5, 9], 0] = 1.7e308      # the centring overflows
        pts[3, 5, 0] = pts[3, 40, 2] = 1.7e308  # the cross-covariance overflows
        pts[4, 7, 1] = np.nan
        bad = [1, 3, 4]
        with np.errstate(over="ignore", invalid="ignore"):
            aligned, rots = procrustes_align(pts, ref)
            for i, p in enumerate(pts):
                a, r = procrustes_align(p, ref)
                if i in bad:
                    assert np.isnan(a).all() and np.isnan(r).all()
                    assert np.isnan(aligned[i]).all() and np.isnan(rots[i]).all()
                else:
                    assert np.array_equal(aligned[i], a) and np.array_equal(rots[i], r)
        assert np.isfinite(center(pts[3])).all()


class TestMirror:
    def test_mirror_map_is_involution(self):
        assert np.all(MIRROR_INDEX[MIRROR_INDEX] == np.arange(N_LANDMARKS))

    def test_midline_points_map_to_themselves(self):
        for idx in (8, 27, 28, 29, 30, 33, 51, 57, 62, 66):
            assert MIRROR_INDEX[idx] == idx


class TestStackEqualsLoop:
    """Each stacked call equals the per-frame calls, bit for bit."""

    n = 9

    def faces(self, seed):
        return np.random.default_rng(seed).normal(scale=30.0, size=(self.n, N_LANDMARKS, 3))

    def test_pose_wrap_and_matrix(self):
        rng = np.random.default_rng(20)
        # random angles, then rows of the edge angles of the wrap
        edges = [np.pi, -np.pi, 3 * np.pi, -3 * np.pi, np.inf, -np.inf, np.nan,
                 -0.0, 1e-300, -1e-300, 1e300]
        rot = np.concatenate([rng.uniform(-10, 10, (self.n, 3)),
                              np.reshape(edges + [0.0], (-1, 3))])
        trans = rng.uniform(-40, 40, rot.shape)
        poses = Pose(rotation=rot, translation=trans)
        assert poses.matrix().shape == (len(rot), 3, 3)
        for i in range(len(rot)):
            one = Pose(rotation=rot[i], translation=trans[i])
            assert poses.rotation[i].tobytes() == one.rotation.tobytes()
            assert poses.matrix()[i].tobytes() == one.matrix().tobytes()

    def test_center(self):
        pts = self.faces(21)
        assert np.array_equal(center(pts), np.array([center(p) for p in pts]))

    def test_apply_pose_and_derotate(self):
        rng = np.random.default_rng(22)
        rot, trans = rng.uniform(-3.5, 3.5, (self.n, 3)), rng.uniform(-40, 40, (self.n, 3))
        pts, poses = self.faces(22), Pose(rotation=rot, translation=trans)
        for fn in (apply_pose, derotate):
            loop = [fn(p, Pose(rotation=r, translation=t)) for p, r, t in zip(pts, rot, trans)]
            assert np.array_equal(fn(pts, poses), np.array(loop))

    def test_wrapping_wrapped_angles_keeps_their_bits(self):
        # so a pose built from part of a stack's angles derotates that part
        # as the stack does
        rng = np.random.default_rng(29)
        rot = np.concatenate([rng.uniform(-10, 10, (3000, 3)), rng.uniform(-4, 4, (3000, 3)),
                              np.pi + rng.normal(scale=1e-12, size=(300, 3)),
                              -np.pi + rng.normal(scale=1e-12, size=(300, 3)),
                              rng.normal(scale=1e-300, size=(300, 3))])
        poses = Pose(rotation=rot, translation=rng.uniform(-40, 40, rot.shape))
        again = Pose(rotation=poses.rotation, translation=poses.translation)
        assert again.rotation.tobytes() == poses.rotation.tobytes()
        held = rng.random(len(rot)) < 0.7
        part = Pose(rotation=poses.rotation[held], translation=poses.translation[held])
        pts = rng.normal(scale=30.0, size=(len(rot), N_LANDMARKS, 3))
        assert np.array_equal(derotate(pts[held], part), derotate(pts, poses)[held])

    def test_procrustes_align_shared_and_stacked_reference(self):
        pts, refs = self.faces(23), self.faces(24)
        aligned, rots = procrustes_align(pts, refs[0])
        for i, p in enumerate(pts):
            a, r = procrustes_align(p, refs[0])
            assert np.array_equal(aligned[i], a) and np.array_equal(rots[i], r)
        aligned, rots = procrustes_align(pts, refs)
        for i, (p, ref) in enumerate(zip(pts, refs)):
            a, r = procrustes_align(p, ref)
            assert np.array_equal(aligned[i], a) and np.array_equal(rots[i], r)

    def test_procrustes_rejects_mismatched_stacks(self):
        pts = self.faces(25)
        with pytest.raises(ValueError):
            procrustes_align(pts, pts[:-1])

    def test_pairwise_distances(self):
        pts = self.faces(26)
        stacked = pairwise_distances(pts)
        assert stacked.shape == (self.n, N_PAIRS) and stacked.flags.c_contiguous
        assert np.array_equal(stacked, np.array([pairwise_distances(p) for p in pts]))

    def test_pairwise_distances_over_chunks(self):
        # two full chunks of CHUNK and a partial third
        n = 3 * CHUNK - 1
        pts = np.random.default_rng(28).normal(scale=30.0, size=(n, N_LANDMARKS, 3))
        assert 2 * CHUNK < len(pts) < 3 * CHUNK
        stacked = pairwise_distances(pts)
        assert np.array_equal(stacked, np.array([pairwise_distances(p) for p in pts]))

    @given(
        n=st.integers(1, 2 * CHUNK + 3),
        exponent=st.integers(-100, 100),
        seed=st.integers(0, 2**32 - 1),
        shared=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_set_equals_its_stacked_row_and_the_norm(self, n, exponent, seed, shared):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=10.0**exponent, size=(n, N_LANDMARKS, 3))
        pts[:, :shared] = pts[:, shared:2 * shared]  # coincident landmarks
        stacked = pairwise_distances(pts)
        first, second = PAIR_INDICES.T
        for p, row in zip(pts, stacked):
            one = pairwise_distances(p)
            assert one.tobytes() == row.tobytes()
            norm = np.linalg.norm(p[first] - p[second], axis=1)
            np.testing.assert_allclose(one, norm, rtol=1e-15, atol=0.0)

    def test_pair_distances_are_the_selected_columns(self):
        pts = self.faces(27)
        pairs = np.array([3, 70, 2277, 1000])
        first, second = PAIR_INDICES[pairs].T
        assert np.array_equal(pair_distances(pts, first, second), pairwise_distances(pts)[:, pairs])
        assert np.array_equal(
            pair_distances(pts[0], first, second), pairwise_distances(pts[0])[pairs]
        )


def _orthonormal(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return q


class TestProcrustesProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(1e-6, 1e-2), st.booleans())
    def test_proper_rotation_for_near_planar_and_reflected(self, seed, thickness, reflect):
        rng = np.random.default_rng(seed)
        ref = rng.normal(scale=30.0, size=(N_LANDMARKS, 3))
        ref[:, 2] *= thickness  # a nearly flat face
        src = ref @ _orthonormal(seed + 1).T
        if reflect:
            src[:, 0] *= -1.0  # a mirror image: no rotation maps it back
        _, rot = procrustes_align(src, ref)
        assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)
        # the same holds for each rotation of a stack
        _, rots = procrustes_align(np.stack([src, ref]), ref)
        assert np.allclose(np.linalg.det(rots), 1.0, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(1, 8), st.data())
    def test_degenerate_frame_in_stack_names_its_index(self, seed, n, data):
        bad = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=30.0, size=(n, N_LANDMARKS, 3))
        pts[bad] = 0.0
        pts[bad, :, 0] = np.arange(N_LANDMARKS)  # collinear
        with pytest.raises(AlignmentDegenerateError, match=f"^frame {bad}: "):
            procrustes_align(pts, pts[0] if bad else pts[-1])


def _thin_set(thickness, exponent, seed):
    """68 points on a random line, moved off it by ``thickness`` times a
    face-sized spread, all at scale ``10**exponent``."""
    rng = np.random.default_rng(seed)
    line = rng.normal(scale=30.0, size=(N_LANDMARKS, 1)) * rng.normal(size=3)
    off = thickness * rng.normal(scale=30.0, size=(N_LANDMARKS, 3))
    return (line + off) * 10.0 ** exponent


def _svd_rule_first_bad(sets):
    """The rank check by an SVD of each centred set: index of the first set
    with σ1 ≤ 0 or σ2 ≤ 1e-9·σ1, or None."""
    spread = np.linalg.svd(center(sets), compute_uv=False)
    bad = (spread[:, 0] <= 0.0) | (spread[:, 1] <= 1e-9 * spread[:, 0])
    return int(np.flatnonzero(bad)[0]) if bad.any() else None


class TestRankCheck:
    """``procrustes_align`` rejects exactly the sets an SVD rejects, though
    it clears most sets by a bound on their Gram matrix."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(
            # off-line thickness: collinear, then 1e-12 ... 1e-1, then a face
            st.sampled_from([0.0] + [10.0 ** -k for k in range(12, -1, -1)]),
            # decimal scale: the Gram trace falls below 1e-290 under about
            # 1e-146, and overflows above about 1e152
            st.integers(-170, 155),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1, max_size=6,
    ))
    # collinear at 1e-100: a bound not divided by the trace underflows to 0 >= 0
    @example([(1.0, 0, 1), (0.0, -100, 2)])
    @example([(1e-12, -120, 3), (1.0, 155, 4), (1e-9, 0, 5), (1e-6, -170, 6)])
    def test_rejects_what_the_svd_rule_rejects(self, sets):
        pts = np.stack([_thin_set(*s) for s in sets])
        ref = np.random.default_rng(0).normal(scale=30.0, size=(N_LANDMARKS, 3))
        for one in pts:
            if _svd_rule_first_bad(one[None]) is None:
                procrustes_align(one, ref)
            else:
                with pytest.raises(AlignmentDegenerateError, match="^source landmarks"):
                    procrustes_align(one, ref)
        first_bad = _svd_rule_first_bad(pts)
        if first_bad is None:
            aligned, _ = procrustes_align(pts, ref)
            assert np.isfinite(aligned).all()
        else:
            with pytest.raises(AlignmentDegenerateError, match=f"^frame {first_bad}: ") as err:
                procrustes_align(pts, ref)
            assert err.value.index == first_bad
