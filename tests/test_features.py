import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headlearn.errors import ConfigError
from headlearn.features import (
    AU_IDS,
    AU_INDEX,
    AUDef,
    AUReadout,
    MinMaxStats,
    extract_aus,
    fit_minmax,
    minmax_map,
    window_average,
)
from headlearn.geometry import N_LANDMARKS, pair_index, pairwise_distances


def full_au_defs(overrides=None):
    """One AUDef per id, default inert; overrides replace single entries."""
    defs = {au: AUDef(au) for au in AU_IDS}
    for au, d in (overrides or {}).items():
        defs[au] = d
    return list(defs.values())


def spread_landmarks():
    """A non-degenerate base landmark set for AU tests."""
    rng = np.random.default_rng(42)
    return rng.normal(scale=30.0, size=(N_LANDMARKS, 3))


class TestAUDef:
    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            AUDef(3)

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            AUDef(1, weights=[(0, 99, 1.0)])

    def test_unknown_crosstalk_id_rejected(self):
        with pytest.raises(ConfigError, match="crosstalk"):
            AUDef(1, crosstalk=[(3, 0.1)])

    def test_round_trip(self):
        d = AUDef(12, weights=[(48, 54, 0.25)], bias=0.4, noise_sigma=0.1,
                  crosstalk=[(6, 0.2)])
        assert AUDef.from_dict(d.to_dict()) == d


class TestExtractAus:
    def test_neutral_landmarks_zero_bias_give_zero(self):
        pts = spread_landmarks()
        baseline = pairwise_distances(pts)
        defs = full_au_defs({au: AUDef(au, weights=[(0, 16, 0.5)]) for au in AU_IDS})
        out = extract_aus(defs, pts, baseline, rng=None)
        assert np.allclose(out, 0.0)

    def test_unit_weight_pair_reads_distance_change(self):
        # single AU with one unit-weight pair; pair grows by exactly 2 mm
        pts = spread_landmarks()
        pts[0] = (0.0, 0.0, 0.0)
        pts[16] = (10.0, 0.0, 0.0)
        baseline = pairwise_distances(pts)
        moved = pts.copy()
        moved[16] = (12.0, 0.0, 0.0)
        defs = full_au_defs({1: AUDef(1, weights=[(0, 16, 1.0)])})
        out = extract_aus(defs, moved, baseline, rng=None)
        assert out[AU_INDEX[1]] == pytest.approx(2.0, abs=1e-12)
        assert np.all(out[1:] == 0.0)

    def test_clipping_to_intensity_scale(self):
        pts = spread_landmarks()
        baseline = pairwise_distances(pts)
        defs = full_au_defs({1: AUDef(1, bias=7.3), 2: AUDef(2, bias=-3.0)})
        out = extract_aus(defs, pts, baseline, rng=None)
        assert out[AU_INDEX[1]] == 5.0
        assert out[AU_INDEX[2]] == 0.0

    def test_missing_definition_raises(self):
        pts = spread_landmarks()
        defs = [AUDef(au) for au in AU_IDS[:-1]]
        with pytest.raises(ConfigError):
            extract_aus(defs, pts, pairwise_distances(pts), rng=None)

    def test_duplicate_definition_raises(self):
        pts = spread_landmarks()
        defs = full_au_defs() + [AUDef(1)]
        with pytest.raises(ConfigError):
            extract_aus(defs, pts, pairwise_distances(pts), rng=None)

    def test_crosstalk_adds_preclip_base_values(self):
        pts = spread_landmarks()
        baseline = pairwise_distances(pts)
        defs = full_au_defs({
            1: AUDef(1, bias=2.0),
            2: AUDef(2, bias=0.5, crosstalk=[(1, 0.5)]),
        })
        out = extract_aus(defs, pts, baseline, rng=None)
        assert out[AU_INDEX[2]] == pytest.approx(0.5 + 0.5 * 2.0)

    def test_noise_is_deterministic_under_seed(self):
        pts = spread_landmarks()
        baseline = pairwise_distances(pts)
        defs = full_au_defs({au: AUDef(au, bias=1.0, noise_sigma=0.3) for au in AU_IDS})
        a = extract_aus(defs, pts, baseline, np.random.default_rng(3))
        b = extract_aus(defs, pts, baseline, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_stack_equals_loop(self, default_head):
        rng = np.random.default_rng(5)
        pts = default_head.neutral_landmarks + rng.normal(scale=1.0, size=(11, N_LANDMARKS, 3))
        baseline = pairwise_distances(default_head.neutral_landmarks)
        stacked = extract_aus(default_head.au_defs, pts, baseline, np.random.default_rng(6))
        loop_rng = np.random.default_rng(6)
        loop = [extract_aus(default_head.au_defs, p, baseline, loop_rng) for p in pts]
        assert stacked.shape == (11, len(AU_IDS))
        assert np.array_equal(stacked, np.array(loop))

    def test_readout_measures_only_weighted_pairs(self):
        pts = spread_landmarks()
        defs = full_au_defs({
            1: AUDef(1, weights=[(16, 0, 1.0), (3, 5, 0.5)]),
            2: AUDef(2, weights=[(0, 16, -1.0)]),
        })
        readout = AUReadout(defs)
        assert readout.pairs.tolist() == sorted({pair_index(0, 16), pair_index(3, 5)})
        assert np.array_equal(readout.distances(pts), pairwise_distances(pts)[readout.pairs])

    def test_output_always_inside_intensity_range(self):
        rng = np.random.default_rng(4)
        pts = spread_landmarks()
        baseline = pairwise_distances(pts)
        defs = full_au_defs({
            au: AUDef(au, weights=[(0, 16, 2.0)], bias=rng.normal(), noise_sigma=2.0)
            for au in AU_IDS
        })
        for _ in range(20):
            moved = pts + rng.normal(scale=5.0, size=pts.shape)
            out = extract_aus(defs, moved, baseline, rng)
            assert np.all(out >= 0.0) and np.all(out <= 5.0)


class TestMinMax:
    def test_fit_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_minmax(np.empty((0, 3)))
        with pytest.raises(ValueError):
            fit_minmax(np.ones((1, 3)))

    def test_extrema_by_inspection(self):
        s = fit_minmax(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.array_equal(s.mins, [0.0, 0.0])
        assert np.array_equal(s.maxs, [1.0, 2.0])

    def test_order_free(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4))
        a = fit_minmax(x)
        b = fit_minmax(x[::-1])
        assert np.array_equal(a.mins, b.mins) and np.array_equal(a.maxs, b.maxs)

    def test_map_identity_when_stats_equal(self):
        s = fit_minmax(np.array([[0.0, 1.0], [4.0, 3.0]]))
        x = np.array([1.0, 2.0])
        assert np.allclose(minmax_map(x, s, s), x, atol=1e-12)

    def test_map_endpoints(self):
        src = MinMaxStats([0.0, 0.0], [1.0, 1.0])
        dst = MinMaxStats([10.0, -5.0], [20.0, 5.0])
        assert np.allclose(minmax_map(src.mins, src, dst), dst.mins)
        assert np.allclose(minmax_map(src.maxs, src, dst), dst.maxs)

    def test_map_affine_arithmetic(self):
        src = MinMaxStats([0.0], [10.0])
        dst = MinMaxStats([50.0], [250.0])
        assert minmax_map(np.array([5.0]), src, dst)[0] == pytest.approx(150.0)

    def test_degenerate_source_maps_to_target_midpoint(self):
        src = MinMaxStats([3.0, 0.0], [3.0, 1.0])
        dst = MinMaxStats([0.0, 0.0], [10.0, 10.0])
        out = minmax_map(np.array([3.0, 0.5]), src, dst)
        assert out[0] == pytest.approx(5.0)
        assert out[1] == pytest.approx(5.0)

    def test_dimension_and_kind_mismatch(self):
        a = MinMaxStats([0.0], [1.0])
        b = MinMaxStats([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            minmax_map(np.array([0.5]), a, b)
        # the kinds differ in width, so au stats never map onto landmark stats
        au = MinMaxStats(np.zeros(17), np.ones(17))
        landmarks = MinMaxStats(np.zeros(204), np.ones(204))
        with pytest.raises(ValueError):
            minmax_map(np.full(17, 0.5), au, landmarks)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, x, seed):
        rng = np.random.default_rng(seed)
        samples_a = rng.uniform(-10, 10, size=(5, 3))
        samples_b = rng.uniform(5, 25, size=(5, 3))
        # force non-degenerate spans
        samples_a[0] -= 1.0
        samples_b[0] += 1.0
        a = fit_minmax(samples_a)
        b = fit_minmax(samples_b)
        x = np.asarray(x)
        back = minmax_map(minmax_map(x, a, b), b, a)
        assert np.allclose(back, x, atol=1e-9)


class TestWindowAverage:
    def test_window_one_is_identity(self):
        x = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(window_average(x, 1), x)

    def test_constant_block_returns_the_constant(self):
        x = np.tile([2.0, 3.0], (7, 1))
        out = window_average(x, 7)
        assert out.shape == (1, 2)
        assert np.allclose(out[0], [2.0, 3.0])

    def test_block_means(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert np.array_equal(window_average(x, 2), [[1.5], [3.5]])

    def test_trailing_partial_block_dropped(self):
        x = np.arange(7.0)[:, None]
        out = window_average(x, 3)
        assert out.shape == (2, 1)
        assert np.array_equal(out[:, 0], [1.0, 4.0])

    def test_preserves_mean_over_complete_blocks(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(21, 5))
        out = window_average(x, 7)
        assert np.allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            window_average(np.ones((4, 2)), 0)
        with pytest.raises(ValueError):
            window_average(np.ones((2, 2)), 3)
