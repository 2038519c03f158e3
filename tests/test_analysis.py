import numpy as np
import pytest

from headlearn.analysis import (
    CorrMatrix,
    compare_representations,
    low_correlation_features,
    pearson_matrix,
)
from headlearn.features import AU_IDS
from headlearn.learn import HyperGrid

from conftest import array_sha256


def pearson_oracle(a, b):
    """Direct-formula sample Pearson coefficient."""
    a = a - a.mean()
    b = b - b.mean()
    return float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))


class TestPearsonMatrix:
    def test_affine_relation_gives_unit_correlation(self):
        rng = np.random.default_rng(0)
        commands = rng.uniform(0, 255, size=(30, 9))
        features = np.tile(commands[:, 0:1] * 0.01 + 2.0, (1, 17))
        m = pearson_matrix(commands, features)
        assert m.r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse_relation(self):
        commands = np.zeros((3, 9))
        commands[:, 0] = [1.0, 2.0, 3.0]
        commands[:, 1:] = np.random.default_rng(1).uniform(size=(3, 8))
        features = np.ones((3, 17))
        features[:, 0] = [6.0, 4.0, 2.0]
        m = pearson_matrix(commands, features)
        assert m.r[0, 0] == pytest.approx(-1.0)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(2)
        commands = rng.uniform(0, 255, size=(20, 9))
        features = rng.uniform(0, 5, size=(20, 17))
        m = pearson_matrix(commands, features)
        for i in range(9):
            for j in range(17):
                assert m.r[i, j] == pytest.approx(
                    pearson_oracle(commands[:, i], features[:, j]), abs=1e-10
                )

    def test_zero_variance_column_marked_missing(self):
        rng = np.random.default_rng(3)
        commands = rng.uniform(0, 255, size=(15, 9))
        features = rng.uniform(0, 5, size=(15, 17))
        features[:, 4] = 1.25
        m = pearson_matrix(commands, features)
        assert np.all(m.missing[:, 4])
        assert not np.any(m.missing[:, :4])
        assert np.all(np.isfinite(m.r))

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            pearson_matrix(np.ones((1, 9)), np.ones((1, 17)))

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            pearson_matrix(np.ones((5, 9)), np.ones((6, 17)))

    def test_width_mismatch_names_the_expected_shapes(self):
        for commands, aus in (((5, 8), (5, 17)), ((5, 9), (5, 16))):
            with pytest.raises(ValueError, match=r"\(n, 9\) commands and \(n, 17\) AUs"):
                pearson_matrix(np.ones(commands), np.ones(aus))

    def test_entries_bounded(self):
        rng = np.random.default_rng(4)
        m = pearson_matrix(rng.normal(size=(25, 9)), rng.normal(size=(25, 17)))
        assert np.all(np.abs(m.r) <= 1.0)

    def test_invariant_to_positive_affine_rescaling(self):
        rng = np.random.default_rng(5)
        commands = rng.uniform(0, 255, size=(25, 9))
        features = rng.uniform(0, 5, size=(25, 17))
        base = pearson_matrix(commands, features)
        scaled = pearson_matrix(
            commands * rng.uniform(0.5, 3.0, size=9) + rng.normal(size=9),
            features * rng.uniform(0.5, 3.0, size=17) + rng.normal(size=17),
        )
        assert np.allclose(base.r, scaled.r, atol=1e-10)

    def test_csv_rendering_uses_missing_marker(self):
        commands = np.array([[0.0] * 9, [1.0] * 9])
        features = np.ones((2, 17))
        m = pearson_matrix(commands, features)
        text = m.to_csv_text()
        assert "NA" in text
        assert text.splitlines()[0].startswith("actuator,AU01")


class TestLowCorrelationFeatures:
    def matrix(self, r, missing=None):
        r = np.asarray(r, dtype=float)
        missing = np.zeros_like(r, dtype=bool) if missing is None else missing
        return CorrMatrix(r, missing)

    def test_all_zero_column_listed(self):
        r = np.full((9, 17), 0.5)
        r[:, 3] = 0.0
        assert low_correlation_features(self.matrix(r), 0.2) == [AU_IDS[3]]

    def test_threshold_zero_lists_nothing(self):
        r = np.zeros((9, 17))
        assert low_correlation_features(self.matrix(r), 0.0) == []

    def test_fully_missing_column_counts_as_zero(self):
        r = np.full((9, 17), 0.9)
        missing = np.zeros_like(r, dtype=bool)
        missing[:, 7] = True
        assert low_correlation_features(self.matrix(r, missing), 0.2) == [AU_IDS[7]]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            low_correlation_features(self.matrix(np.zeros((9, 17))), -0.1)

    def test_inert_default_au_pruned_from_pipeline(self, default_dataset):
        # the default head has one AU reading nothing from the geometry;
        # at the full protocol size its noise stays under the threshold
        m = pearson_matrix(default_dataset.commands, default_dataset.aus)
        assert low_correlation_features(m, 0.2) == [10]


@pytest.fixture(scope="module")
def tiny_report(small_dataset):
    # a fast comparison run: one-point MLP grid, few epochs
    grid = HyperGrid([1], [8], ["tanh"], [1e-2], [0.0])
    return compare_representations(small_dataset, split_seed=3, grid=grid, epochs=40)


class TestCompareRepresentations:
    def test_report_shape(self, tiny_report):
        assert tiny_report.values.shape == (9, 4)
        assert tiny_report.columns == ["au_lr", "au_mlp", "landmarks_lr", "distances_lr"]
        assert tiny_report.column_means().shape == (4,)

    def test_deterministic(self, small_dataset, tiny_report):
        grid = HyperGrid([1], [8], ["tanh"], [1e-2], [0.0])
        again = compare_representations(small_dataset, split_seed=3, grid=grid, epochs=40)
        assert np.array_equal(tiny_report.values, again.values)
        assert tiny_report.distance_pca_dim == again.distance_pca_dim

    def test_outputs_pinned(self, tiny_report):
        # default PCA candidates: the 48 training rows still allow k=39
        assert array_sha256(tiny_report.values) == (
            "0a7ef7b5d3ac099498783c77a002c8ee69f54b65dc277bed018b72359a44aa29"
        )
        assert tiny_report.distance_pca_dim == 39

    def test_renderings(self, tiny_report, tmp_path):
        text = tiny_report.to_text()
        assert "mean" in text and "Dist. + LR" in text
        tiny_report.to_csv(tmp_path / "cmp.csv")
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert lines[0] == "actuator,au_lr,au_mlp,landmarks_lr,distances_lr"
        assert len(lines) == 1 + 9 + 1
