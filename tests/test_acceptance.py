"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; tolerances are
fixed here and must not be loosened.  The expensive steps (full default
collection, the four-way comparison with grid search) run once per session
via fixtures.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from headlearn.analysis import compare_representations, low_correlation_features, pearson_matrix
from headlearn.dataset import (
    CollectionProtocol,
    HumanFrame,
    collect,
    ingest_openface_csv,
    load_dataset,
    save_dataset,
    split,
)
from headlearn.geometry import Pose, center, pairwise_distances, procrustes_align
from headlearn.learn import (
    DEFAULT_PCA_CANDIDATES,
    default_grid,
    mlp_init,
    mlp_loss_and_grads,
    pca_fit,
)
from headlearn.retarget import (
    EMOTIONS,
    calibrate_human,
    evaluate_pipeline,
    facs_target,
    fit_pipeline,
    load_model,
    retarget_frame,
    save_model,
)
from headlearn.simulator import random_command

from conftest import frames_from_simulator, random_rigid
from test_learn import central_difference_grads


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def comparison(default_dataset):
    t0 = time.time()
    report_table = compare_representations(default_dataset, split_seed=0)
    return report_table, time.time() - t0


class TestCriterion1OracleRecovery:
    def test_noiseless_landmark_pipeline_recovers_commands(self, quiet_head):
        t0 = time.time()
        d = collect(quiet_head, CollectionProtocol(rng_seed=0))
        train, test = split(d, 0.2, 0)
        model = fit_pipeline(train, "landmarks", regressor="ols", pca_k=17, seed=0)
        per_channel = evaluate_pipeline(model, test)
        elapsed = time.time() - t0
        report(
            1,
            bool(np.max(per_channel) < 0.5 and elapsed < 10.0),
            f"noiseless landmarks+LR (PCA 17) held-out RMSE max "
            f"{np.max(per_channel):.3f} < 0.5, runtime {elapsed:.1f}s < 10s",
        )


class TestCriterion2TrendReproduction:
    def test_representation_ordering(self, comparison):
        table, elapsed = comparison
        means = dict(zip(table.columns, table.column_means()))
        ordering = (
            means["distances_lr"] < means["landmarks_lr"] < means["au_lr"]
        )
        mlp_ok = means["au_mlp"] <= means["au_lr"]
        report(
            2,
            bool(ordering and mlp_ok and elapsed < 900.0),
            "mean test RMSE "
            f"Dist {means['distances_lr']:.3f} < Landm {means['landmarks_lr']:.3f} "
            f"< AU {means['au_lr']:.3f}; AU+MLP {means['au_mlp']:.3f} <= AU+LR; "
            f"runtime {elapsed:.0f}s < 900s",
        )


class TestCriterion3ProtocolCounts:
    def test_default_collection_counts(self, default_dataset):
        counts = default_dataset.meta["recorded_frames"]
        ok = (
            len(default_dataset) == 500
            and counts["neutral"] == 1500
            and counts["interp"] == 4 * 499
            and np.array_equal(default_dataset.frame_ids, np.arange(500))
        )
        report(
            3,
            bool(ok),
            f"500 target rows, {counts['neutral']} neutral and "
            f"{counts['interp']} interpolation frames recorded, none as rows",
        )


class TestCriterion4PcaCorrectness:
    def test_evr_against_brute_force(self):
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(50, 10)) * rng.uniform(0.2, 2.0, size=10)
            model = pca_fit(x, 10)
            cov = np.cov(x - x.mean(axis=0), rowvar=False)
            oracle = np.sort(np.linalg.eigvalsh(cov))[::-1]
            oracle = oracle / oracle.sum()
            worst = max(worst, float(np.max(np.abs(model.explained_variance_ratio - oracle))))
            assert np.all(np.diff(np.cumsum(model.explained_variance_ratio)) >= -1e-15)
        candidates_ok = DEFAULT_PCA_CANDIDATES == tuple(range(3, 40, 2))
        report(
            4,
            bool(worst < 1e-9 and candidates_ok),
            f"EVR vs covariance eigenvalues within {worst:.2e} < 1e-9 on 50x10 "
            f"fixtures; candidate list is {{3,5,...,39}}",
        )


class TestCriterion5ProcrustesRecovery:
    def test_hundred_seeded_recoveries(self):
        worst_err, worst_det = 0.0, 1.0
        rng = np.random.default_rng(123)
        ref = center(rng.normal(scale=30.0, size=(68, 3)))
        for _ in range(100):
            q, _ = random_rigid(rng)
            source = ref @ q.T
            _, rot = procrustes_align(source, ref)
            worst_err = max(worst_err, float(np.linalg.norm(rot - q.T)))
            worst_det = min(worst_det, float(np.linalg.det(rot)))
        report(
            5,
            bool(worst_err < 1e-9 and abs(worst_det - 1.0) < 1e-9),
            f"100 random rotations recovered, worst Frobenius error "
            f"{worst_err:.2e} < 1e-9, det(R) = +1",
        )


class TestCriterion6DistanceInvariance:
    def test_distances_and_retargeting_invariant(self, default_dataset, default_head):
        rng = np.random.default_rng(7)
        pts = rng.normal(scale=30.0, size=(68, 3))
        base = pairwise_distances(pts)
        worst = 0.0
        for _ in range(100):
            q, t = random_rigid(rng)
            worst = max(worst, float(np.max(np.abs(pairwise_distances(pts @ q.T + t) - base))))

        train, _ = split(default_dataset, 0.2, 0)
        model = fit_pipeline(train, "distances", regressor="ols",
                             pca_candidates=(9, 13, 17), seed=0)
        commands = [random_command(default_head, rng) for _ in range(10)]
        rows = frames_from_simulator(default_head, commands, rng_seed=3)
        frames = [
            HumanFrame(
                landmarks=np.asarray(r["landmarks"]), aus=np.asarray(r["aus"]),
                pose=Pose(rotation=r["rotation"], translation=r["translation"]),
                timestamp=r["timestamp"], confidence=r["confidence"],
            )
            for r in rows
        ]
        model = calibrate_human(model, frames)
        stable = True
        for frame in frames[:5]:
            cmd = retarget_frame(model, frame)
            for _ in range(5):
                q, t = random_rigid(rng)
                moved = dataclasses.replace(frame, landmarks=frame.landmarks @ q.T + t)
                stable = stable and retarget_frame(model, moved) == cmd
        report(
            6,
            bool(worst < 1e-9 and stable),
            f"pairwise distances invariant within {worst:.2e} < 1e-9 over 100 rigid "
            f"transforms; distance-kind retargeting emits identical commands",
        )


class TestCriterion7MlpGradientCheck:
    def test_all_grid_activations(self):
        worst = 0.0
        activations = default_grid().activations
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        for activation in activations:
            weights, biases = mlp_init([3, 4, 2], activation, np.random.default_rng(6))
            _, gw, gb = mlp_loss_and_grads(weights, biases, activation, 1e-3, x, y)
            nw, nb = central_difference_grads(weights, biases, activation, 1e-3, x, y)
            for a, n in zip(gw + gb, nw + nb):
                rel = np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-8))
                worst = max(worst, float(rel))
        report(
            7,
            bool(worst < 1e-5),
            f"analytic vs central-difference gradients within {worst:.2e} < 1e-5 "
            f"for activations {activations}",
        )


class TestCriterion8CorrelationDiagnostics:
    def test_inert_au_pruned(self, default_dataset):
        m = pearson_matrix(default_dataset.commands, default_dataset.aus)
        pruned = low_correlation_features(m, 0.2)
        bounded = bool(np.all(np.abs(m.r) <= 1.0))
        report(
            8,
            bool(pruned == [10] and bounded),
            f"inert synthetic AU pruned at default threshold (pruned={pruned}); "
            f"all coefficients within [-1, 1]",
        )


class TestCriterion9FacsTargets:
    EXPECTED = {
        "anger": {4, 7, 23},
        "disgust": {9, 15},
        "fear": {1, 2, 4, 5, 7, 20, 26},
        "happy": {6, 12},
        "sadness": {1, 4, 15},
        "surprise": {1, 2, 5, 26},
    }

    def test_emotion_sets_and_min_fill_range(self, default_dataset):
        sets_ok = all(
            set(EMOTIONS[name]) == aus for name, aus in self.EXPECTED.items()
        )
        train, _ = split(default_dataset, 0.2, 0)
        model = fit_pipeline(train, "au", seed=0)
        stats = model.au_stats_full
        in_range = True
        for name in EMOTIONS:
            target = facs_target(name, stats, "min")
            in_range = in_range and bool(
                np.all(target >= stats.mins - 1e-12) and np.all(target <= stats.maxs + 1e-12)
            )
        report(
            9,
            bool(sets_ok and in_range),
            "six built-in emotions carry the expected maximized-AU sets; "
            "min_fill targets stay inside the training range",
        )


class TestCriterion10RoundTrips:
    def test_dataset_model_and_csv_round_trips(self, default_dataset, default_head, tmp_path):
        # dataset: bitwise-identical files after save -> load -> save
        save_dataset(default_dataset, tmp_path / "a")
        loaded = load_dataset(tmp_path / "a")
        save_dataset(loaded, tmp_path / "b")
        dataset_ok = filecmp.cmp(tmp_path / "a" / "frames.csv", tmp_path / "b" / "frames.csv",
                                 shallow=False)
        dataset_ok = dataset_ok and np.array_equal(loaded.distances, default_dataset.distances)

        # model: bit-identical predictions
        train, test = split(default_dataset, 0.2, 0)
        model = fit_pipeline(train, "landmarks", pca_k=17, seed=0)
        save_model(model, tmp_path / "m.json")
        reloaded = load_model(tmp_path / "m.json")
        model_ok = np.array_equal(
            model.predict_raw(model.dataset_features(test)),
            reloaded.predict_raw(reloaded.dataset_features(test)),
        )

        # tracker CSV: field-exact ingestion of a synthetic fixture
        rng = np.random.default_rng(11)
        commands = [random_command(default_head, rng) for _ in range(3)]
        rows = frames_from_simulator(default_head, commands, rng_seed=13)
        from conftest import openface_csv_text

        (tmp_path / "of.csv").write_text(openface_csv_text(rows))
        frames = ingest_openface_csv(tmp_path / "of.csv")
        csv_ok = len(frames) == 3 and all(
            np.array_equal(f.landmarks, np.asarray(r["landmarks"]))
            and np.array_equal(f.aus, np.asarray(r["aus"]))
            and f.timestamp == r["timestamp"]
            for f, r in zip(frames, rows)
        )
        report(
            10,
            bool(dataset_ok and model_ok and csv_ok),
            "dataset save/load lossless; model predictions bit-identical after "
            "reload; tracker CSV fixture ingests field-exact",
        )
