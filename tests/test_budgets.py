"""Work budgets: what a flow may cost, counted rather than timed."""

import tracemalloc

import numpy as np

from headlearn.dataset import save_dataset
from headlearn.geometry import CHUNK, N_LANDMARKS, N_PAIRS, pairwise_distances

MB = 2**20


def traced_peak(fn, *args) -> int:
    """The ``tracemalloc`` peak, in bytes, of one call ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudgets:
    def test_pairwise_distances_of_a_stack_stays_near_its_output(self):
        # the (500, 2278) output takes 8.7 MB; the coordinate planes and one
        # block's temporaries fit in 1.5 MB more (32-set blocks took 4.2 MB)
        pts = np.random.default_rng(0).normal(scale=30.0, size=(500, N_LANDMARKS, 3))
        pairwise_distances(pts[:CHUNK + 1])  # warm caches
        peak = traced_peak(pairwise_distances, pts)
        assert peak - 500 * N_PAIRS * 8 <= 1.5 * MB, peak

    def test_save_dataset_never_holds_the_file_text(self, default_dataset, tmp_path):
        # 500 rows write 2.0 MB of text; a block of rows at a time takes
        # about 0.9 MB, and building the file's text whole takes more than 1.5
        assert len(default_dataset) == 500
        peak = traced_peak(save_dataset, default_dataset, tmp_path / "d")
        assert (tmp_path / "d" / "frames.csv").stat().st_size > 1.5 * MB
        assert peak < 1.5 * MB, peak
