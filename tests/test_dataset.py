import csv
import filecmp
import json

import numpy as np
import pytest

from headlearn.dataset import (
    CollectionProtocol,
    collect,
    ingest_openface_csv,
    load_dataset,
    save_dataset,
    split,
    split_indices,
)
from headlearn.errors import (
    DatasetCorruptError,
    OpenFaceFormatError,
    ProtocolError,
    ProvenanceWarning,
    UnsupportedVersionError,
)
from headlearn.geometry import N_LANDMARKS
from headlearn.simulator import CHANNELS

from conftest import array_sha256, openface_csv_text


class TestProtocol:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            CollectionProtocol(n_target_frames=0)
        with pytest.raises(ProtocolError):
            CollectionProtocol(neutral_fraction=1.0)
        with pytest.raises(ProtocolError):
            CollectionProtocol(interp_steps=-1)
        with pytest.raises(ProtocolError):
            CollectionProtocol(au_window=0)


class TestCollect:
    def test_default_ratio_counts_at_small_scale(self, default_head):
        d = collect(default_head, CollectionProtocol(n_target_frames=10, rng_seed=1))
        counts = d.meta["recorded_frames"]
        assert len(d) == 10
        assert counts["neutral"] == 30          # 75% of the neutral+target mix
        assert counts["target"] == 10 * 7       # each expression held one window
        assert counts["interp"] == 4 * 9        # between consecutive expressions

    def test_no_neutral_no_interp_stream_length(self, default_head):
        proto = CollectionProtocol(
            n_target_frames=10, neutral_fraction=0.0, interp_steps=0, rng_seed=1
        )
        d = collect(default_head, proto)
        counts = d.meta["recorded_frames"]
        assert len(d) == 10
        assert counts["neutral"] == 0 and counts["interp"] == 0
        assert counts["target"] == 10 * proto.au_window

    def test_rows_are_targets_only(self, small_dataset, tmp_path):
        assert np.array_equal(small_dataset.frame_ids, np.arange(len(small_dataset)))
        save_dataset(small_dataset, tmp_path / "d")
        with (tmp_path / "d" / "frames.csv").open(newline="") as fh:
            roles = [row["role"] for row in csv.DictReader(fh)]
        assert roles == ["target"] * len(small_dataset)

    def test_feature_shapes_consistent(self, small_dataset):
        n = len(small_dataset)
        assert small_dataset.aus.shape == (n, 17)
        assert small_dataset.landmarks.shape == (n, 204)
        assert small_dataset.distances.shape == (n, 2278)
        assert small_dataset.commands.shape == (n, 9)

    def test_landmark_rows_are_centered(self, small_dataset):
        pts = small_dataset.landmarks.reshape(len(small_dataset), N_LANDMARKS, 3)
        assert np.allclose(pts.mean(axis=1), 0.0, atol=1e-9)

    def test_distances_derive_from_stored_landmarks(self, small_dataset):
        from headlearn.geometry import pairwise_distances

        row = 3
        pts = small_dataset.landmarks[row].reshape(N_LANDMARKS, 3)
        assert np.array_equal(small_dataset.distances[row], pairwise_distances(pts))

    def test_same_seed_byte_identical_datasets(self, default_head, tmp_path):
        proto = CollectionProtocol(n_target_frames=8, rng_seed=9)
        for sub in ("a", "b"):
            save_dataset(collect(default_head, proto), tmp_path / sub)
        assert filecmp.cmp(tmp_path / "a" / "frames.csv", tmp_path / "b" / "frames.csv",
                           shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "metadata.json", tmp_path / "b" / "metadata.json",
                           shallow=False)

    def test_golden_fingerprint(self, tmp_path):
        # pins the persisted output of a seeded run, so a numeric drift in
        # collection or persistence fails here rather than passing as
        # "same result twice"
        import hashlib

        from headlearn.default_head import load_default_head

        d = collect(load_default_head(), CollectionProtocol(n_target_frames=60, rng_seed=0))
        save_dataset(d, tmp_path / "d")
        digest = hashlib.sha256((tmp_path / "d" / "frames.csv").read_bytes()).hexdigest()
        assert digest == "1d46d4a3bd0d1574ae6425e0120e7434a179c0fed7e0d60182c5e21f87884882"

    def test_golden_default_dataset(self, default_dataset):
        # pins all four arrays of the seed-0 500-row collection, including
        # the distances, which frames.csv does not store
        names = ("aus", "landmarks", "distances", "commands")
        assert {n: array_sha256(getattr(default_dataset, n)) for n in names} == {
            "aus": "95224ed075be28ef0e39f35474fde07f1de5303a0a3e7ad83ec5a9f7dfbef423",
            "landmarks": "65724e219cb1d73135bd29809e3ce2cd97f786c2675cdac4e2e2e68f3bbbc6c2",
            "distances": "a7634826860568bfbcd3163b8d3434646c336b51b51f2b192ed1bda70d5e827c",
            "commands": "206f77c2cba4e5dc8b0ca24f52988893389a319339ecaea333200aa1c2003c9e",
        }


class TestSplit:
    def test_partition_sizes(self, default_dataset):
        train, test = split(default_dataset, 0.2, 0)
        assert len(train) == 400 and len(test) == 100

    def test_disjoint_and_complete(self, small_dataset):
        train, test = split(small_dataset, 0.25, 3)
        train_ids = set(train.frame_ids.tolist())
        test_ids = set(test.frame_ids.tolist())
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(small_dataset.frame_ids.tolist())

    def test_same_seed_same_split(self, small_dataset):
        a = split(small_dataset, 0.25, 5)
        b = split(small_dataset, 0.25, 5)
        assert np.array_equal(a[0].commands, b[0].commands)
        assert np.array_equal(a[1].commands, b[1].commands)

    def test_indices_give_the_same_partition(self, small_dataset):
        for fraction, seed in ((0.25, 5), (0.2, 0)):
            train, test = split(small_dataset, fraction, seed)
            train_idx, test_idx = split_indices(len(small_dataset), fraction, seed)
            assert np.array_equal(small_dataset.frame_ids[train_idx], train.frame_ids)
            assert np.array_equal(small_dataset.frame_ids[test_idx], test.frame_ids)

    def test_fraction_bounds(self, small_dataset):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split(small_dataset, bad, 0)


class TestPersistence:
    def test_round_trip_is_lossless(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert len(loaded) == len(small_dataset)
        assert np.array_equal(loaded.commands, small_dataset.commands)
        assert np.array_equal(loaded.aus, small_dataset.aus)
        assert np.array_equal(loaded.landmarks, small_dataset.landmarks)
        assert np.array_equal(loaded.distances, small_dataset.distances)
        assert loaded.meta == small_dataset.meta
        assert np.array_equal(loaded.frame_ids, small_dataset.frame_ids)

    def test_truncated_file_raises_corruption(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "d")
        csv_path = tmp_path / "d" / "frames.csv"
        text = csv_path.read_text()
        csv_path.write_text(text[: int(len(text) * 0.7)])
        with pytest.raises(DatasetCorruptError):
            load_dataset(tmp_path / "d")

    def test_out_of_range_command_names_line(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "d")
        csv_path = tmp_path / "d" / "frames.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = "300"
        lines[2] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetCorruptError, match=":3:"):
            load_dataset(tmp_path / "d")

    def test_version_mismatch_raises(self, small_dataset, tmp_path):
        save_dataset(small_dataset, tmp_path / "d")
        meta_path = tmp_path / "d" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = "dataset/v999"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(UnsupportedVersionError):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("mutation", ["67 rows", "a NaN cell", "missing"])
    def test_malformed_neutral_reference_names_the_field(
        self, small_dataset, tmp_path, mutation
    ):
        save_dataset(small_dataset, tmp_path / "d")
        meta_path = tmp_path / "d" / "metadata.json"
        meta = json.loads(meta_path.read_text())
        if mutation == "67 rows":
            meta["neutral_reference"] = meta["neutral_reference"][:-1]
        elif mutation == "a NaN cell":
            meta["neutral_reference"][5][1] = float("nan")
        else:
            del meta["neutral_reference"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatasetCorruptError, match=r"metadata\.json: neutral_reference"):
            load_dataset(tmp_path / "d")

    def test_head_hash_mismatch_warns(self, small_dataset, quiet_head, tmp_path):
        save_dataset(small_dataset, tmp_path / "d")
        with pytest.warns(ProvenanceWarning):
            load_dataset(tmp_path / "d", head=quiet_head)

    def test_matching_head_does_not_warn(self, small_dataset, default_head, tmp_path):
        import warnings

        save_dataset(small_dataset, tmp_path / "d")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ProvenanceWarning)
            load_dataset(tmp_path / "d", head=default_head)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetCorruptError):
            load_dataset(tmp_path / "nope")


class TestOpenFaceIngestion:
    # a literal two-row fixture with hand-picked values
    def fixture_frames(self):
        pts_a = np.arange(204, dtype=float).reshape(68, 3)
        pts_b = pts_a + 0.5
        return [
            {
                "landmarks": pts_a,
                "aus": np.linspace(0.0, 4.0, 17),
                "rotation": (0.1, -0.2, 0.3),
                "translation": (12.0, -7.5, 450.0),
                "timestamp": 0.033,
                "confidence": 0.93,
            },
            {
                "landmarks": pts_b,
                "aus": np.linspace(4.0, 0.0, 17),
                "rotation": (0.0, 0.0, 0.0),
                "translation": (0.0, 0.0, 400.0),
                "timestamp": 0.066,
                "confidence": 0.88,
            },
        ]

    def test_two_row_fixture_parses_field_exact(self, tmp_path):
        frames = self.fixture_frames()
        path = tmp_path / "of.csv"
        path.write_text(openface_csv_text(frames))
        out = ingest_openface_csv(path)
        assert len(out) == 2
        for parsed, raw in zip(out, frames):
            assert np.array_equal(parsed.landmarks, raw["landmarks"])
            assert np.array_equal(parsed.aus, raw["aus"])
            assert np.allclose(parsed.pose.rotation, raw["rotation"])
            assert np.array_equal(parsed.pose.translation, np.asarray(raw["translation"], dtype=float))
            assert parsed.timestamp == raw["timestamp"]
            assert parsed.confidence == raw["confidence"]

    def test_low_confidence_rows_dropped(self, tmp_path):
        frames = self.fixture_frames()
        frames[1]["confidence"] = 0.5
        path = tmp_path / "of.csv"
        path.write_text(openface_csv_text(frames))
        out = ingest_openface_csv(path)
        assert len(out) == 1
        assert out[0].confidence == 0.93
        # threshold configurable
        assert len(ingest_openface_csv(path, confidence_threshold=0.0)) == 2

    def test_missing_columns_named_in_error(self, tmp_path):
        text = openface_csv_text(self.fixture_frames())
        lines = text.splitlines()
        cols = [c.strip() for c in lines[0].split(",")]
        drop = cols.index("AU45_r")
        rows = [",".join(line.split(",")[:drop] + line.split(",")[drop + 1:]) for line in lines]
        path = tmp_path / "of.csv"
        path.write_text("\n".join(rows))
        with pytest.raises(OpenFaceFormatError, match="AU45_r"):
            ingest_openface_csv(path)

    def test_unparsable_cell_reports_line_number(self, tmp_path):
        text = openface_csv_text(self.fixture_frames())
        lines = text.splitlines()
        lines[2] = lines[2].replace("0.066", "not-a-number", 1)
        path = tmp_path / "of.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(OpenFaceFormatError, match=":3:"):
            ingest_openface_csv(path)

    def write_with_first_row(self, tmp_path, edit):
        """Write the fixture with its first data row's cells passed through
        ``edit(cells, column_index)``."""
        lines = openface_csv_text(self.fixture_frames()).splitlines()
        names = [c.strip() for c in lines[0].split(",")]
        cells = lines[1].split(",")
        lines[1] = ",".join(edit(cells, names.index))
        path = tmp_path / "of.csv"
        path.write_text("\n".join(lines))
        return path

    def test_two_bad_cells_name_the_first_read(self, tmp_path):
        # pose_Tx comes first in the file, but X_5 is read first
        def edit(cells, at):
            cells[at("pose_Tx")] = "bad"
            cells[at("X_5")] = "bad"
            return cells

        path = self.write_with_first_row(tmp_path, edit)
        with pytest.raises(OpenFaceFormatError, match=r":2: unparsable value for column 'X_5'"):
            ingest_openface_csv(path)

    def test_short_row_names_the_first_missing_column(self, tmp_path):
        path = self.write_with_first_row(tmp_path, lambda cells, at: cells[:at("Y_11")])
        with pytest.raises(OpenFaceFormatError, match=r":2: unparsable value for column 'Y_11'"):
            ingest_openface_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "of.csv"
        path.write_text("")
        with pytest.raises(OpenFaceFormatError):
            ingest_openface_csv(path)

    def test_aus_clipped_to_intensity_scale(self, tmp_path):
        frames = self.fixture_frames()
        frames[0]["aus"] = np.full(17, 9.0)
        path = tmp_path / "of.csv"
        path.write_text(openface_csv_text(frames))
        out = ingest_openface_csv(path)
        assert np.all(out[0].aus == 5.0)
