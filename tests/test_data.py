import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.data import (
    LabeledDataset,
    SplitSpec,
    apply_split,
    gen_synthetic,
    group_folds,
    load_features,
    save_features,
)
from osrkit.errors import ConfigError, DataError


def per_element_csv(path, ds):
    """The feature CSV writer as it was, one Python call per number: the oracle."""
    d = ds.inputs.shape[1]
    header = "label,group," + ",".join(f"f{i}" for i in range(d))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(len(ds)):
            feats = ",".join(repr(float(v)) for v in ds.inputs[i])
            fh.write(f"{int(ds.labels[i])},{int(ds.group_ids[i])},{feats}\n")


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(4, 10, 5, 3.0, 0.5, seed=7)
        b = gen_synthetic(4, 10, 5, 3.0, 0.5, seed=7)
        assert (a.inputs == b.inputs).all()
        assert (a.labels == b.labels).all()
        assert (a.group_ids == b.group_ids).all()

    def test_zero_overlap_collapses_to_means(self):
        ds = gen_synthetic(3, 5, 4, 2.0, 0.0, seed=1)
        for c in range(3):
            rows = ds.inputs[ds.labels == c]
            assert (rows == rows[0]).all()
            assert np.linalg.norm(rows[0]) == pytest.approx(2.0, abs=1e-9)

    def test_nearest_mean_oracle_on_held_out_half(self):
        ds = gen_synthetic(6, 200, 8, 5.0, 0.3, seed=0)
        rng = np.random.default_rng(0)
        idx = rng.permutation(len(ds))
        half = len(ds) // 2
        tr, te = idx[:half], idx[half:]
        means = np.vstack(
            [ds.inputs[tr][ds.labels[tr] == c].mean(axis=0) for c in range(6)]
        )
        d = ((ds.inputs[te][:, None, :] - means[None]) ** 2).sum(-1)
        acc = (d.argmin(axis=1) == ds.labels[te]).mean()
        assert acc > 0.99

    def test_class_means_converge(self):
        overlap = 0.5
        n = 4000
        ds = gen_synthetic(3, n, 4, 2.0, overlap, seed=3)
        ref = gen_synthetic(3, 1, 4, 2.0, 0.0, seed=3)  # same means, no noise
        for c in range(3):
            sample_mean = ds.inputs[ds.labels == c].mean(axis=0)
            true_mean = ref.inputs[ref.labels == c][0]
            assert np.abs(sample_mean - true_mean).max() < 3 * overlap / np.sqrt(n)

    def test_hard_mode_plants_close_directions(self):
        ds = gen_synthetic(6, 1, 8, 5.0, 0.0, seed=11, hard=True)
        m = ds.inputs
        u = m / np.linalg.norm(m, axis=1, keepdims=True)
        ang = np.degrees(np.arccos(np.clip(u @ u.T, -1, 1)))
        near = 6 - 2  # the conventional unknown neighbour
        assert ang[0, near] < 15.0
        assert ang[1, near] < 15.0
        # every pair outside the trio stays well separated
        trio = {0, 1, near}
        for i in range(6):
            for j in range(i + 1, 6):
                if {i, j} <= trio:
                    continue
                assert ang[i, j] >= 59.0

    def test_mutually_distinct_means(self):
        ds = gen_synthetic(5, 1, 6, 4.0, 0.0, seed=2, hard=True)
        m = ds.inputs
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(m[i] - m[j]) > 1e-6

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            gen_synthetic(2, 5, 4, 2.0, 0.5, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(4, 5, 4, 0.0, 0.5, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(4, 5, 4, 2.0, -1.0, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic(3, 5, 4, 2.0, 0.5, seed=0, hard=True)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            gen_synthetic(4, 5, 4, 2.0, 0.5, seed=-1)


class TestApplySplit:
    @pytest.fixture()
    def dataset(self):
        return gen_synthetic(6, 20, 4, 3.0, 0.5, seed=5)

    def test_four_two_shape(self, dataset):
        split = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=0)
        assert split.num_known == 4
        assert set(np.unique(split.train.labels)) == {0, 1, 2, 3}
        assert len(split.test_unknown) == 40
        assert set(np.unique(split.test_unknown.labels)) == {4, 5}

    def test_no_unknown_leakage_and_no_overlap(self, dataset):
        split = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.3, seed=1)
        # identity-level leakage check via row matching
        train_rows = {r.tobytes() for r in split.train.inputs}
        for r in split.test_known.inputs:
            assert r.tobytes() not in train_rows
        for r in split.test_unknown.inputs:
            assert r.tobytes() not in train_rows

    def test_remap_is_contiguous_bijection(self, dataset):
        spec = SplitSpec([5, 2, 0], [1, 3])
        split = apply_split(dataset, spec, 0.25, seed=2)
        assert split.label_map == {5: 0, 2: 1, 0: 2}
        assert set(np.unique(split.train.labels)) == {0, 1, 2}

    def test_empty_unknown_rejected(self, dataset):
        with pytest.raises(ConfigError):
            apply_split(dataset, SplitSpec([0, 1, 2], []), 0.25, seed=0)

    def test_absent_class_rejected(self, dataset):
        with pytest.raises(DataError):
            apply_split(dataset, SplitSpec([0, 1], [9]), 0.25, seed=0)

    def test_overlapping_spec_rejected(self, dataset):
        with pytest.raises(ConfigError):
            apply_split(dataset, SplitSpec([0, 1], [1, 2]), 0.25, seed=0)

    def test_tiny_class_rejected(self):
        ds = LabeledDataset(
            np.random.default_rng(0).standard_normal((5, 2)),
            np.array([0, 0, 1, 2, 2]),
            np.zeros(5, dtype=int),
        )
        with pytest.raises(DataError):
            apply_split(ds, SplitSpec([0, 1], [2]), 0.5, seed=0)

    def test_negative_seed_rejected(self, dataset):
        with pytest.raises(ConfigError, match="seed"):
            apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=-1)

    def test_deterministic(self, dataset):
        s1 = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=3)
        s2 = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=3)
        assert (s1.train.inputs == s2.train.inputs).all()
        assert (s1.test_known.inputs == s2.test_known.inputs).all()


class TestGroupFolds:
    def make(self, groups):
        n = len(groups)
        return LabeledDataset(
            np.zeros((n, 2)), np.zeros(n, dtype=int), np.array(groups)
        )

    def test_loso_shape(self):
        ds = self.make([0, 1, 2, 3, 4])
        folds = group_folds(ds, 5)
        assert len(folds) == 5
        for _, held in folds:
            assert len(held) == 1

    def test_partition_property(self):
        ds = self.make([3, 1, 4, 1, 5, 9, 2, 6])
        folds = group_folds(ds, 3)
        held_all = [g for _, held in folds for g in held]
        assert sorted(held_all) == sorted(set([3, 1, 4, 5, 9, 2, 6]))
        for train, held in folds:
            assert not (set(train) & set(held))

    def test_eight_groups_five_folds_balanced(self):
        ds = self.make(list(range(8)))
        folds = group_folds(ds, 5)
        sizes = [len(held) for _, held in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 8

    def test_too_few_groups(self):
        ds = self.make([0, 0, 1])
        with pytest.raises(ConfigError):
            group_folds(ds, 3)

    def test_deterministic_assignment(self):
        ds = self.make([7, 3, 5, 1, 9, 0])
        assert group_folds(ds, 4) == group_folds(ds, 4)
        # sorted ids dealt round-robin: 0,1,3,5,7,9 over 4 folds
        folds = group_folds(ds, 4)
        assert [held for _, held in folds] == [[0, 7], [1, 9], [3], [5]]


class TestDatasetInvariants:
    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros(3, dtype=int))


class TestFeatureIO:
    @pytest.fixture()
    def dataset(self):
        rng = np.random.default_rng(9)
        return LabeledDataset(
            rng.standard_normal((12, 3)),
            rng.integers(0, 4, 12),
            rng.integers(0, 3, 12),
        )

    def test_binary_round_trip_bit_exact(self, dataset, tmp_path):
        path = tmp_path / "feats.ossf"
        save_features(path, dataset)
        back = load_features(path)
        assert dataset.inputs.tobytes() == back.inputs.tobytes()
        assert (dataset.labels == back.labels).all()
        assert (dataset.group_ids == back.group_ids).all()

    def test_csv_round_trip_bit_exact(self, dataset, tmp_path):
        path = tmp_path / "feats.csv"
        save_features(path, dataset)
        back = load_features(path)
        assert dataset.inputs.tobytes() == back.inputs.tobytes()
        assert (dataset.labels == back.labels).all()

    def test_csv_fixture_parses(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            "label,group,f0,f1\n"
            "0,0,1.5,-2.0\n"
            "1,0,0.25,3.0\n"
            "2,1,-1.0,0.5\n"
        )
        ds = load_features(path)
        assert ds.inputs.shape == (3, 2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])
        assert ds.inputs[1, 0] == 0.25

    def test_csv_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,group,f0,f1\n0,0,1.0,2.0\n1,0,3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_features(path)

    def test_csv_first_defect_in_file_order_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,group,f0,f1\n0,0,inf,2.0\n1,0,3.0\n")
        with pytest.raises(DataError, match="row 2 contains non-finite"):
            load_features(path)

    @pytest.mark.parametrize("row", [
        "-1,0,1.0", "0,-1,1.0", "99999999999999999999,0,1.0", "0,9223372036854775808,1.0",
    ])
    def test_csv_label_or_group_out_of_range_names_file_and_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,group,f0\n0,0,1.0\n{row}\n1,0,nan\n")
        with pytest.raises(DataError, match="row 3 label or group outside") as info:
            load_features(path)
        assert str(path) in str(info.value)

    def test_csv_largest_int64_label_loads(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("label,group,f0\n9223372036854775807,0,1.0\n")
        assert load_features(path).labels.tolist() == [2 ** 63 - 1]

    def test_csv_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("label,group,f0\n0,0,1.0 \u00b5\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8") as info:
            load_features(path)
        assert str(path) in str(info.value)

    def test_csv_golden_text(self, tmp_path):
        ds = LabeledDataset(
            np.array([[0.1, -0.0, 5e-324, 1e16], [1e-05, 1 / 3, sys.float_info.max, -2.5]]),
            np.array([3, 0]),
            np.array([1, 12]),
        )
        path = tmp_path / "golden.csv"
        save_features(path, ds)
        assert path.read_bytes() == (
            b"label,group,f0,f1,f2,f3\n"
            b"3,1,0.1,-0.0,5e-324,1e+16\n"
            b"0,12,1e-05,0.3333333333333333,1.7976931348623157e+308,-2.5\n"
        )

    @given(
        st.integers(1, 6).flatmap(lambda d: st.lists(
            st.tuples(
                st.integers(0, 2 ** 63 - 1),
                st.integers(0, 2 ** 63 - 1),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
            ),
            min_size=1, max_size=8,
        ))
    )
    @settings(max_examples=100, deadline=None)
    def test_csv_bytes_match_per_element_writer(self, tmp_path_factory, rows):
        ds = LabeledDataset([r[2] for r in rows], [r[0] for r in rows], [r[1] for r in rows])
        base = tmp_path_factory.getbasetemp()
        save_features(base / "new.csv", ds)
        per_element_csv(base / "old.csv", ds)
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()
        assert load_features(base / "new.csv").inputs.tobytes() == ds.inputs.tobytes()

    def test_csv_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,group,f0\n0,0,nan\n")
        with pytest.raises(DataError, match="row 2"):
            load_features(path)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lab,group,f0\n0,0,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_features(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ossf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataError):
            load_features(path)

    def test_binary_truncated(self, dataset, tmp_path):
        path = tmp_path / "feats.ossf"
        save_features(path, dataset)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataError):
            load_features(path)
