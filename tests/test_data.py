import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osrkit import data
from osrkit.benchmark import benchmark_split
from osrkit.data import (
    LabeledDataset,
    OpenSetSplit,
    SplitSpec,
    _class_directions,
    _save_csv,
    apply_split,
    gen_synthetic,
    load_features,
    save_features,
)
from osrkit.errors import ConfigError, DataError, NumericError
from osrkit.model import ModelConfig, init_model


def per_element_csv(path, ds):
    """The feature CSV writer as it was, one Python call per number: the oracle."""
    d = ds.inputs.shape[1]
    header = "label,group," + ",".join(f"f{i}" for i in range(d))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(len(ds)):
            feats = ",".join(repr(float(v)) for v in ds.inputs[i])
            fh.write(f"{int(ds.labels[i])},{int(ds.group_ids[i])},{feats}\n")


def per_row_load_csv(path):
    """The feature CSV reader as one parse and one set of text checks per line, each naming
    its line, and as strict as ``_save_csv``'s text, since ``int`` and ``float`` take what it
    never writes; then the rows make a ``LabeledDataset``, whose rules name a row counted from
    0: the oracle."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "label" or header[1] != "group":
        raise DataError(f"{path}: malformed header {lines[0]!r}")
    d = len(header) - 2
    if [h for h in header[2:]] != [f"f{i}" for i in range(d)]:
        raise DataError(f"{path}: malformed feature columns in header")
    labels = []
    groups = []
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise DataError(f"{path}: line {ln} has {len(parts)} fields, expected {d + 2}")
        for part in parts:
            if not part.isascii() or "_" in part or " " in part or "\t" in part:
                raise DataError(f"{path}: line {ln} unparsable: field {part!r} holds '_', a space, "
                                "a tab or non-ASCII text")
        try:
            labels.append(int(parts[0]))
            groups.append(int(parts[1]))
            vals = list(map(float, parts[2:]))
        except ValueError as exc:
            raise DataError(f"{path}: line {ln} unparsable: {exc}") from None
        if not (-2**63 <= labels[-1] < 2**63 and -2**63 <= groups[-1] < 2**63):
            raise DataError(f"{path}: line {ln} label or group outside int64's range")
        rows.append(vals)
    try:
        return LabeledDataset(np.array(rows).reshape(-1, d), np.array(labels), np.array(groups))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def per_class_synthetic(num_classes, samples_per_class, dim, separation, overlap, seed,
                        hard=False, num_groups=5):
    """The generator as it was, one noise draw and one row block per class: the oracle."""
    rng = np.random.default_rng(seed)
    means = separation * _class_directions(num_classes, dim, hard, rng)
    rows, labels, groups = [], [], []
    for c in range(num_classes):
        noise = rng.standard_normal((samples_per_class, dim))
        rows.append(means[c] + overlap * noise)
        labels.extend([c] * samples_per_class)
        groups.extend([i % num_groups for i in range(samples_per_class)])
    return LabeledDataset(np.vstack(rows), np.array(labels), np.array(groups))


def dict_remap_split(dataset, spec, test_fraction, seed):
    """The split as it was, each row's label looked up in the label map: the oracle."""
    rng = np.random.default_rng(seed)
    label_map = {int(c): i for i, c in enumerate(spec.known_classes)}
    train_idx, test_idx = [], []
    for c in spec.known_classes:
        perm = rng.permutation(np.flatnonzero(dataset.labels == c))
        n_test = min(perm.size - 1, max(1, int(round(perm.size * test_fraction))))
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])

    def remapped(rows):
        ds = dataset.subset(rows)
        ds.labels = np.array([label_map[int(l)] for l in ds.labels], dtype=np.int64)
        return ds

    unknown = dataset.subset(np.flatnonzero(np.isin(dataset.labels, spec.unknown_classes)))
    return OpenSetSplit(remapped(np.concatenate(train_idx)), remapped(np.concatenate(test_idx)),
                        unknown, label_map)


def assert_same_dataset(got, want):
    """Equal bits, dtypes and shapes in all three arrays."""
    for a, b in zip((got.inputs, got.labels, got.group_ids),
                    (want.inputs, want.labels, want.group_ids)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


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
        with pytest.raises(ConfigError, match="^data seed must be non-negative, got -1$"):
            gen_synthetic(4, 5, 4, 2.0, 0.5, seed=-1)

    @pytest.mark.parametrize("separation,overlap", [(5.0, 1e308), (1e308, 1e308)])
    def test_overflowing_features_are_a_numeric_error(self, separation, overlap):
        with pytest.raises(NumericError, match=r"overlap 1e\+308, separation \S+: features overflow"):
            gen_synthetic(6, 20, 8, separation, overlap, seed=0)


class TestAgainstPerClassReference:
    @given(
        st.integers(3, 9), st.integers(1, 12), st.integers(2, 6), st.booleans(),
        st.integers(1, 15), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 32 - 1),
        st.floats(0.05, 0.95), st.integers(0, 2 ** 16),
    )
    @example(4, 1, 2, True, 5, 0.0, 0, 0.25, 0)   # one sample per class: no split
    @example(6, 3, 3, False, 10, 0.0, 1, 0.5, 7)  # more groups than samples, no noise
    @settings(max_examples=60, deadline=None)
    def test_generator_and_split_match_reference(self, num_classes, per_class, dim, hard,
                                                 num_groups, overlap, seed, test_fraction,
                                                 split_seed):
        hard = hard and num_classes >= 4
        args = (num_classes, per_class, dim, 3.0, overlap, seed, hard, num_groups)
        ds = gen_synthetic(*args)
        assert_same_dataset(ds, per_class_synthetic(*args))
        if per_class < 2:
            return
        order = np.random.default_rng(split_seed).permutation(num_classes).tolist()
        k = 2 + split_seed % (num_classes - 2)
        spec = SplitSpec(order[:k], order[k:])
        got = apply_split(ds, spec, test_fraction, seed)
        want = dict_remap_split(ds, spec, test_fraction, seed)
        for part in ("train", "test_known", "test_unknown"):
            assert_same_dataset(getattr(got, part), getattr(want, part))
        assert got.label_map == want.label_map

    def test_crowded_directions_relax_and_match_reference(self):
        # 7 classes cannot keep 60 degrees apart in 2 dims: the threshold relaxes
        ds = gen_synthetic(7, 3, 2, 2.0, 0.0, seed=0, num_groups=2)
        assert_same_dataset(ds, per_class_synthetic(7, 3, 2, 2.0, 0.0, 0, num_groups=2))
        u = ds.inputs[::3] / 2.0
        cos = (u @ u.T)[np.triu_indices(7, 1)]
        assert np.cos(np.radians(60.0)) < cos.max() < 1.0


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

    def test_one_known_class_is_the_bank_size_rule(self, dataset):
        # the split fixes the bank's size, so it refuses one class as init_model does
        with pytest.raises(ConfigError) as split_error:
            apply_split(dataset, SplitSpec([0], [1]), 0.25, seed=0)
        with pytest.raises(ConfigError) as model_error:
            init_model(ModelConfig([8, 4]), 1)
        assert str(split_error.value) == str(model_error.value) == "need at least 2 classes, got 1"

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
        with pytest.raises(ConfigError, match="^data seed must be non-negative, got -1$"):
            apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=-1)

    def test_deterministic(self, dataset):
        s1 = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=3)
        s2 = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed=3)
        assert (s1.train.inputs == s2.train.inputs).all()
        assert (s1.test_known.inputs == s2.test_known.inputs).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_split_is_the_pinned_dataset(self, seed):
        # the standard benchmark's data spelled out, so a changed [data] default cannot move it
        dataset = gen_synthetic(6, 200, 8, 5.0, 1.0, seed=seed, hard=True)
        want = apply_split(dataset, SplitSpec([0, 1, 2, 3], [4, 5]), 0.25, seed)
        got = benchmark_split(seed)
        for part in ("train", "test_known", "test_unknown"):
            assert_same_dataset(getattr(got, part), getattr(want, part))
        assert got.label_map == want.label_map


class TestDatasetInvariants:
    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    def test_no_feature_columns_rejected(self):
        with pytest.raises(DataError, match=r"non-empty 2-D matrix, got \(2, 0\)"):
            LabeledDataset(np.zeros((2, 0)), np.zeros(2, dtype=int), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, value):
        # save_features wrote such a dataset, and load_features then refused the file
        with pytest.raises(DataError, match="^row 1 contains non-finite values$"):
            LabeledDataset([[0.0, 1.0], [value, 1.0], [np.nan, 0.0]], [0, 0, 0], [0, 0, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), np.zeros(3, dtype=int))

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="^row 1 has a negative label or group$"):
            LabeledDataset(np.zeros((2, 2)), np.array([0, -1]), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("ids", [
        [0.7, 1.2], ["a", "b"], [1e30, 0.0], np.array([2**64 - 1, 0], dtype=np.uint64),
    ], ids=["fraction", "text", "float-past-int64", "uint-past-int64"])
    @pytest.mark.parametrize("field", ["labels", "group_ids"])
    def test_ids_must_be_integer_valued(self, field, ids):
        # a fraction was truncated ([0.7, 1.2] became [0, 1]); text raised a bare ValueError, and
        # 1e30 an OverflowError; a uint past int64's range wrapped to a negative id
        given = {"labels": [0, 1], "group_ids": [0, 0], field: ids}
        with pytest.raises(DataError) as info:
            LabeledDataset(np.zeros((2, 2)), **given)
        assert str(info.value) == f"{field} must be integer-valued, got dtype {np.asarray(ids).dtype}"
        whole = LabeledDataset(np.zeros((2, 2)), **{**given, field: [1.0, 0.0]})
        assert getattr(whole, field).dtype == np.int64 and getattr(whole, field).tolist() == [1, 0]


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
        with pytest.raises(DataError, match="line 3"):
            load_features(path)

    def test_csv_first_defect_in_file_order_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,group,f0,f1\n0,0,1e,2.0\n1,0,3.0\n")
        with pytest.raises(DataError, match="line 2 unparsable"):
            load_features(path)
        # a value rule is the dataset's, run once the whole text has parsed
        path.write_text("label,group,f0,f1\n0,0,inf,2.0\n1,0,3.0\n")
        with pytest.raises(DataError, match="line 3 has 3 fields, expected 4$"):
            load_features(path)

    @pytest.mark.parametrize("row,message", [
        ("-1,0,1.0", "row 1 has a negative label or group"),
        ("0,-1,1.0", "row 1 has a negative label or group"),
        ("99999999999999999999,0,1.0", "line 3 label or group outside int64's range"),
        ("0,9223372036854775808,1.0", "line 3 label or group outside int64's range"),
    ], ids=["-1,0,1.0", "0,-1,1.0", "99999999999999999999,0,1.0", "0,9223372036854775808,1.0"])
    def test_csv_label_or_group_out_of_range_names_file_and_row(self, tmp_path, row, message):
        # a negative id is the dataset's rule (a row counted from 0); one past int64 is the
        # text's, which its conversion needs (a line)
        path = tmp_path / "bad.csv"
        path.write_text(f"label,group,f0\n0,0,1.0\n{row}\n1,0,2.0\n")
        assert load_outcome(load_features, path) == f"{path}: {message}"

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
        with pytest.raises(DataError, match="row 0 contains non-finite values$"):
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


def golden_ossf_dataset():
    return LabeledDataset(np.array([[-0.0, 5e-324], [1.5, -2.0]]), np.array([3, 0]),
                          np.array([1, 12]))


# little-endian: magic, u16 version 1, u32 B = 2, u32 D = 2, labels, groups, features
GOLDEN_OSSF = (
    b"OSSF" + b"\x01\x00" + b"\x02\x00\x00\x00" + b"\x02\x00\x00\x00"
    + b"\x03" + b"\x00" * 7 + b"\x00" * 8                     # labels 3, 0
    + b"\x01" + b"\x00" * 7 + b"\x0c" + b"\x00" * 7          # groups 1, 12
    + b"\x00" * 7 + b"\x80" + b"\x01" + b"\x00" * 7          # -0.0, 5e-324
    + b"\x00" * 6 + b"\xf8\x3f" + b"\x00" * 7 + b"\xc0"      # 1.5, -2.0
)

OSSF_CORRUPTIONS = {  # id: (corrupt the golden bytes, the message after "<path>: ")
    "13-bytes": (lambda b: b[:13], "not an OSSF feature file"),
    "bad-magic": (lambda b: b"OSSG" + b[4:], "not an OSSF feature file"),
    "version-2": (lambda b: b[:4] + b"\x02" + b[5:], "unsupported OSSF version 2"),
    "byte-short": (lambda b: b[:-1], "expected 78 bytes, found 77"),
    "byte-long": (lambda b: b + b"\x00", "expected 78 bytes, found 79"),
    "nan-row-1": (lambda b: b[:-16] + np.array([np.nan]).tobytes() + b[-8:],
                  "row 1 contains non-finite values"),
    "no-rows": (lambda b: b[:6] + b"\x00" * 4 + b[10:14],  # header only
                "inputs must be a non-empty 2-D matrix, got (0, 2)"),
}

CSV_DEFECTS = {  # id: (file text, the message after "<path>: ")
    "empty": ("", "empty file"),
    "header": ("label,grp,f0\n0,0,1.0\n", "malformed header 'label,grp,f0'"),
    "columns": ("label,group,f1\n0,0,1.0\n", "malformed feature columns in header"),
    "unparsable": ("label,group,f0\n0,0,1.0\n\n1,x,2.0\n",
                   "line 4 unparsable: invalid literal for int() with base 10: 'x'"),
    "no-rows": ("label,group,f0\n\n", "inputs must be a non-empty 2-D matrix, got (0, 1)"),
}


class TestFeatureFileMessages:
    def test_ossf_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.ossf"
        save_features(path, golden_ossf_dataset())
        assert path.read_bytes() == GOLDEN_OSSF
        back = load_features(path)
        assert_same_dataset(back, golden_ossf_dataset())
        assert all(a.flags.writeable for a in (back.inputs, back.labels, back.group_ids))

    @pytest.mark.parametrize("name", sorted(OSSF_CORRUPTIONS))
    def test_ossf_corruption_message(self, tmp_path, name):
        corrupt, message = OSSF_CORRUPTIONS[name]
        path = tmp_path / "bad.ossf"
        path.write_bytes(corrupt(GOLDEN_OSSF))
        with pytest.raises(DataError) as info:
            load_features(path)
        assert str(info.value) == f"{path}: {message}"

    def test_ossf_zero_dim_rejected(self, tmp_path):
        # a 2-row file of the right size for D = 0: the CSV reader has no such header
        zero_dim = (
            b"OSSF" + b"\x01\x00" + b"\x02\x00\x00\x00" + b"\x00\x00\x00\x00"
            + b"\x03" + b"\x00" * 7 + b"\x00" * 8                 # labels 3, 0
            + b"\x01" + b"\x00" * 7 + b"\x0c" + b"\x00" * 7      # groups 1, 12
        )
        path = tmp_path / "dim0.ossf"
        path.write_bytes(zero_dim)
        with pytest.raises(DataError) as info:
            load_features(path)
        assert str(info.value) == f"{path}: inputs must be a non-empty 2-D matrix, got (2, 0)"
        path.write_bytes(zero_dim[:4] + b"\x02" + zero_dim[5:])  # the version is checked first
        with pytest.raises(DataError, match="unsupported OSSF version 2$"):
            load_features(path)

    @pytest.mark.parametrize("ints,row", [
        (b"\xff" * 8 + b"\x00" * 8 + b"\x00" * 16, 0),    # labels -1, 0; groups 0, 0
        (b"\x00" * 16 + b"\x00" * 8 + b"\xfe" + b"\xff" * 7, 1),  # labels 0, 0; groups 0, -2
    ], ids=["label-row-0", "group-row-1"])
    def test_ossf_negative_label_or_group_names_file_and_row(self, tmp_path, ints, row):
        header = b"OSSF" + b"\x01\x00" + b"\x02\x00\x00\x00" + b"\x01\x00\x00\x00"  # B 2, D 1
        features = b"\x00" * 8 + b"\x00" * 6 + b"\xf0\x3f"  # 0.0, 1.0
        path = tmp_path / "negative.ossf"
        path.write_bytes(header + ints + features)
        with pytest.raises(DataError) as info:
            load_features(path)
        assert str(info.value) == f"{path}: row {row} has a negative label or group"
        path.write_bytes(header + ints + features[:8] + b"\x00" * 6 + b"\xf8\x7f")  # NaN first
        with pytest.raises(DataError, match="row 1 contains non-finite values$"):
            load_features(path)

    @pytest.mark.parametrize("name", sorted(CSV_DEFECTS))
    def test_csv_defect_message(self, tmp_path, name):
        text, message = CSV_DEFECTS[name]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            load_features(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("row,line,field", [
        ("1_0, 2 ,\u0661.5", 2, "1_0"),  # int() and float() read it as 10, 2 and 1.5
        ("1,\t2,1.5", 2, "\t2"),
        ("1,2,\uff11.5", 3, "\uff11.5"),  # after a clean row
    ], ids=["underscore", "tab", "fullwidth"])
    def test_csv_lenient_number_text_rejected(self, tmp_path, row, line, field):
        path = tmp_path / "lenient.csv"
        clean = "0,0,1.0\n" if line == 3 else ""
        path.write_text(f"label,group,f0\n{clean}{row}\n", encoding="utf-8")
        message = (f"{path}: line {line} unparsable: field {field!r} holds '_', a space, a tab "
                   "or non-ASCII text")
        assert load_outcome(load_features, path) == message
        assert load_outcome(per_row_load_csv, path) == message

    def test_both_formats_name_a_non_finite_row_alike(self, tmp_path):
        # one NaN row by hand in each format: the dataset's rule names it, counted from 0
        csv, ossf = tmp_path / "nan.csv", tmp_path / "nan.ossf"
        csv.write_text("label,group,f0,f1\n0,0,nan,1.0\n")
        ossf.write_bytes(GOLDEN_OSSF[:-32] + np.array([np.nan, 1.0, 0.0, 0.0]).tobytes())
        assert load_outcome(load_features, csv) == f"{csv}: row 0 contains non-finite values"
        assert load_outcome(load_features, ossf) == f"{ossf}: row 0 contains non-finite values"

    def test_csv_blank_line_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("label,group,f0\n0,0,1.0\n\n1,2,-0.5\n")
        ds = load_features(path)
        assert ds.inputs.tolist() == [[1.0], [-0.5]]
        assert ds.labels.tolist() == [0, 1] and ds.group_ids.tolist() == [0, 2]


def load_outcome(load, path):
    """The bits, dtypes and shapes ``load`` returns for ``path``, or its ``DataError`` message."""
    try:
        ds = load(path)
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (ds.inputs, ds.labels, ds.group_ids)]


CSV_FIELD_DEFECTS = {  # kind: (the columns it may hit, replacement texts); "ragged" adds or drops
    "int": ("ints", ["x", "1.5", "", "0x1"]),
    "float": ("floats", ["abc", "", "1e", "0x1"]),
    "non-finite": ("floats", ["nan", "inf", "-inf", "1e999"]),
    "range": ("ints", ["-1", str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 64)]),
    # texts that int() and float() both read as 1 or 10
    "lenient": ("any", ["1_0", " 1", "1 ", "\t1", "1\t", "\u0661", "\uff11", "1\u00a0", "\u20031"]),
}


@st.composite
def csv_texts(draw):
    """A feature CSV text: clean rows, blank lines and one or two injected defects. The defects
    are drawn uniformly: ``st.sampled_from`` favours its first entries, and a 2**63 label or
    group came up in 1 of 250 examples with it."""
    d = draw(st.integers(1, 3))
    ids = st.integers(0, 2 ** 63 - 1)
    floats = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(ids, ids, st.lists(floats, min_size=d, max_size=d)),
                         min_size=1, max_size=12))
    lines = [[str(label), str(group), *map(repr, feats)] for label, group, feats in rows]
    rnd = draw(st.randoms(use_true_random=True))
    defects = [(rnd.choice(lines), rnd.choice(["ragged", *sorted(CSV_FIELD_DEFECTS)]))
               for _ in range(rnd.choice([1, 2]))]
    for fields, kind in sorted(defects, key=lambda defect: defect[1] == "ragged"):  # ragged last
        if kind == "ragged" and rnd.random() < 0.5:
            fields.append("1.0")
        elif kind == "ragged":
            fields.pop()
        else:
            columns, texts = CSV_FIELD_DEFECTS[kind]
            low, high = {"ints": (0, 1), "floats": (2, d + 1), "any": (0, d + 1)}[columns]
            column = rnd.randint(low, high)
            fields[column] = rnd.choice(texts)
    text = [",".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 4))):
        text.insert(draw(st.integers(0, len(text))), "")
    header = "label,group," + ",".join(f"f{i}" for i in range(d))
    return "\n".join([header, *text]) + "\n"


class TestBlockedCsvReader:
    # at 1 each line is its own block, so the one-line reasons alone make the messages;
    # at 2 and 3 small files cross block boundaries
    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    @given(csv_texts())
    @settings(max_examples=250, deadline=None)
    def test_small_blocks_match_per_row_reader(self, tmp_path_factory, block_lines, text):
        path = tmp_path_factory.getbasetemp() / "random.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CSV_BLOCK_LINES", block_lines)
            assert load_outcome(load_features, path) == load_outcome(per_row_load_csv, path)

    def test_big_file_defects_name_their_lines(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = LabeledDataset(rng.standard_normal((2500, 3)), rng.integers(0, 9, 2500),
                            rng.integers(0, 4, 2500))
        path = tmp_path / "big.csv"
        _save_csv(path, ds)
        lines = path.read_text().splitlines()  # line 1 is the header, data row i is line i + 1
        lines = lines[:1500] + ["", "", ""] + lines[1500:]  # blank lines before data row 1,500
        path.write_text("\n".join(lines) + "\n")
        assert_same_dataset(load_features(path), ds)
        assert data._CSV_BLOCK_LINES == 1024  # rows 1,100 and 2,400 sit in the 2nd and 3rd block
        ragged_line = 2400 + 1 + 3  # the header and the blank lines come before it
        lines[ragged_line - 1] = lines[ragged_line - 1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: line {ragged_line} has 4 fields, expected 5"
        assert load_outcome(load_features, path) == message
        assert load_outcome(per_row_load_csv, path) == message
        # two kinds of defect in the 2nd block: the first line wins, not the first check
        same_block = list(lines)
        same_block[1199] = "x" + same_block[1199][same_block[1199].index(","):]  # line 1,200
        same_block[1299] = same_block[1299].rsplit(",", 1)[0]  # line 1,300
        path.write_text("\n".join(same_block) + "\n")
        message = f"{path}: line 1200 unparsable: invalid literal for int() with base 10: 'x'"
        assert load_outcome(load_features, path) == message
        assert load_outcome(per_row_load_csv, path) == message
        # a value defect is named by its row counted from 0, once no line has a text defect
        lines[1100] = lines[1100].rsplit(",", 1)[0] + ",nan"  # line 1,101 is data row 1,099
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: line {ragged_line} has 4 fields, expected 5"
        assert load_outcome(load_features, path) == message
        assert load_outcome(per_row_load_csv, path) == message
        lines[ragged_line - 1] += ",1.0"
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}: row 1099 contains non-finite values"
        assert load_outcome(load_features, path) == message
        assert load_outcome(per_row_load_csv, path) == message
