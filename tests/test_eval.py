import copy
import functools
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.benchmark import benchmark_split
from osrkit.config import VARIANTS, TrainConfig, with_keys
from osrkit.data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic
from osrkit.errors import (ConfigError, DataError, DegenerateInputError, EvalError, NumericError,
                           UsageError)
from osrkit.evaluate import (
    EvalReport,
    auroc,
    _max_logit,
    evaluate,
    model_logits,
    oscr,
    roc_points,
    write_oscr_csv,
    write_roc_csv,
)
from osrkit.losses import LossConfig, classification_loss, total_loss
from osrkit.model import Embedder, ModelConfig, ReciprocalBank, _forward, init_model
from osrkit.numerics import Metric, _scores
from osrkit.train import train


def pair_count_auroc(scores, is_known):
    """Exhaustive oracle: fraction of correctly ordered known/unknown pairs."""
    s = np.asarray(scores, dtype=float)
    k = np.asarray(is_known, dtype=bool)
    wins = 0.0
    total = 0
    for a in s[k]:
        for b in s[~k]:
            total += 1
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / total


def roc_auc_trapezoid(scores, is_known):
    """Trapezoidal area under ``roc_points``'s curve: the cross-check of ``auroc``."""
    curve = roc_points(scores, is_known)
    x, y = curve[:, 1], curve[:, 2]
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5).sum())


def brute_force_oscr(logits, labels, is_known):
    """Threshold-enumeration oracle for the OSCR area."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    k = np.asarray(is_known, dtype=bool)
    s = logits.max(axis=1)
    pred = logits.argmax(axis=1)
    correct = k & (pred == labels)
    nk, nu = k.sum(), (~k).sum()
    pts = [(0.0, 0.0)]
    for t in sorted(set(s), reverse=True):
        ccr = (correct & (s >= t)).sum() / nk
        fpr = ((~k) & (s >= t)).sum() / nu
        pts.append((fpr, ccr))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def per_element_curve_csv(path, header, curve):
    """The curve writer as it was, one write per point: the oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for point in curve:
            fh.write(",".join(f"{x:.17g}" for x in point) + "\n")


def loop_curve(scores, hits, is_known):
    """Per-threshold oracle: recount every sample at each distinct score; zero is +0.0."""
    s = np.asarray(scores, dtype=float)
    k = np.asarray(is_known, dtype=bool)
    curve = [(float("inf"), 0.0, 0.0)]
    for t in np.unique(s)[::-1]:
        sel = s >= t
        rate = float((sel & hits).sum() / k.sum())
        fpr = float((sel & ~k).sum() / (~k).sum())
        curve.append((float(t) + 0.0, fpr, rate))
    return curve


def average_rank_auroc(scores, is_known):
    """Rank-sum AUROC with np.unique's mean ranks per tie: the bit oracle for ``auroc``."""
    s = np.asarray(scores, dtype=float)
    k = np.asarray(is_known, dtype=bool)
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    ranks = 0.5 * (end - counts + 1 + end)[inverse]
    n_known = int(k.sum())
    u = ranks[k].sum() - n_known * (n_known + 1) / 2.0
    return float(u / (n_known * (s.size - n_known)))


def assert_same_curve(got, want):
    """Entry-by-entry equality down to the bit, so -0.0 differs from 0.0."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert [np.float64(x).tobytes() for x in p] == [np.float64(x).tobytes() for x in q]


def unblocked_logits(embedder, bank, x, config):
    """The classification logits of ``x`` in one pass of the cores: ``_forward``, then tau times
    ``_scores``."""
    features = _forward(embedder.weights, embedder.biases, x)[-1]
    return config.tau * _scores(features, bank.points, config.classification_metric)[0]


class TestClosedSetLabels:
    """The closed-set label of a row is its argmax logit, as ``oscr`` and ``evaluate`` count
    hits; a hit puts the known row's CCR at 1 here, a miss at 0."""

    def test_argmax(self):
        assert oscr([[0.1, 0.9], [0.0, 0.0]], [1, 0], [True, False])[0] == 1.0

    def test_tie_breaks_low(self):
        assert oscr([[0.5, 0.5], [0.0, 0.0]], [0, 0], [True, False])[0] == 1.0
        assert oscr([[0.5, 0.5], [0.0, 0.0]], [1, 0], [True, False])[0] == 0.0

    @pytest.mark.parametrize("metric", [Metric.ANGULAR, Metric.EUCLIDEAN])
    def test_empty_batch(self, metric):
        """Zero rows score as a (0, K) logit matrix, which has no known row to label."""
        emb, bank = init_model(ModelConfig([3, 4, 2], seed=0), 3)
        logits = model_logits(emb, bank, np.zeros((0, 3)), LossConfig(classification_metric=metric))
        assert logits.shape == (0, 3) and logits.dtype == np.float64
        with pytest.raises(EvalError, match="^need at least one known and one unknown sample$"):
            oscr(logits, [], [])

    def test_zero_columns_rejected(self):
        with pytest.raises(UsageError) as info:
            oscr(np.zeros((3, 0)), [0, 0, 0], [True, False, True])
        assert str(info.value) == "logits need at least one column, got shape (3, 0)"

    def test_scale_invariant_labels_under_angular_scoring(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10, 4))
        points = rng.standard_normal((3, 4))
        l1 = _scores(feats, points, Metric.ANGULAR)[0]
        l2 = _scores(7.5 * feats, points, Metric.ANGULAR)[0]
        np.testing.assert_array_equal(l1.argmax(axis=1), l2.argmax(axis=1))


class TestOpensetScore:
    def test_max(self):
        assert _max_logit(np.array([[0.2, 0.8]]))[0] == pytest.approx(0.8)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["quantized", "signed_zero", "continuous"]),
           st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_row_max(self, seed, kind, columns):
        logits = random_logits(seed, kind, columns)[0]
        want = logits.max(axis=1)
        got = _max_logit(logits)
        assert (got == want).all()
        assert got[want != 0].tobytes() == want[want != 0].tobytes()
        assert not np.shares_memory(got, logits)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 4))
        c = 3.7
        np.testing.assert_allclose(_max_logit(z + c), _max_logit(z) + c, atol=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([3.0, 2.5, 1.0, 0.5], [True, True, False, False]) == 1.0

    def test_all_ties(self):
        assert auroc([1.0, 1.0, 1.0, 1.0], [True, False, True, False]) == 0.5

    def test_pair_count_example(self):
        scores = [0.9, 0.8, 0.7, 0.6]
        known = [True, False, True, False]
        assert auroc(scores, known) == pytest.approx(0.75)
        assert pair_count_auroc(scores, known) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(EvalError):
            auroc([1.0, 2.0], [True, True])

    @pytest.mark.parametrize("scores,is_known,error,message", [
        ([0.1, 0.2], [True], EvalError, "scores and is_known must be 1-D of equal length"),
        ([0.1, np.nan], [True, False], NumericError, "scores contains non-finite entries"),
    ], ids=["length-mismatch", "nan-score"])
    @pytest.mark.parametrize("metric", [auroc, roc_points], ids=["auroc", "roc_points"])
    def test_malformed_scores_rejected(self, metric, scores, is_known, error, message):
        # a non-finite score is a NumericError, as oscr's non-finite logits are
        with pytest.raises(error) as info:
            metric(scores, is_known)
        assert str(info.value) == message

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rank_equals_trapezoid_and_pair_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        # quantized scores so ties actually happen
        scores = np.round(rng.standard_normal(n), 1)
        is_known = rng.random(n) < 0.5
        if is_known.all() or not is_known.any():
            is_known[0] = True
            is_known[-1] = False
        a_rank = auroc(scores, is_known)
        a_trap = roc_auc_trapezoid(scores, is_known)
        a_pair = pair_count_auroc(scores, is_known)
        assert a_rank == pytest.approx(a_trap, abs=1e-9)
        assert a_rank == pytest.approx(a_pair, abs=1e-9)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        scores = rng.standard_normal(n)
        is_known = rng.random(n) < 0.5
        if is_known.all() or not is_known.any():
            is_known[0] = True
            is_known[-1] = False
        base = auroc(scores, is_known)
        for f in (lambda x: 3 * x + 2, np.tanh, lambda x: np.exp(x / 4)):
            assert auroc(f(scores), is_known) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(20)
        is_known = rng.random(20) < 0.5
        is_known[0], is_known[-1] = True, False
        perm = rng.permutation(20)
        assert auroc(scores[perm], is_known[perm]) == pytest.approx(
            auroc(scores, is_known), abs=1e-12
        )


class TestRocCurve:
    def test_starts_at_origin_ends_at_one_one(self):
        curve = roc_points([0.3, 0.1, 0.2], [True, False, True])
        assert curve[0, 1:].tobytes() == np.array([0.0, 0.0]).tobytes()
        assert curve[-1, 1:].tobytes() == np.array([1.0, 1.0]).tobytes()

    def test_monotone_in_fpr_and_tpr(self):
        rng = np.random.default_rng(8)
        scores = np.round(rng.standard_normal(30), 1)
        is_known = rng.random(30) < 0.5
        is_known[0], is_known[-1] = True, False
        curve = roc_points(scores, is_known)
        fprs = [p[1] for p in curve]
        tprs = [p[2] for p in curve]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))


def random_logits(seed, kind, columns=None):
    """(logits, is_known, labels) of 2-39 samples, knowns and unknowns both present, with
    ``columns`` logit columns (2-4 drawn by default); the ``quantized`` and ``signed_zero``
    kinds tie their scores."""
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 40))
    k = int(rng.integers(2, 5)) if columns is None else columns
    logits = rng.standard_normal((b, k))
    if kind == "quantized":
        logits = np.round(logits, 1)
    elif kind == "signed_zero":
        # mostly zeros of both signs, so tie runs mix 0.0 and -0.0
        logits = np.where(rng.random((b, k)) < 0.7, 0.0, np.round(logits))
        logits = np.copysign(logits, rng.choice([-1.0, 1.0], size=(b, k)))
    is_known = rng.random(b) < 0.5
    is_known[0], is_known[-1] = True, False
    return logits, is_known, rng.integers(0, k, b)


class TestSweepMatchesLoop:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["quantized", "signed_zero", "continuous"]))
    @settings(max_examples=150, deadline=None)
    def test_roc_and_oscr_curves(self, seed, kind):
        logits, is_known, labels = random_logits(seed, kind)
        scores = logits.max(axis=1)
        assert_same_curve(roc_points(scores, is_known), loop_curve(scores, is_known, is_known))
        correct = is_known & (logits.argmax(axis=1) == labels)
        _, curve = oscr(logits, labels, is_known)
        assert_same_curve(curve, loop_curve(scores, correct, is_known))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["quantized", "signed_zero", "continuous"]))
    @settings(max_examples=150, deadline=None)
    def test_sample_order_changes_no_bit(self, seed, kind):
        logits, is_known, labels = random_logits(seed, kind)
        perm = np.random.default_rng(seed + 1).permutation(len(labels))
        scores = logits.max(axis=1)
        got = (roc_points(scores[perm], is_known[perm]), *oscr(logits[perm], labels[perm],
                                                                is_known[perm]))
        want = (roc_points(scores, is_known), *oscr(logits, labels, is_known))
        assert got[1].hex() == want[1].hex()
        assert auroc(scores[perm], is_known[perm]).hex() == auroc(scores, is_known).hex()
        assert_same_curve(got[0], want[0])
        assert_same_curve(got[2], want[2])


class TestTieRuns:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["quantized", "signed_zero", "continuous"]),
           st.sampled_from([40, 3000]))
    @settings(max_examples=150, deadline=None)
    def test_auroc_bit_equal_to_average_rank_oracle(self, seed, kind, max_n):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, max_n))
        scores = rng.standard_normal(n)
        if kind == "quantized":
            scores = np.round(scores, int(rng.integers(0, 3)))
        elif kind == "signed_zero":
            scores = np.where(rng.random(n) < 0.5, 0.0, np.round(scores))
            scores = np.copysign(scores, rng.choice([-1.0, 1.0], size=n))
        is_known = rng.random(n) < rng.uniform(0.1, 0.9)
        is_known[0], is_known[-1] = True, False
        assert auroc(scores, is_known).hex() == average_rank_auroc(scores, is_known).hex()

    @pytest.mark.parametrize("zeros", [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]],
                             ids=["pos_first", "neg_first", "all_neg"])
    def test_zero_run_named_positive_zero(self, zeros, tmp_path):
        scores = np.array([1.0, *zeros, 0.5, *zeros, -2.0])
        is_known = np.array([True, False, True, False, True, False, False])
        logits = np.stack([scores, scores - 1.0], axis=1)
        labels = np.array([0, -1, 1, -1, 0, -1, -1])
        roc = roc_points(scores, is_known)
        assert_same_curve(roc, loop_curve(scores, is_known, is_known))
        _, curve = oscr(logits, labels, is_known)
        assert_same_curve(curve, loop_curve(scores, is_known & (labels == 0), is_known))
        assert auroc(scores, is_known).hex() == average_rank_auroc(scores, is_known).hex()
        write_roc_csv(tmp_path / "roc.csv", roc)
        assert (tmp_path / "roc.csv").read_text().splitlines()[4] == "0,0.75,1"


class TestOscr:
    def test_perfect(self):
        logits = np.array([[5.0, 0.0], [0.0, 4.0], [0.5, 0.4], [0.3, 0.2]])
        labels = np.array([0, 1, -1, -1])
        is_known = np.array([True, True, False, False])
        value, _ = oscr(logits, labels, is_known)
        assert value == pytest.approx(1.0)

    def test_too_few_labels_rejected(self):
        logits = np.array([[5.0, 0.0], [0.0, 4.0], [0.5, 0.4]])
        with pytest.raises(EvalError) as info:
            oscr(logits, [0, 1], [True, True, False])
        assert str(info.value) == "true_labels must have length 3"

    def test_all_misclassified_gives_zero(self):
        logits = np.array([[5.0, 0.0], [0.0, 4.0], [9.0, 0.0]])
        labels = np.array([1, 0, -1])  # both knowns wrong
        is_known = np.array([True, True, False])
        value, _ = oscr(logits, labels, is_known)
        assert value == 0.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_and_bounded_by_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(4, 21))
        k = int(rng.integers(2, 5))
        logits = np.round(rng.standard_normal((b, k)), 1)
        is_known = rng.random(b) < 0.6
        if is_known.all() or not is_known.any():
            is_known[0] = True
            is_known[-1] = False
        labels = rng.integers(0, k, b)
        value, curve = oscr(logits, labels, is_known)
        assert value == pytest.approx(brute_force_oscr(logits, labels, is_known), abs=1e-9)
        pred = logits.argmax(axis=1)
        acc = (pred[is_known] == labels[is_known]).mean()
        assert value <= acc + 1e-12
        perm = rng.permutation(b)
        shuffled, _ = oscr(logits[perm], labels[perm], is_known[perm])
        assert shuffled == pytest.approx(value, abs=1e-12)
        ccrs = [p[2] for p in curve]
        fprs = [p[1] for p in curve]
        assert all(a <= b2 for a, b2 in zip(fprs, fprs[1:]))
        assert all(a <= b2 for a, b2 in zip(ccrs, ccrs[1:]))


@pytest.fixture(scope="module")
def split():
    return benchmark_split(seed=0)


@pytest.fixture(scope="module")
def large():
    """A split whose test sets have 1,400 rows each: two scoring blocks apiece."""
    return apply_split(gen_synthetic(6, 700, 8, 5.0, 1.0, seed=0, hard=True),
                       SplitSpec([0, 1, 2, 3], [4, 5]), 0.5, 0)


class TestEvaluate:

    def test_deterministic(self, split):
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        r1 = evaluate(emb, bank, split, LossConfig())
        r2 = evaluate(emb, bank, split, LossConfig())
        assert r1 == r2

    def test_oscr_bounded_by_accuracy(self, split):
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=3), 4)
        report = evaluate(emb, bank, split, LossConfig())
        assert 0.0 <= report.oscr <= report.closed_accuracy <= 1.0
        assert 0.0 <= report.auroc <= 1.0

    def test_class_count_mismatch_rejected(self, split):
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 3)
        with pytest.raises(EvalError, match="3 classes"):
            evaluate(emb, bank, split, LossConfig())

    def test_one_wide_embedding_has_no_angular_score(self, split):
        # every cosine of a 1-wide feature is +-1: the width rule of ``LossConfig.validate``
        emb, bank = init_model(ModelConfig([8, 32, 1], seed=0), 4)
        message = "^layer_dims ends in 1: every angular score would be \\+-1$"
        with pytest.raises(ConfigError, match=message):
            evaluate(emb, bank, split, LossConfig())
        with pytest.raises(ConfigError, match=message):
            model_logits(emb, bank, split.test_known.inputs, LossConfig())
        euclidean = LossConfig(classification_metric=Metric.EUCLIDEAN)
        assert model_logits(emb, bank, split.test_known.inputs, euclidean).shape[1] == 4

    def test_emptied_unknown_test_set_rejected(self, split):
        # LabeledDataset refuses to be built empty, so only a set emptied afterwards reaches this
        unknown = copy.copy(split.test_unknown)
        unknown.inputs = unknown.inputs[:0]
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        with pytest.raises(EvalError) as info:
            evaluate(emb, bank, replace(split, test_unknown=unknown), LossConfig())
        assert str(info.value) == "need at least one known and one unknown sample"

    def test_emptied_known_test_set_rejected_before_its_labels(self, split):
        # the rule of ``auroc``, ``roc_points`` and ``oscr`` runs before the known labels' rule
        known = copy.copy(split.test_known)
        known.inputs = known.inputs[:0]
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        with pytest.raises(EvalError) as info:
            evaluate(emb, bank, replace(split, test_known=known), LossConfig())
        assert str(info.value) == "need at least one known and one unknown sample"

    def test_known_label_past_the_last_class_rejected(self, split):
        # no argmax equals it, so it was scored as a miss
        known = copy.copy(split.test_known)
        known.labels = np.where(np.arange(len(known)) == 3, 4, known.labels)
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        with pytest.raises(DataError) as info:
            evaluate(emb, bank, replace(split, test_known=known), LossConfig())
        assert str(info.value) == f"labels out of range [0, 4): min {known.labels.min()}, max 4"

    def test_matches_per_set_scoring(self, split):
        self.check_matches_per_set_scoring(split)

    def test_matches_per_set_scoring_across_forward_blocks(self, large):
        assert len(large.test_known) == len(large.test_unknown) == 1400
        self.check_matches_per_set_scoring(large)

    @pytest.mark.parametrize("metric", [Metric.ANGULAR, Metric.EUCLIDEAN])
    @pytest.mark.parametrize("rows", [1, 2, 3, 1023, 1024, 1025, 2047, 2049, 3074, 4000, 7003,
                                      9000])
    def test_model_logits_blocks_are_unblocked_calls(self, monkeypatch, metric, rows):
        """``model_logits`` scores near-equal blocks of at most 1,024 rows, each with the bits
        of an unblocked call on it. A BLAS kernel may round a row of ``a @ w`` by where it sits
        in the call, so against one pass over all rows only the values are pinned: within 16
        ulps of the largest logit (OpenBLAS's Haswell, Zen and Prescott kernels differ by up
        to 1.7 of them here; SkylakeX and Sandybridge by none)."""
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=4), 4)
        cfg = LossConfig(tau=3.0, classification_metric=metric)
        x = np.random.default_rng(rows).standard_normal((rows, 8)) * 10
        sizes = []
        def counting_forward(weights, biases, x):
            sizes.append(len(x))
            return _forward(weights, biases, x)
        monkeypatch.setattr(sys.modules["osrkit.evaluate"], "_forward", counting_forward)
        got = model_logits(emb, bank, x, cfg)
        blocks = -(-rows // 1024)
        assert sizes == [rows // blocks + (i < rows % blocks) for i in range(blocks)]
        bounds = np.cumsum([0, *sizes])
        blocked = np.vstack([unblocked_logits(emb, bank, x[lo:hi], cfg)
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
        assert got.tobytes() == blocked.tobytes()
        one_pass = unblocked_logits(emb, bank, x, cfg)
        assert np.abs(got - one_pass).max() <= 16 * np.finfo(float).eps * np.abs(one_pass).max()

    def test_euclidean_peak_memory_at_angular_level(self):
        """The blocks bound the euclidean score's B x K x D difference as they bound the
        forward pass's temporaries: a one-pass score on 8k rows peaked about 1.7x higher."""
        split = apply_split(gen_synthetic(6, 4000, 8, 5.0, 1.0, seed=0),
                            SplitSpec([0, 1, 2, 3], [4, 5]), 0.5, 0)
        assert len(split.test_known) == len(split.test_unknown) == 8000
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        peaks = {}
        tracemalloc.start()
        try:
            for metric in (Metric.EUCLIDEAN, Metric.ANGULAR):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                evaluate(emb, bank, split, LossConfig(classification_metric=metric))
                peaks[metric] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peaks[Metric.EUCLIDEAN] <= 1.25 * peaks[Metric.ANGULAR], peaks

    @pytest.mark.parametrize("part", ["test_known", "test_unknown"])
    @pytest.mark.parametrize("scale,error,tail", [
        (1e200, NumericError, "has an infinite norm, angular distance undefined"),
        (0.0, DegenerateInputError, "has norm <= 1e-12, angular distance undefined"),
        (np.nan, NumericError, "contains non-finite entries"),
    ], ids=["infinite-norm", "zero-norm", "non-finite"])
    def test_bad_feature_row_named_by_set_and_row(self, large, part, scale, error, tail):
        """A bad row in the second scoring block is named by its test set and its row there;
        ``model_logits`` names its row in its inputs. With zero biases, a zero row has zero
        features."""
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        data = getattr(large, part)
        bad_part = LabeledDataset(data.inputs.copy(), data.labels, data.group_ids)
        bad_part.inputs[1300] *= scale  # after construction: a dataset refuses a NaN row
        bad = replace(large, **{part: bad_part})
        with pytest.raises(error) as info:
            evaluate(emb, bank, bad, LossConfig())
        assert str(info.value) == f"{part}: features row 1300 {tail}"
        with pytest.raises(error) as info:
            model_logits(emb, bank, bad_part.inputs, LossConfig())
        assert str(info.value) == f"features row 1300 {tail}"

    def test_overflowing_euclidean_logits_rejected(self, large):
        """Finite features whose squared distances overflow give infinite logits, which are
        checked once, after scoring, by ``evaluate`` and by ``model_logits``."""
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=0), 4)
        inputs = large.test_unknown.inputs.copy()
        inputs[1300] *= 1e160
        unknown = LabeledDataset(inputs, large.test_unknown.labels, large.test_unknown.group_ids)
        cfg = LossConfig(classification_metric=Metric.EUCLIDEAN)
        assert np.isfinite(_forward(emb.weights, emb.biases, inputs)[-1]).all()
        with pytest.raises(NumericError) as info:
            evaluate(emb, bank, replace(large, test_unknown=unknown), cfg)
        assert str(info.value) == "logits contains non-finite entries"
        with pytest.raises(NumericError) as info:
            model_logits(emb, bank, inputs, cfg)
        assert str(info.value) == "logits contains non-finite entries"

    @pytest.mark.parametrize("variant", ["full", "euclidean"])
    def test_train_accuracy_is_evaluate_accuracy(self, large, variant):
        """``train``'s last per-epoch accuracy and ``evaluate``'s come from one scorer."""
        cfg = with_keys(TrainConfig(ModelConfig([8, 16, 8]), epochs=2, batch_size=64),
                        {**VARIANTS[variant], "gap_threshold": 0.25, "eval_every": 5})
        emb, bank, history = train(large, cfg)
        report = evaluate(emb, bank, large, cfg.loss)
        assert history[-1].val_accuracy.hex() == report.closed_accuracy.hex()

    @staticmethod
    def check_matches_per_set_scoring(split):
        """evaluate's report equals scoring each test set in one forward pass, bit for bit."""
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=2), 4)
        cfg = LossConfig()
        report = evaluate(emb, bank, split, cfg)
        lk, lu = (unblocked_logits(emb, bank, d.inputs, cfg)
                  for d in (split.test_known, split.test_unknown))
        logits = np.vstack([lk, lu])
        is_known = np.arange(len(logits)) < len(lk)
        labels = np.concatenate([split.test_known.labels, np.full(len(lu), -1)])
        scores = _max_logit(logits)
        hits = lk.argmax(axis=1) == split.test_known.labels
        assert report.closed_accuracy == float(hits.mean())
        assert report.auroc == auroc(scores, is_known)
        assert report.roc_curve.tobytes() == roc_points(scores, is_known).tobytes()
        value, curve = oscr(logits, labels, is_known)
        assert report.oscr == value and report.oscr_curve.tobytes() == curve.tobytes()

    def test_curve_csv_round_trip(self, split, tmp_path):
        emb, bank = init_model(ModelConfig([8, 32, 8], seed=1), 4)
        report = evaluate(emb, bank, split, LossConfig())
        roc_path = tmp_path / "roc.csv"
        oscr_path = tmp_path / "oscr.csv"
        write_roc_csv(roc_path, report.roc_curve)
        write_oscr_csv(oscr_path, report.oscr_curve)
        lines = roc_path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == len(report.roc_curve) + 1
        # 17-significant-digit floats round-trip exactly
        t, fpr, tpr = lines[2].split(",")
        assert float(fpr) == report.roc_curve[1][1]
        lines = oscr_path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,ccr"

    def test_curve_csv_golden_text(self, tmp_path):
        inf = float("inf")
        write_roc_csv(tmp_path / "roc.csv", [(inf, 0.0, 0.0), (1e16, 1e-05, 0.1), (-0.0, 1.0, 1 / 3)])
        write_oscr_csv(tmp_path / "oscr.csv", [(inf, 0.0, 0.0), (sys.float_info.max, 5e-324, 0.5)])
        assert (tmp_path / "roc.csv").read_bytes() == (
            b"threshold,fpr,tpr\n"
            b"inf,0,0\n"
            b"10000000000000000,1.0000000000000001e-05,0.10000000000000001\n"
            b"-0,1,0.33333333333333331\n"
        )
        assert (tmp_path / "oscr.csv").read_bytes() == (
            b"threshold,fpr,ccr\n"
            b"inf,0,0\n"
            b"1.7976931348623157e+308,4.9406564584124654e-324,0.5\n"
        )

    @given(
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.floats(allow_nan=False), min_size=n, max_size=n).map(tuple), max_size=10,
        ))
    )
    @settings(max_examples=100, deadline=None)
    def test_curve_csv_bytes_match_per_element_writer(self, tmp_path_factory, curve):
        base = tmp_path_factory.getbasetemp()
        write_roc_csv(base / "new.csv", curve)
        per_element_curve_csv(base / "old.csv", "threshold,fpr,tpr", curve)
        assert (base / "new.csv").read_bytes() == (base / "old.csv").read_bytes()


def public_block_report(embedder, bank, split, config):
    """``evaluate``'s report built from separate calls: each test set in ``np.array_split``
    blocks of at most 1,024 rows, each scored by ``unblocked_logits`` with untiled biases, then
    the argmax, ``_max_logit``, ``auroc``, ``roc_points`` and ``oscr``."""
    def logits(x):
        return np.vstack([unblocked_logits(embedder, bank, block, config)
                          for block in np.array_split(x, max(1, -(-len(x) // 1024)))])
    known, unknown = logits(split.test_known.inputs), logits(split.test_unknown.inputs)
    z = np.vstack([known, unknown])
    is_known = np.arange(len(z)) < len(known)
    labels = np.concatenate([split.test_known.labels, np.full(len(unknown), -1)])
    scores = _max_logit(z)
    area, curve = oscr(z, labels, is_known)
    return EvalReport(float((known.argmax(axis=1) == split.test_known.labels).mean()),
                      auroc(scores, is_known), area, roc_points(scores, is_known), curve)


PART_SIZES = [1, 2, 1023, 1024, 1025, 2049, 3074]


@st.composite
def scored_splits(draw):
    """(embedder, bank, split, loss config): a random MLP with random biases (so no feature
    row is zero), test sets of ``PART_SIZES`` rows with duplicate rows and signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    metric = draw(st.sampled_from([Metric.ANGULAR, Metric.EUCLIDEAN]))
    # a 1-wide embedding has no angular score (see test_one_wide_embedding_has_no_angular_score)
    out_min = 2 if metric is Metric.ANGULAR else 1
    dims = [draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(out_min, 9))]
    k = draw(st.integers(2, 5))
    emb, bank = init_model(ModelConfig(dims, seed=draw(st.integers(0, 99))), k)
    emb.biases = [rng.standard_normal(b.shape) for b in emb.biases]
    parts = []
    for rows in (draw(st.sampled_from(PART_SIZES)), draw(st.sampled_from(PART_SIZES))):
        x = rng.standard_normal((rows, dims[0])) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
        x[rng.integers(0, rows, rows // 4)] = x[rng.integers(0, rows, rows // 4)]  # duplicates
        parts.append(LabeledDataset(x, rng.integers(0, k, rows), np.zeros(rows)))
    split = OpenSetSplit(parts[0], parts[0], parts[1], {c: c for c in range(k)})
    tau = draw(st.floats(0.125, 16.0).filter(lambda t: t != 1.0))
    return emb, bank, split, LossConfig(tau=tau, classification_metric=metric)


# public scoring entries, each called on a model and the split's known test set
SCORING_ENTRIES = {
    "evaluate": evaluate,
    "model_logits": lambda emb, bank, split, cfg: model_logits(
        emb, bank, split.test_known.inputs, cfg),
    "classification_loss": lambda emb, bank, split, cfg: classification_loss(
        _forward(emb.weights, emb.biases, split.test_known.inputs)[-1], bank,
        split.test_known.labels, cfg.classification_metric, cfg.tau),
    "total_loss": lambda emb, bank, split, cfg: total_loss(
        _forward(emb.weights, emb.biases, split.test_known.inputs)[-1], bank,
        split.test_known.labels, cfg),
    # ``train`` scores its epochs through ``model_logits``; its config check comes first
    "train": lambda emb, bank, split, cfg: train(split, TrainConfig(
        ModelConfig([emb.weights[0].shape[0], *(w.shape[1] for w in emb.weights)]),
        cfg, epochs=1)),
}
# scoring heads that ``LossConfig.validate`` refuses: (layer_dims, config)
BAD_HEADS = {
    "tau-zero": ([8, 32, 8], LossConfig(tau=0.0)),
    "tau-negative": ([8, 32, 8], LossConfig(tau=-1.0)),
    "tau-nan": ([8, 32, 8], LossConfig(tau=float("nan"))),
    "angular-one-wide": ([8, 32, 1], LossConfig(classification_metric=Metric.ANGULAR)),
}


@pytest.mark.parametrize("head", sorted(BAD_HEADS))
@pytest.mark.parametrize("entry", sorted(SCORING_ENTRIES))
def test_every_scoring_entry_refuses_a_bad_head(split, entry, head):
    """Each public scoring entry raises ``LossConfig.validate``'s own error for a bad head."""
    dims, cfg = BAD_HEADS[head]
    with pytest.raises(ConfigError) as expected:
        cfg.validate(dims[-1])
    emb, bank = init_model(ModelConfig(dims, seed=0), 4)
    with pytest.raises(ConfigError) as info:
        SCORING_ENTRIES[entry](emb, bank, split, cfg)
    assert str(info.value) == str(expected.value)


class TestPublicBlockPath:
    @given(scored_splits())
    @settings(max_examples=60, deadline=None)
    def test_report_bits_equal_public_block_path(self, case):
        """``evaluate`` checks once and scores blocks with tiled biases, with every bit of
        separate calls on the same blocks: the cores with untiled biases, then the metrics."""
        emb, bank, split, cfg = case
        assert evaluate(emb, bank, split, cfg) == public_block_report(emb, bank, split, cfg)


@functools.lru_cache(maxsize=None)
def trained(variant, seed):
    """A small hard-mode split and a model briefly trained on it under ``variant``;
    returns (split, loss config, embedder, bank, report). Callers must not mutate it."""
    ds = gen_synthetic(5, 40, 6, 4.0, 1.0, seed=seed, hard=True)
    split = apply_split(ds, SplitSpec([0, 1, 2], [3, 4]), 0.3, seed)
    cfg = with_keys(TrainConfig(ModelConfig([6, 16, 4]), epochs=10, batch_size=16),
                    {**VARIANTS[variant], "gap_threshold": 0.25, "seed": seed})
    emb, bank, _ = train(split, cfg)
    return split, cfg.loss, emb, bank, evaluate(emb, bank, split, cfg.loss)


def numbers(report):
    return report.closed_accuracy, report.auroc, report.oscr


class TestTrainedInvariances:
    """The invariances OSSAR's evaluation relies on, on trained models, compared by bits."""

    @given(st.sampled_from(["full", "euclidean"]), st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_order_of_test_rows(self, variant, seed, perm_seed):
        split, loss, emb, bank, report = trained(variant, seed)
        rng = np.random.default_rng(perm_seed)
        shuffled = replace(
            split,
            test_known=split.test_known.subset(rng.permutation(len(split.test_known))),
            test_unknown=split.test_unknown.subset(rng.permutation(len(split.test_unknown))),
        )
        assert evaluate(emb, bank, shuffled, loss) == report

    @given(st.sampled_from(["full", "euclidean"]), st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_class_relabelling(self, variant, seed, perm_seed):
        # trained scores are continuous, so no argmax tie depends on the column order
        split, loss, emb, bank, report = trained(variant, seed)
        perm = np.random.default_rng(perm_seed).permutation(bank.num_classes)
        relabelled = ReciprocalBank(bank.points[perm], bank.margins[perm])
        known = split.test_known
        moved = LabeledDataset(known.inputs, np.argsort(perm)[known.labels], known.group_ids)
        got = evaluate(emb, relabelled, replace(split, test_known=moved), loss)
        assert numbers(got) == numbers(report)

    @given(st.sampled_from(["full", "euclidean"]), st.integers(0, 1),
           st.sampled_from([-3, -2, -1, 1, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_hyperspherical_scale(self, variant, seed, exponent):
        # a power of two scales every product exactly, so the comparisons can be bitwise
        split, loss, emb, bank, report = trained(variant, seed)
        c = 2.0 ** exponent
        scaled = Embedder([*emb.weights[:-1], emb.weights[-1] * c],
                          [*emb.biases[:-1], emb.biases[-1] * c])
        got = evaluate(scaled, ReciprocalBank(bank.points * c, bank.margins), split, loss)
        if variant == "full":  # angular scores ignore the features' and points' norms
            assert got == report
            return
        # the Euclidean score scales by c**2: the same ranking, rescaled thresholds
        assert got != report and numbers(got) == numbers(report)
        for new, old in ((got.roc_curve, report.roc_curve), (got.oscr_curve, report.oscr_curve)):
            assert new[:, 1:].tobytes() == old[:, 1:].tobytes()
            assert new[:, 0].tobytes() == (old[:, 0] * c * c).tobytes()


@pytest.mark.parametrize("label, message", [
    (0.5, "labels must be integer-valued, got dtype float64"),
    ("a", "labels must be integer-valued, got dtype <U21"),  # numpy's text of 'a', 1 and 9
    (7, "labels out of range [0, 2): min 1, max 7"),
], ids=["fraction", "text", "past-the-last-column"])
def test_oscr_known_labels_must_be_logit_columns(label, message):
    # each was counted as a miss; an unknown row's label is not read, so 9 is no class here
    logits, is_known = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [True, True, False]
    assert oscr(logits, [0, 1, 9], is_known)[0] == 1.0
    with pytest.raises(DataError) as info:
        oscr(logits, [label, 1, 9], is_known)
    assert str(info.value) == message
