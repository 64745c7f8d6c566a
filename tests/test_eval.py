import functools
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.benchmark import benchmark_split
from osrkit.data import LabeledDataset, SplitSpec, apply_split, gen_synthetic
from osrkit.errors import EvalError, UsageError
from osrkit.evaluate import (
    auroc,
    evaluate,
    openset_score,
    oscr,
    predict_closed,
    roc_auc_trapezoid,
    roc_points,
    write_oscr_csv,
    write_roc_csv,
)
from osrkit.losses import LossConfig
from osrkit.model import Embedder, ModelConfig, ReciprocalBank, init_model
from osrkit.train import VARIANTS, TrainConfig, _apply_overrides, train


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
    """Per-threshold oracle: recount every sample at each distinct score."""
    s = np.asarray(scores, dtype=float)
    k = np.asarray(is_known, dtype=bool)
    curve = [(float("inf"), 0.0, 0.0)]
    for t in np.unique(s)[::-1]:
        sel = s >= t
        rate = float((sel & hits).sum() / k.sum())
        fpr = float((sel & ~k).sum() / (~k).sum())
        curve.append((float(t), fpr, rate))
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


class TestPredictClosed:
    def test_argmax(self):
        assert predict_closed([[0.1, 0.9]])[0] == 1

    def test_tie_breaks_low(self):
        assert predict_closed([[0.5, 0.5]])[0] == 0

    def test_empty_batch(self):
        with pytest.raises(UsageError):
            predict_closed(np.zeros((0, 3)))

    def test_scale_invariant_labels_under_angular_scoring(self):
        from osrkit.losses import classification_logits
        from osrkit.model import ReciprocalBank
        from osrkit.numerics import Metric

        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10, 4))
        bank = ReciprocalBank(rng.standard_normal((3, 4)), np.zeros(3))
        l1 = classification_logits(feats, bank, Metric.ANGULAR, 1.0)
        l2 = classification_logits(7.5 * feats, bank, Metric.ANGULAR, 1.0)
        np.testing.assert_array_equal(predict_closed(l1), predict_closed(l2))


class TestOpensetScore:
    def test_max(self):
        assert openset_score([[0.2, 0.8]])[0] == pytest.approx(0.8)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 4))
        c = 3.7
        np.testing.assert_allclose(openset_score(z + c), openset_score(z) + c, atol=1e-12)


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


class TestSweepMatchesLoop:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["quantized", "signed_zero", "continuous"]))
    @settings(max_examples=150, deadline=None)
    def test_roc_and_oscr_curves(self, seed, kind):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(2, 40))
        k = int(rng.integers(2, 5))
        logits = rng.standard_normal((b, k))
        if kind == "quantized":
            logits = np.round(logits, 1)
        elif kind == "signed_zero":
            # mostly zeros of both signs, so tie runs mix 0.0 and -0.0
            logits = np.where(rng.random((b, k)) < 0.7, 0.0, np.round(logits))
            logits = np.copysign(logits, rng.choice([-1.0, 1.0], size=(b, k)))
        is_known = rng.random(b) < 0.5
        is_known[0], is_known[-1] = True, False
        labels = rng.integers(0, k, b)
        scores = logits.max(axis=1)
        assert_same_curve(roc_points(scores, is_known), loop_curve(scores, is_known, is_known))
        correct = is_known & (logits.argmax(axis=1) == labels)
        _, curve = oscr(logits, labels, is_known)
        assert_same_curve(curve, loop_curve(scores, correct, is_known))


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

    @pytest.mark.parametrize("zeros", [[0.0, -0.0], [-0.0, 0.0]], ids=["pos_first", "neg_first"])
    def test_zero_run_of_both_signs_named_as_np_unique(self, zeros):
        # the run's last sample has the other sign than its first, which np.unique keeps here
        scores = np.array([1.0, *zeros, 0.5, *zeros, -2.0])
        is_known = np.array([True, False, True, False, True, False, False])
        logits = np.stack([scores, scores - 1.0], axis=1)
        labels = np.array([0, -1, 1, -1, 0, -1, -1])
        curve = roc_points(scores, is_known)
        assert_same_curve(curve, loop_curve(scores, is_known, is_known))
        _, curve = oscr(logits, labels, is_known)
        assert_same_curve(curve, loop_curve(scores, is_known & (labels == 0), is_known))
        assert auroc(scores, is_known).hex() == average_rank_auroc(scores, is_known).hex()


class TestOscr:
    def test_perfect(self):
        logits = np.array([[5.0, 0.0], [0.0, 4.0], [0.5, 0.4], [0.3, 0.2]])
        labels = np.array([0, 1, -1, -1])
        is_known = np.array([True, True, False, False])
        value, _ = oscr(logits, labels, is_known)
        assert value == pytest.approx(1.0)

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

    def test_matches_per_set_scoring(self, split):
        from osrkit.losses import classification_logits
        from osrkit.model import embed_forward

        emb, bank = init_model(ModelConfig([8, 32, 8], seed=2), 4)
        cfg = LossConfig()
        report = evaluate(emb, bank, split, cfg)
        lk, lu = (
            classification_logits(embed_forward(emb, d.inputs)[0], bank,
                                  cfg.classification_metric, cfg.tau)
            for d in (split.test_known, split.test_unknown)
        )
        logits = np.vstack([lk, lu])
        is_known = np.arange(len(logits)) < len(lk)
        labels = np.concatenate([split.test_known.labels, np.full(len(lu), -1)])
        assert report.closed_accuracy == float((predict_closed(lk) == split.test_known.labels).mean())
        assert report.auroc == auroc(openset_score(logits), is_known)
        assert report.roc_curve.tobytes() == roc_points(openset_score(logits), is_known).tobytes()
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


@functools.lru_cache(maxsize=None)
def trained(variant, seed):
    """A small hard-mode split and a model briefly trained on it under ``variant``;
    returns (split, loss config, embedder, bank, report). Callers must not mutate it."""
    ds = gen_synthetic(5, 40, 6, 4.0, 1.0, seed=seed, hard=True)
    split = apply_split(ds, SplitSpec([0, 1, 2], [3, 4]), 0.3, seed)
    cfg = _apply_overrides(TrainConfig(ModelConfig([6, 16, 4]), epochs=10, batch_size=16),
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
