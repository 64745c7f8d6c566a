import math
import zlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.checks import DEFAULT_TOL, gradient_cases, run_gradient_suite
from osrkit.config import VARIANTS
from osrkit.data import LabeledDataset, OpenSetSplit
from osrkit.errors import ConfigError, DataError, DegenerateInputError, NumericError, UsageError
from osrkit.evaluate import evaluate, model_logits
from osrkit.losses import (
    LossConfig,
    classification_loss,
    margin_loss,
    overconfidence_loss,
    total_loss,
    vacuous_overconfidence,
)
from osrkit.model import Embedder, ReciprocalBank, save_checkpoint
from osrkit.numerics import (
    Metric,
    _log_softmax,
    _scores,
    _scores_backward,
)
from test_numerics import scores


def assert_sum_of_terms(actual, *terms):
    """``actual`` equals sum(terms) to 1e-12 relative to the terms' magnitudes.

    Relative to the terms rather than to the sum, because the terms may
    cancel and leave a sum much smaller than its rounding error.
    """
    expected = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    assert (np.abs(actual - expected) <= 1e-12 * scale).all()


def make_bank(points, margins=None):
    points = np.asarray(points, dtype=np.float64)
    if margins is None:
        margins = np.zeros(points.shape[0])
    return ReciprocalBank(points, np.asarray(margins, dtype=np.float64))


def random_case(rng, b=None, d=None, k=None):
    b = b or int(rng.integers(1, 9))
    d = d or int(rng.integers(2, 9))
    k = k or int(rng.integers(2, 6))
    features = rng.standard_normal((b, d))
    bank = make_bank(rng.standard_normal((k, d)), rng.uniform(0, 2, k))
    labels = rng.integers(0, k, b)
    return features, bank, labels


class TestClassificationLoss:
    def test_uniform_scores_give_ln_k(self):
        # both class points equidistant from every feature -> uniform softmax
        bank = make_bank([[1.0, 0.0], [0.0, 1.0]])
        features = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = classification_loss(features, bank, [0, 1], Metric.ANGULAR, 1.0)
        assert out.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_tau_scaling_identity(self):
        rng = np.random.default_rng(5)
        features, bank, labels = random_case(rng, b=4, d=3, k=3)
        v1 = classification_loss(features, bank, labels, Metric.EUCLIDEAN, 2.0).value
        # loss at (scores s, tau=2) must equal the cross-entropy of the logits 2s
        logp = _log_softmax(2.0 * scores(features, bank.points, Metric.EUCLIDEAN))
        v2 = float(-logp[np.arange(4), labels].mean())
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_angular_closed_form_value(self):
        # features/points chosen so angular scores are exactly [0.9, 0.1, -0.5]
        f = np.array([[1.0, 0.0]])
        p = np.array(
            [
                [0.9, math.sqrt(1 - 0.81)],
                [0.1, math.sqrt(1 - 0.01)],
                [-0.5, math.sqrt(1 - 0.25)],
            ]
        )
        out = classification_loss(f, make_bank(p), [0], Metric.ANGULAR, 1.0)
        # oracle: -log(e^0.9 / (e^0.9 + e^0.1 + e^-0.5))
        assert out.value == pytest.approx(0.5282288619223373, abs=1e-12)

    def test_angular_closed_form_value_variant(self):
        # same construction with third score -1.5... impossible for a cosine;
        # evaluate the softmax arithmetic directly instead
        s = np.array([0.9, 0.1, -1.5])
        oracle = float(np.log(np.exp(s).sum()) - 0.9)
        assert oracle == pytest.approx(0.4318128818099271, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_bad_tau_rejected(self, tau):
        features, bank, labels = random_case(np.random.default_rng(3))
        with pytest.raises(ConfigError):
            classification_loss(features, bank, labels, Metric.ANGULAR, tau)

    def test_label_out_of_range(self):
        bank = make_bank([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError):
            classification_loss([[1.0, 1.0]], bank, [2], Metric.ANGULAR, 1.0)

    def test_zero_norm_feature_under_angular(self):
        bank = make_bank([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            classification_loss([[0.0, 0.0]], bank, [0], Metric.ANGULAR, 1.0)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_angular_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        features, bank, labels = random_case(rng)
        v1 = classification_loss(features, bank, labels, Metric.ANGULAR, 1.0).value
        v2 = classification_loss(c * features, bank, labels, Metric.ANGULAR, 1.0).value
        assert v2 == pytest.approx(v1, abs=1e-10)

    def test_euclidean_not_scale_invariant(self):
        rng = np.random.default_rng(12)
        features, bank, labels = random_case(rng, b=6, d=4, k=3)
        v1 = classification_loss(features, bank, labels, Metric.EUCLIDEAN, 1.0).value
        v2 = classification_loss(3.0 * features, bank, labels, Metric.EUCLIDEAN, 1.0).value
        assert abs(v1 - v2) > 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            features, bank, labels = random_case(rng)
            assert classification_loss(features, bank, labels, Metric.ANGULAR, 1.0).value >= 0
            assert classification_loss(features, bank, labels, Metric.EUCLIDEAN, 1.0).value >= 0


class TestMarginLoss:
    def test_inactive_hinge_zero_everything(self):
        bank = make_bank([[0.0, 0.0], [5.0, 5.0]], margins=[10.0, 10.0])
        out = margin_loss([[1.0, 0.0], [0.1, 0.2]], bank, [0, 0], Metric.EUCLIDEAN)
        assert out.value == 0.0
        assert (out.grad_features == 0).all()
        assert (out.grad_points == 0).all()
        assert (out.grad_margins == 0).all()

    def test_pure_distance_hand_value(self):
        # f=[1,0], p=[0,0], D=2, R=0 -> hinge = (1+0)/2 = 0.5
        bank = make_bank([[0.0, 0.0], [9.0, 9.0]])
        out = margin_loss([[1.0, 0.0]], bank, [0], Metric.EUCLIDEAN)
        assert out.value == pytest.approx(0.5, abs=1e-12)

    def test_margin_linearity_while_active(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((4, 3)) * 3
        points = rng.standard_normal((2, 3)) * 0.1
        labels = np.array([0, 1, 0, 1])
        r = 0.05
        v1 = margin_loss(features, make_bank(points, [r, r]), labels, Metric.EUCLIDEAN).value
        v2 = margin_loss(features, make_bank(points, [2 * r, 2 * r]), labels, Metric.EUCLIDEAN).value
        # every sample active at both margins: raising R by r lowers each
        # sample's hinge by r, so the mean drops by exactly r
        assert v1 - v2 == pytest.approx(r, abs=1e-12)

    def test_doubling_active_margin_drops_value_by_r_over_b(self):
        r = 0.3
        bank = make_bank([[0.0, 0.0], [9.0, 9.0]], margins=[r, 0.0])
        features = np.array([[2.0, 0.0], [9.0, 9.0]])  # sample 0 active, 1 at d=0
        labels = [0, 1]
        v1 = margin_loss(features, bank, labels, Metric.EUCLIDEAN).value
        bank2 = make_bank([[0.0, 0.0], [9.0, 9.0]], margins=[2 * r, 0.0])
        v2 = margin_loss(features, bank2, labels, Metric.EUCLIDEAN).value
        assert v1 - v2 == pytest.approx(r / 2, abs=1e-12)

    def test_margin_gradient_counts_active_samples(self):
        bank = make_bank([[0.0, 0.0], [0.0, 0.0]])
        features = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        out = margin_loss(features, bank, [0, 0, 1, 1], Metric.EUCLIDEAN)
        # class 0: two active samples -> -2/4; class 1: one active (last has d=0)
        np.testing.assert_allclose(out.grad_margins, [-0.5, -0.25])

    def test_str_metric_rejected(self):
        features, bank, labels = random_case(np.random.default_rng(8))
        with pytest.raises(ConfigError, match="^bad margin_metric 'euclidean'$"):
            margin_loss(features, bank, labels, "euclidean")

    @pytest.mark.parametrize("metric", list(Metric))
    def test_nonnegative(self, metric):
        rng = np.random.default_rng(7)
        for _ in range(10):
            features, bank, labels = random_case(rng)
            assert margin_loss(features, bank, labels, metric).value >= 0


def identity(features):
    """An embedder that passes ``features`` through unchanged."""
    d = features.shape[1]
    return Embedder([np.eye(d)], [np.zeros(d)])


def split_of(features, labels):
    """A 3-class split with ``features`` as both its known and unknown test sets."""
    known = LabeledDataset(features, labels, np.zeros(len(labels)))
    return OpenSetSplit(known, known, known, {0: 0, 1: 1, 2: 2})


@pytest.mark.parametrize("margins, error, message", [
    (np.zeros(2), ConfigError, r"^margins have shape \(2,\), not \(3,\)$"),
    (np.zeros((3, 1)), ConfigError, r"^margins have shape \(3, 1\), not \(3,\)$"),
    (np.array([0.0, np.inf, 0.0]), NumericError, "^margins contains non-finite entries$"),
    (np.array([0.0, 0.0, np.nan]), NumericError, "^margins contains non-finite entries$"),
], ids=["short", "column", "inf", "nan"])
@pytest.mark.parametrize("loss", [
    margin_loss,
    lambda f, bank, y: total_loss(f, bank, y, LossConfig()),
    lambda f, bank, y: classification_loss(f, bank, y, Metric.ANGULAR),
    lambda f, bank, y: model_logits(identity(f), bank, f, LossConfig()),
    lambda f, bank, y: evaluate(identity(f), bank, split_of(f, y), LossConfig()),
], ids=["margin_loss", "total_loss", "classification_loss", "model_logits", "evaluate"])
def test_bad_margins_rejected(loss, margins, error, message):
    # at K = 3: a short bank escaped as IndexError, a column as TypeError, and an
    # infinite margin switched its hinge off; the scoring entries ignored the margins
    features, bank, _ = random_case(np.random.default_rng(4), b=5, d=3, k=3)
    with pytest.raises(error, match=message):
        loss(features, ReciprocalBank(bank.points, margins), [0, 1, 2, 0, 2])


def checkpoint_bytes(features, bank, path):
    save_checkpoint(path, identity(features), bank)
    return path.read_bytes()


# the entries that score or store a bank, each called as (features, bank, labels, a file path)
BANK_ENTRIES = {
    "classification_loss": lambda f, bank, y, path: classification_loss(
        f, bank, y, Metric.ANGULAR, 2.0),
    "margin_loss": lambda f, bank, y, path: margin_loss(f, bank, y, Metric.EUCLIDEAN),
    "total_loss": lambda f, bank, y, path: total_loss(f, bank, y, LossConfig(alpha=0.5)),
    "model_logits": lambda f, bank, y, path: model_logits(identity(f), bank, f, LossConfig()),
    "evaluate": lambda f, bank, y, path: evaluate(identity(f), bank, split_of(f, y),
                                                  LossConfig()),
    "save_checkpoint": lambda f, bank, y, path: checkpoint_bytes(f, bank, path),
}
BANK_LOSSES = ["classification_loss", "margin_loss", "total_loss"]


def bits(out):
    """An entry's output as its bytes: arrays and floats by shape and bits, field by field."""
    if isinstance(out, bytes):
        return out
    if is_dataclass(out):
        return [bits(getattr(out, f.name)) for f in fields(out)]
    if isinstance(out, dict):
        return {key: bits(value) for key, value in out.items()}
    a = np.asarray(out, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("entry", sorted(BANK_ENTRIES))
def test_a_bank_of_lists_scores_as_its_arrays(entry, tmp_path):
    # the bank rule accepts nested lists; an entry that scored the unchecked bank raised a bare
    # AttributeError or TypeError on them
    features, bank, _ = random_case(np.random.default_rng(6), b=5, d=3, k=3)
    labels = [0, 1, 2, 0, 2]
    listed = ReciprocalBank(bank.points.tolist(), bank.margins.tolist())
    got = BANK_ENTRIES[entry](features, listed, labels, tmp_path / "listed.osrp")
    want = BANK_ENTRIES[entry](features, bank, labels, tmp_path / "arrays.osrp")
    assert bits(got) == bits(want)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("entry", [*BANK_LOSSES, "model_logits"])
def test_a_bank_needs_two_points(entry, k):
    # model_logits scored a 0-point bank as a (B, 0) array, and a 1-point bank's loss was 0.0
    features = np.random.default_rng(5).standard_normal((4, 3))
    bank = ReciprocalBank(np.ones((k, 3)), np.zeros(k))
    with pytest.raises(ConfigError) as info:
        BANK_ENTRIES[entry](features, bank, np.zeros(4, dtype=int), None)
    assert str(info.value) == f"need at least 2 classes, got {k}"


@pytest.mark.parametrize("labels", [
    [0, 1, 2, 0.7, 2], ["a", "b", "c", "a", "c"], [0, 1, 2, 0, np.nan],
], ids=["fraction", "text", "nan"])
@pytest.mark.parametrize("entry", BANK_LOSSES)
def test_labels_must_be_integer_valued(entry, labels):
    # a fraction was cast to its class (0.7 scored class 0) and text escaped as a bare
    # ValueError; whole floats keep scoring as the integers they equal
    features, bank, _ = random_case(np.random.default_rng(4), b=5, d=3, k=3)
    loss = BANK_ENTRIES[entry]
    whole = np.array([0, 1, 2, 0, 2])
    assert bits(loss(features, bank, whole.astype(float), None)) == bits(
        loss(features, bank, whole, None))
    with pytest.raises(DataError) as info:
        loss(features, bank, labels, None)
    assert str(info.value) == f"labels must be integer-valued, got dtype {np.asarray(labels).dtype}"


@pytest.mark.parametrize("loss, message", [
    (lambda f, bank, y: classification_loss(f, bank, y, Metric.ANGULAR, 0.0),
     "tau must be > 0, got 0.0"),
    (lambda f, bank, y: total_loss(f, bank, y, LossConfig(tau=0.0)), "tau must be > 0, got 0.0"),
    (lambda f, bank, y: margin_loss(f, bank, y, "euclidean"), "bad margin_metric 'euclidean'"),
    (lambda f, bank, y: total_loss(f, bank, y, LossConfig(margin_metric="euclidean")),
     "bad margin_metric 'euclidean'"),
], ids=["classification_loss", "total_loss-tau", "margin_loss", "total_loss-metric"])
def test_config_is_checked_before_labels(loss, message):
    # every bank loss checks features, bank, config, then labels: one first error per batch
    features, bank, _ = random_case(np.random.default_rng(4), b=5, d=3, k=3)
    with pytest.raises(ConfigError) as info:
        loss(features, bank, [0, 1, 2, 0, 7])
    assert str(info.value) == message


class TestOverconfidenceLoss:
    def test_equal_logits_contribute_nothing(self):
        value, grad = overconfidence_loss([[1.0, 1.0, 1.0]], 0.0)
        assert value == 0.0
        assert (grad == 0).all()

    def test_bounded_angular_gaps_forced_inactive(self):
        # angular logits with tau=1 live in [-1, 1]; gaps never exceed 2
        rng = np.random.default_rng(4)
        logits = rng.uniform(-1, 1, (16, 5))
        value, grad = overconfidence_loss(logits, 2.0)
        assert value == 0.0
        assert (grad == 0).all()

    def test_hand_value(self):
        # gaps [0, 3, 2] at threshold 1 -> 2 + 1 = 3
        value, grad = overconfidence_loss([[3.0, 0.0, 1.0]], 1.0)
        assert value == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(grad, [[2.0, -1.0, -1.0]])

    def test_batch_mean_reduction(self):
        value, _ = overconfidence_loss([[3.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 1.0)
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_monotone_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((8, 4)) * 3
        values = [overconfidence_loss(logits, t)[0] for t in np.linspace(0, 6, 25)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            overconfidence_loss([[1.0, 0.0]], -0.1)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="^empty batch$"):
            overconfidence_loss(np.zeros((0, 3)), 0.5)

    def test_zero_columns_rejected(self):
        # the logits rule of ``oscr``; the argmax of an empty row escaped as a bare ValueError
        with pytest.raises(UsageError) as info:
            overconfidence_loss(np.zeros((3, 0)), 0.5)
        assert str(info.value) == "logits need at least one column, got shape (3, 0)"

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            logits = rng.standard_normal((5, 4)) * 2
            assert overconfidence_loss(logits, float(rng.uniform(0, 2)))[0] >= 0


class TestTotalLoss:
    @pytest.mark.parametrize("rows,labels,message", [
        (4, [0, 1, 0], r"^labels must be 1-D of length 4, got shape \(3,\)$"),
        (0, [], "^empty batch$"),
    ], ids=["wrong-length", "empty-batch"])
    def test_bad_batch_rejected(self, rows, labels, message):
        features, bank, _ = random_case(np.random.default_rng(2), b=4, d=3, k=2)
        with pytest.raises(DataError, match=message):
            total_loss(features[:rows], bank, labels, LossConfig())

    def test_str_margin_metric_rejected(self):
        with pytest.raises(ConfigError, match="^bad margin_metric 'euclidean'$"):
            LossConfig(margin_metric="euclidean").validate()

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 20.0), st.floats(1.0, 4.0),
           st.floats(0.01, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_vacuous_hinge_is_never_active(self, seed, tau, factor, beta):
        cfg = LossConfig(tau=tau, beta=beta, gap_threshold=2 * tau * factor,
                         classification_metric=Metric.ANGULAR)
        assert vacuous_overconfidence(cfg)
        features, bank, labels = random_case(np.random.default_rng(seed))
        # rows aligned with and opposite to a point reach the largest gap, 2 * tau
        features = np.vstack([features, bank.points[0], -bank.points[0]])
        labels = np.append(labels, [0, 0])
        assert total_loss(features, bank, labels, cfg).parts["overconfidence"] == 0.0

    @given(st.floats(0.05, 20.0), st.floats(0.0, 0.99), st.floats(0.01, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_hinge_active_below_twice_tau(self, tau, fraction, beta):
        cfg = LossConfig(tau=tau, beta=beta, gap_threshold=2 * tau * fraction,
                         classification_metric=Metric.ANGULAR)
        assert not vacuous_overconfidence(cfg)
        bank = make_bank([[2.0, 0.0], [-0.5, 0.0], [0.0, 1.0]])
        # aligned with point 0 and opposite point 1: that class's gap is 2 * tau
        out = total_loss([[3.0, 0.0]], bank, [0], cfg)
        assert out.parts["overconfidence"] >= 2 * tau - cfg.gap_threshold > 0.0

    def test_zero_weights_reduce_to_classification(self):
        rng = np.random.default_rng(6)
        features, bank, labels = random_case(rng, b=5, d=4, k=3)
        cfg = LossConfig(alpha=0.0, beta=0.0, classification_metric=Metric.ANGULAR)
        total = total_loss(features, bank, labels, cfg)
        cls = classification_loss(features, bank, labels, Metric.ANGULAR, cfg.tau)
        assert total.value == cls.value

    def test_weighted_sum_arithmetic(self):
        rng = np.random.default_rng(10)
        features, bank, labels = random_case(rng, b=6, d=3, k=4)
        cfg = LossConfig(alpha=0.1, beta=0.1, gap_threshold=0.25)
        out = total_loss(features, bank, labels, cfg)
        parts = out.parts
        expected = (
            parts["classification"] + 0.1 * parts["margin"] + 0.1 * parts["overconfidence"]
        )
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_known_component_values_combine(self):
        # (0.5, 0.2, 0.3) at alpha=beta=0.1 -> 0.55
        assert 0.5 + 0.1 * 0.2 + 0.1 * 0.3 == pytest.approx(0.55, abs=1e-12)

    def test_euclidean_beta_zero_matches_composite_of_parts(self):
        rng = np.random.default_rng(14)
        features, bank, labels = random_case(rng, b=4, d=3, k=3)
        cfg = LossConfig(alpha=0.1, beta=0.0, classification_metric=Metric.EUCLIDEAN)
        out = total_loss(features, bank, labels, cfg)
        cls = classification_loss(features, bank, labels, Metric.EUCLIDEAN, cfg.tau)
        mar = margin_loss(features, bank, labels, cfg.margin_metric)
        assert out.value == pytest.approx(cls.value + 0.1 * mar.value, abs=1e-12)

    def test_coc_consumes_classification_logits(self):
        rng = np.random.default_rng(15)
        features, bank, labels = random_case(rng, b=4, d=3, k=3)
        cfg = LossConfig(alpha=0.0, beta=1.0, gap_threshold=0.1, tau=1.7)
        out = total_loss(features, bank, labels, cfg)
        logits = cfg.tau * scores(features, bank.points, cfg.classification_metric)
        oc_value, _ = overconfidence_loss(logits, 0.1)
        cls = classification_loss(
            features, bank, labels, cfg.classification_metric, cfg.tau
        )
        assert out.value == pytest.approx(cls.value + oc_value, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta,metric,margin_metric", [
        # a margin other than the default euclidean one adds itself to the id; at alpha = 0
        # the margin term is weighted out, so only the default margin runs there
        pytest.param(alpha, beta, metric, margin, id=f"{alpha}-{beta}-{metric}" + (
            "" if margin is Metric.EUCLIDEAN else f"-{margin}"))
        for margin in Metric for metric in (Metric.EUCLIDEAN, Metric.ANGULAR)
        for alpha, beta in [(0.1, 0.3), (0.0, 0.3), (0.1, 0.0), (0.0, 0.0)]
        if alpha or margin is Metric.EUCLIDEAN])
    def test_fused_gradients_equal_sum_of_parts(self, alpha, beta, metric, margin_metric):
        # total_loss scores once and runs one backward; its gradients must
        # match the unfused definition built from the loss terms and a
        # separate score backward.
        rng = np.random.default_rng(21)
        oc_active = False
        for _ in range(20):
            features, bank, labels = random_case(rng)
            cfg = LossConfig(tau=1.3, alpha=alpha, beta=beta, gap_threshold=0.1,
                             classification_metric=metric, margin_metric=margin_metric)
            out = total_loss(features, bank, labels, cfg)
            cls = classification_loss(features, bank, labels, metric, cfg.tau)
            mar = margin_loss(features, bank, labels, cfg.margin_metric)
            logits = cfg.tau * scores(features, bank.points, metric)
            _, grad_oc = overconfidence_loss(logits, cfg.gap_threshold)
            oc_active = oc_active or bool(grad_oc.any())
            saved = _scores(features, bank.points, metric)[1]
            oc_f, oc_p = _scores_backward(
                features, bank.points, metric, cfg.tau * grad_oc, saved
            )
            assert_sum_of_terms(
                out.grad_features, cls.grad_features, alpha * mar.grad_features, beta * oc_f
            )
            assert_sum_of_terms(
                out.grad_points, cls.grad_points, alpha * mar.grad_points, beta * oc_p
            )
            assert_sum_of_terms(out.grad_margins, cls.grad_margins, alpha * mar.grad_margins)
        assert oc_active

    def test_zero_step_keeps_argmax(self):
        rng = np.random.default_rng(16)
        features, bank, labels = random_case(rng, b=5, d=4, k=3)
        cfg = LossConfig()
        logits_before = cfg.tau * scores(features, bank.points, cfg.classification_metric)
        total_loss(features, bank, labels, cfg)  # must not mutate anything
        logits_after = cfg.tau * scores(features, bank.points, cfg.classification_metric)
        np.testing.assert_array_equal(
            logits_before.argmax(axis=1), logits_after.argmax(axis=1)
        )


class TestLossGradients:
    """The grad-check suite's cases, each on a few instances from a seed of its own."""

    @pytest.mark.parametrize("name", list(gradient_cases()))
    def test_loss_gradients(self, name):
        case = gradient_cases()[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(3):
            assert case(rng) < DEFAULT_TOL

    def test_case_list_follows_the_arms_and_metrics(self):
        names = [r.name for r in run_gradient_suite(instances=1)]
        assert names[:9] == [
            "classification_euclidean", "classification_angular", "overconfidence", "total",
            "total_through_embedder", "margin_euclidean", "margin_angular", "margin_manhattan",
            "margin_chebyshev",
        ]
        # one through-embedder case per (arm, margin metric); full x euclidean keeps its old name
        fused = ["total_through_embedder" if (arm, m) == ("full", Metric.EUCLIDEAN)
                 else f"fused_{arm}_{m.value}" for arm in VARIANTS for m in Metric]
        through = [n for n in names if n.startswith("fused_") or n == "total_through_embedder"]
        assert sorted(through) == sorted(fused)
