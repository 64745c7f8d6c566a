import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.errors import ConfigError, DataError, DegenerateInputError
from osrkit.losses import (
    LossConfig,
    classification_logits,
    classification_loss,
    margin_loss,
    overconfidence_loss,
    total_loss,
    vacuous_overconfidence,
)
from osrkit.model import ReciprocalBank
from osrkit.numerics import (
    Metric,
    _log_softmax,
    _scores,
    _scores_backward,
    grad_check,
    pairwise_scores,
)


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
        scores = pairwise_scores(features, bank.points, Metric.EUCLIDEAN)
        logp = _log_softmax(2.0 * scores)
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

    @pytest.mark.parametrize("metric", list(Metric))
    def test_nonnegative(self, metric):
        rng = np.random.default_rng(7)
        for _ in range(10):
            features, bank, labels = random_case(rng)
            assert margin_loss(features, bank, labels, metric).value >= 0


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

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            logits = rng.standard_normal((5, 4)) * 2
            assert overconfidence_loss(logits, float(rng.uniform(0, 2)))[0] >= 0


class TestTotalLoss:
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
        logits = classification_logits(features, bank, cfg.classification_metric, cfg.tau)
        oc_value, _ = overconfidence_loss(logits, 0.1)
        cls = classification_loss(
            features, bank, labels, cfg.classification_metric, cfg.tau
        )
        assert out.value == pytest.approx(cls.value + oc_value, abs=1e-12)

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.ANGULAR])
    @pytest.mark.parametrize("alpha,beta", [(0.1, 0.3), (0.0, 0.3), (0.1, 0.0), (0.0, 0.0)])
    def test_fused_gradients_equal_sum_of_parts(self, metric, alpha, beta):
        # total_loss scores once and runs one backward; its gradients must
        # match the unfused definition built from the loss terms and a
        # separate score backward.
        rng = np.random.default_rng(21)
        oc_active = False
        for _ in range(20):
            features, bank, labels = random_case(rng)
            cfg = LossConfig(tau=1.3, alpha=alpha, beta=beta, gap_threshold=0.1,
                             classification_metric=metric)
            out = total_loss(features, bank, labels, cfg)
            cls = classification_loss(features, bank, labels, metric, cfg.tau)
            mar = margin_loss(features, bank, labels, cfg.margin_metric)
            logits = classification_logits(features, bank, metric, cfg.tau)
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
        logits_before = classification_logits(features, bank, cfg.classification_metric, cfg.tau)
        total_loss(features, bank, labels, cfg)  # must not mutate anything
        logits_after = classification_logits(features, bank, cfg.classification_metric, cfg.tau)
        np.testing.assert_array_equal(
            logits_before.argmax(axis=1), logits_after.argmax(axis=1)
        )


class TestLossGradients:
    """Finite-difference verification on >= 20 seeded random instances."""

    def _flatten_case(self, loss_fn, features, bank, labels):
        b, d = features.shape
        k = bank.num_classes

        def value_at(vec):
            f = vec[: b * d].reshape(b, d)
            p = vec[b * d : b * d + k * d].reshape(k, d)
            m = vec[b * d + k * d :]
            return loss_fn(f, ReciprocalBank(p, m), labels).value

        out = loss_fn(features, bank, labels)
        x0 = np.concatenate([features.ravel(), bank.points.ravel(), bank.margins])
        analytic = np.concatenate(
            [out.grad_features.ravel(), out.grad_points.ravel(), out.grad_margins]
        )
        return value_at, x0, analytic

    @pytest.mark.parametrize(
        "name,loss_fn",
        [
            ("cls_euclidean", lambda f, b, y: classification_loss(f, b, y, Metric.EUCLIDEAN, 1.3)),
            ("cls_angular", lambda f, b, y: classification_loss(f, b, y, Metric.ANGULAR, 1.3)),
            ("margin_euclidean", lambda f, b, y: margin_loss(f, b, y, Metric.EUCLIDEAN)),
            ("margin_angular", lambda f, b, y: margin_loss(f, b, y, Metric.ANGULAR)),
            ("margin_manhattan", lambda f, b, y: margin_loss(f, b, y, Metric.MANHATTAN)),
            ("margin_chebyshev", lambda f, b, y: margin_loss(f, b, y, Metric.CHEBYSHEV)),
            ("total", lambda f, b, y: total_loss(f, b, y, LossConfig(gap_threshold=0.25))),
        ],
    )
    def test_loss_gradients(self, name, loss_fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(20):
            features, bank, labels = random_case(rng)
            value_at, x0, analytic = self._flatten_case(loss_fn, features, bank, labels)
            assert grad_check(value_at, x0, analytic, 1e-5) < 1e-4

    def test_overconfidence_gradient(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            b, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            logits = rng.standard_normal((b, k)) * 2
            threshold = float(rng.uniform(0, 1.5))
            _, grad = overconfidence_loss(logits, threshold)
            err = grad_check(
                lambda v: overconfidence_loss(v.reshape(b, k), threshold)[0],
                logits.ravel(),
                grad.ravel(),
                1e-5,
            )
            assert err < 1e-4
