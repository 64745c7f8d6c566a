import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osrkit.errors import ConfigError, DegenerateInputError, NumericError
from osrkit.losses import classification_loss
from osrkit.model import ReciprocalBank
from osrkit.numerics import (
    Metric,
    _log_softmax,
    _paired,
    _paired_backward,
    _scores,
    _scores_backward,
    grad_check,
)


def rand_matrix(rng, rows, cols, scale=1.0):
    return scale * rng.standard_normal((rows, cols))


def scores(features, points, metric):
    """The B x K classification scores of ``features`` against ``points``, by ``_scores``."""
    return _scores(np.asarray(features, dtype=float), np.asarray(points, dtype=float), metric)[0]


def classification_loss_of(features, points, metric=Metric.EUCLIDEAN):
    """``classification_loss`` of ``features`` against a bank of ``points``, every label 0: it
    checks its bank with the same ``ReciprocalBank.checked`` as every scoring entry, and scores
    the bank that check returns."""
    bank = ReciprocalBank(np.asarray(points, dtype=float), np.zeros(len(points)))
    return classification_loss(features, bank, np.zeros(len(features), dtype=int), metric)


class TestPairwiseScores:
    def test_angular_orthogonal(self):
        s = scores([[1.0, 0.0]], [[0.0, 1.0]], Metric.ANGULAR)
        assert s[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_angular_parallel_scale_invariant(self):
        s = scores([[2.0, 0.0]], [[1.0, 0.0]], Metric.ANGULAR)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_euclidean_composite_hand_value(self):
        # ((2^2 + 2^2)/2) - (1*3 + 2*4) = 4 - 11 = -7
        s = scores([[1.0, 2.0]], [[3.0, 4.0]], Metric.EUCLIDEAN)
        assert s[0, 0] == pytest.approx(-7.0, abs=1e-12)

    # ``LossConfig.validate`` refuses them for every classification score
    @pytest.mark.parametrize("metric", [Metric.MANHATTAN, Metric.CHEBYSHEV])
    def test_hinge_only_metrics_rejected(self, metric):
        with pytest.raises(ConfigError) as info:
            classification_loss_of([[1.0, -2.0]], [[4.0, 2.0]], metric)
        assert str(info.value) == ("classification_metric must be euclidean or angular, got "
                                   f"{metric.value}")

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match=r"^feature dim 2 != point dim 3$"):
            classification_loss_of([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("features,points,message", [
        ([1.0, 2.0], [[1.0, 2.0]], r"^features must be 2-D, got shape \(2,\)$"),
        (np.zeros((2, 0)), np.zeros((3, 0)), "^feature dimension must be >= 1$"),
    ], ids=["1-d-features", "width-0"])
    def test_malformed_operands_rejected(self, features, points, message):
        with pytest.raises(ConfigError, match=message):
            classification_loss_of(features, points)

    def test_zero_norm_rejected_for_angular(self):
        with pytest.raises(DegenerateInputError):
            scores([[0.0, 0.0]], [[1.0, 0.0]], Metric.ANGULAR)
        with pytest.raises(DegenerateInputError):
            scores([[1.0, 0.0]], [[0.0, 0.0]], Metric.ANGULAR)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="^features contains non-finite entries$"):
            classification_loss_of([[np.nan, 0.0]], [[1.0, 0.0]])

    def test_zero_feature_rows_score_as_empty_for_angular(self):
        assert scores(np.zeros((0, 4)), np.ones((3, 4)), Metric.ANGULAR).shape == (0, 3)

    @pytest.mark.parametrize("paired", [False, True])
    def test_overflowing_norm_rejected_for_angular(self, paired):
        # finite rows whose squared norm overflows would divide to a cosine of 0
        f, p = np.array([[1.0, 0.0], [1e200, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="features row 1 has an infinite norm"):
                (_paired if paired else _scores)(f, p, Metric.ANGULAR)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_angular_positive_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        f = rand_matrix(rng, 4, 5) + 0.1
        p = rand_matrix(rng, 3, 5) + 0.1
        base = scores(f, p, Metric.ANGULAR)
        scaled = scores(c * f, p, Metric.ANGULAR)
        np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_angular_entries_bounded(self):
        rng = np.random.default_rng(7)
        f = rand_matrix(rng, 20, 3)
        p = rand_matrix(rng, 6, 3)
        s = scores(f, p, Metric.ANGULAR)
        assert (s >= -1.0).all() and (s <= 1.0).all()

    def test_euclidean_translation_covariance(self):
        # the squared-distance part is translation invariant; the composite
        # shifts by the dot-product change, which we can predict exactly
        rng = np.random.default_rng(3)
        f = rand_matrix(rng, 4, 3)
        p = rand_matrix(rng, 2, 3)
        shift = rng.standard_normal(3)
        base_sq = ((f[:, None, :] - p[None, :, :]) ** 2).sum(-1) / 3
        got = scores(f + shift, p + shift, Metric.EUCLIDEAN)
        expected = base_sq - (f + shift) @ (p + shift).T
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestPairedDistances:
    def test_manhattan_chebyshev_hand_values(self):
        f = np.array([[1.0, -2.0]])
        p = np.array([[4.0, 2.0]])
        assert _paired(f, p, Metric.MANHATTAN)[0][0] == pytest.approx(7.0)
        assert _paired(f, p, Metric.CHEBYSHEV)[0][0] == pytest.approx(4.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lp_distance_properties(self, seed):
        rng = np.random.default_rng(seed)
        f = rand_matrix(rng, 5, 4)
        p = rand_matrix(rng, 5, 4)
        shift = rng.standard_normal(4)
        man = _paired(f, p, Metric.MANHATTAN)[0]
        che = _paired(f, p, Metric.CHEBYSHEV)[0]
        # pure Lp distances: nonnegative, L1 >= Linf, translation invariant
        assert (man >= che).all() and (che >= 0).all()
        np.testing.assert_allclose(
            _paired(f + shift, p + shift, Metric.MANHATTAN)[0], man, atol=1e-10
        )
        np.testing.assert_allclose(
            _paired(f + shift, p + shift, Metric.CHEBYSHEV)[0], che, atol=1e-10
        )


def softmax_rows(scores, tau):
    """The softmax as the classification loss takes it from log-softmax."""
    return np.exp(_log_softmax(tau * np.asarray(scores, dtype=np.float64)))


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows([[0.0, 0.0, 0.0]], 1.0)
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_large_values_stable(self):
        out = softmax_rows([[1000.0, 0.0]], 1.0)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(out).all()

    def test_closed_form(self):
        out = softmax_rows([[1.0, 2.0]], 1.0)
        e = np.e
        np.testing.assert_allclose(out, [[1 / (1 + e), e / (1 + e)]], atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_and_keep_argmax(self, seed, tau):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((6, 5)) * 10
        out = softmax_rows(s, tau)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out.argmax(axis=1), s.argmax(axis=1))


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda x: float(x[0] * x[0]), [3.0], [6.0], 1e-5)
        assert err < 1e-8

    def test_linear(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        err = grad_check(lambda v: float(v.sum()), x, np.ones(7), 1e-5)
        assert err < 1e-10

    def test_detects_wrong_gradient(self):
        err = grad_check(lambda x: float(x[0] * x[0]), [3.0], [5.0], 1e-5)
        assert err > 1e-2

    def test_gradient_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError, match=r"^analytic gradient shape \(2,\) != parameter shape "
                                              r"\(3,\)$"):
            grad_check(lambda x: 0.0, [1.0, 2.0, 3.0], [0.0, 0.0])

    def test_eps_range_enforced(self):
        with pytest.raises(ConfigError):
            grad_check(lambda x: 0.0, [1.0], [0.0], 1e-2)

    def test_non_finite_evaluation(self):
        with pytest.raises(NumericError):
            grad_check(lambda x: float("nan"), [1.0], [0.0], 1e-5)


class TestKernelGradients:
    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.ANGULAR])
    def test_pairwise_backward(self, metric):
        rng = np.random.default_rng(11)
        f = rand_matrix(rng, 3, 4)
        p = rand_matrix(rng, 2, 4)
        g = rand_matrix(rng, 3, 2)
        gf, gp = _scores_backward(f, p, metric, g, _scores(f, p, metric)[1])

        def loss_f(vec):
            return float((scores(vec.reshape(3, 4), p, metric) * g).sum())

        def loss_p(vec):
            return float((scores(f, vec.reshape(2, 4), metric) * g).sum())

        assert grad_check(loss_f, f.ravel(), gf.ravel(), 1e-5) < 1e-6
        assert grad_check(loss_p, p.ravel(), gp.ravel(), 1e-5) < 1e-6

    @pytest.mark.parametrize("metric", list(Metric))
    def test_paired_backward(self, metric):
        rng = np.random.default_rng(13)
        f = rand_matrix(rng, 5, 3)
        p = rand_matrix(rng, 5, 3)
        g = rng.standard_normal(5)
        gf, gp = _paired_backward(f, p, metric, g, _paired(f, p, metric)[1])

        def loss_f(vec):
            return float((_paired(vec.reshape(5, 3), p, metric)[0] * g).sum())

        def loss_p(vec):
            return float((_paired(f, vec.reshape(5, 3), metric)[0] * g).sum())

        assert grad_check(loss_f, f.ravel(), gf.ravel(), 1e-5) < 1e-6
        assert grad_check(loss_p, p.ravel(), gp.ravel(), 1e-5) < 1e-6

    def test_paired_euclidean_is_pure_squared_distance(self):
        d, _ = _paired(np.array([[1.0, 0.0]]), np.zeros((1, 2)), Metric.EUCLIDEAN)
        assert d[0] == pytest.approx(0.5)  # (1^2 + 0^2) / 2
