"""Dense float64 kernels: distance scores, stable softmax, gradient checking.

Matrices are plain numpy float64 arrays, row-major, one sample per row.
Every exposed operation validates that its inputs are finite and leaves
finite outputs; gradients are hand-derived and must pass ``grad_check``.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, NumericError

ZERO_NORM_EPS = 1e-12


class Metric(Enum):
    """Distance variants used for classification scores and margin hinges.

    EUCLIDEAN is the composite score ``|f - p|^2 / D - f . p`` when used
    for classification (see ``pairwise_scores``) and the pure squared
    distance ``|f - p|^2 / D`` inside the margin hinge (see
    ``paired_distances``). ANGULAR is the cosine of the angle between the
    vectors. MANHATTAN and CHEBYSHEV are the plain L1 / Linf distances and
    exist only for the margin hinge: ``pairwise_scores`` rejects them.
    """

    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"
    MANHATTAN = "manhattan"
    CHEBYSHEV = "chebyshev"


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ConfigError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"{name} contains non-finite entries")
    return a


def _row_norms(a: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1)
    if (norms <= ZERO_NORM_EPS).any():
        bad = int(np.argmax(norms <= ZERO_NORM_EPS))
        raise DegenerateInputError(
            f"{name} row {bad} has norm <= {ZERO_NORM_EPS}, angular distance undefined"
        )
    return norms


def _not_a_score_metric(metric) -> ConfigError:
    return ConfigError(f"pairwise scores support euclidean or angular, got {metric!r}")


def pairwise_scores(features, points, metric: Metric) -> np.ndarray:
    """Score every feature row against every point row.

    Returns a B x K matrix whose (b, k) entry is, per metric:

    - EUCLIDEAN:  |f_b - p_k|^2 / D - f_b . p_k   (composite classification score)
    - ANGULAR:    cos(f_b, p_k), clipped to [-1, 1]

    These are the two classification metrics; any other raises ConfigError.
    """
    f = as_matrix(features, "features")
    p = as_matrix(points, "points")
    if f.shape[1] != p.shape[1]:
        raise ConfigError(
            f"feature dim {f.shape[1]} != point dim {p.shape[1]}"
        )
    if f.shape[1] < 1:
        raise ConfigError("feature dimension must be >= 1")
    d = f.shape[1]
    if metric is Metric.EUCLIDEAN:
        diff = f[:, None, :] - p[None, :, :]
        return np.einsum("bkd,bkd->bk", diff, diff) / d - f @ p.T
    if metric is Metric.ANGULAR:
        fn = _row_norms(f, "features")
        pn = _row_norms(p, "points")
        cos = (f / fn[:, None]) @ (p / pn[:, None]).T
        return np.clip(cos, -1.0, 1.0)
    raise _not_a_score_metric(metric)


def pairwise_scores_backward(
    features, points, metric: Metric, grad_scores
) -> tuple[np.ndarray, np.ndarray]:
    """Chain a B x K upstream gradient through ``pairwise_scores``.

    Returns (grad_features, grad_points). The cosine at the clip boundary
    takes the unclipped gradient.
    """
    f = as_matrix(features, "features")
    p = as_matrix(points, "points")
    g = as_matrix(grad_scores, "grad_scores")
    if g.shape != (f.shape[0], p.shape[0]):
        raise ConfigError(
            f"grad_scores shape {g.shape} != ({f.shape[0]}, {p.shape[0]})"
        )
    d = f.shape[1]
    if metric is Metric.EUCLIDEAN:
        # d score/df = 2(f-p)/D - p ; d score/dp = -2(f-p)/D - f
        row = g.sum(axis=1)[:, None]
        col = g.sum(axis=0)[:, None]
        grad_f = (2.0 / d) * (row * f - g @ p) - g @ p
        grad_p = (2.0 / d) * (col * p - g.T @ f) - g.T @ f
        return grad_f, grad_p
    if metric is Metric.ANGULAR:
        fn = _row_norms(f, "features")
        pn = _row_norms(p, "points")
        u = f / fn[:, None]
        v = p / pn[:, None]
        cos = u @ v.T
        grad_f = (g @ v - (g * cos).sum(axis=1)[:, None] * u) / fn[:, None]
        grad_p = (g.T @ u - (g * cos).sum(axis=0)[:, None] * v) / pn[:, None]
        return grad_f, grad_p
    raise _not_a_score_metric(metric)


def paired_distances(features, points, metric: Metric) -> np.ndarray:
    """Row-matched distances d(f_b, p_b) as used by the margin hinge.

    Unlike ``pairwise_scores``, EUCLIDEAN here is the pure squared
    distance ``|f - p|^2 / D`` with no dot-product term.
    """
    f = as_matrix(features, "features")
    p = as_matrix(points, "points")
    if f.shape != p.shape:
        raise ConfigError(f"paired shapes differ: {f.shape} vs {p.shape}")
    d = f.shape[1]
    diff = f - p
    if metric is Metric.EUCLIDEAN:
        return (diff * diff).sum(axis=1) / d
    if metric is Metric.ANGULAR:
        fn = _row_norms(f, "features")
        pn = _row_norms(p, "points")
        cos = (f * p).sum(axis=1) / (fn * pn)
        return np.clip(cos, -1.0, 1.0)
    if metric is Metric.MANHATTAN:
        return np.abs(diff).sum(axis=1)
    if metric is Metric.CHEBYSHEV:
        return np.abs(diff).max(axis=1)
    raise ConfigError(f"unknown metric {metric!r}")


def paired_distances_backward(
    features, points, metric: Metric, grad_dist
) -> tuple[np.ndarray, np.ndarray]:
    """Chain a length-B upstream gradient through ``paired_distances``."""
    f = as_matrix(features, "features")
    p = as_matrix(points, "points")
    g = as_vector(grad_dist, "grad_dist")
    if g.shape[0] != f.shape[0]:
        raise ConfigError(f"grad_dist length {g.shape[0]} != batch {f.shape[0]}")
    d = f.shape[1]
    diff = f - p
    gcol = g[:, None]
    if metric is Metric.EUCLIDEAN:
        grad_f = gcol * (2.0 / d) * diff
        return grad_f, -grad_f
    if metric is Metric.ANGULAR:
        fn = _row_norms(f, "features")
        pn = _row_norms(p, "points")
        u = f / fn[:, None]
        v = p / pn[:, None]
        cos = (u * v).sum(axis=1)[:, None]
        grad_f = gcol * (v - cos * u) / fn[:, None]
        grad_p = gcol * (u - cos * v) / pn[:, None]
        return grad_f, grad_p
    if metric is Metric.MANHATTAN:
        s = np.sign(diff)
        return gcol * s, -gcol * s
    if metric is Metric.CHEBYSHEV:
        idx = np.abs(diff).argmax(axis=1)
        hot = np.zeros_like(diff)
        rows = np.arange(f.shape[0])
        hot[rows, idx] = np.sign(diff[rows, idx])
        return gcol * hot, -gcol * hot
    raise ConfigError(f"unknown metric {metric!r}")


def softmax_rows(scores, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of tau-scaled scores, max-subtracted for stability.

    Each output row sums to 1 and preserves the argmax of its input row.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau must be positive, got {tau}")
    s = as_matrix(scores, "scores")
    z = tau * s
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(scores, tau: float = 1.0) -> np.ndarray:
    """Row-wise log-softmax of tau-scaled scores (log-sum-exp form)."""
    if not (np.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau must be positive, got {tau}")
    s = as_matrix(scores, "scores")
    z = tau * s
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def grad_check(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    analytic_grad: Sequence[float] | np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between central differences and an analytic gradient.

    Error per coordinate is |g_fd - g_an| / max(1, |g_fd| + |g_an|), so
    near-zero gradients are compared absolutely.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError(f"eps must be in [1e-7, 1e-3], got {eps}")
    x0 = np.asarray(x, dtype=np.float64).copy()
    g_an = np.asarray(analytic_grad, dtype=np.float64)
    if x0.shape != g_an.shape:
        raise ConfigError(
            f"analytic gradient shape {g_an.shape} != parameter shape {x0.shape}"
        )
    g_fd = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation while probing coordinate {i}")
        g_fd.flat[i] = (fp - fm) / (2.0 * eps)
    denom = np.maximum(1.0, np.abs(g_fd) + np.abs(g_an))
    return float((np.abs(g_fd - g_an) / denom).max())
