"""Dense float64 kernels: distance scores, stable log-softmax, gradient checking.

Matrices are plain numpy float64 arrays, row-major, one sample per row.
The private cores (``_scores``, ``_paired``, ``_log_softmax``, ...) trust their
inputs and settings: the public losses and ``evaluate`` check them first, the bank with
``ReciprocalBank.checked`` and the metrics with ``LossConfig.validate``, then score the bank
that check returns. Gradients are hand-derived and must pass ``grad_check``.
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
    for classification (see ``_scores``) and the pure squared
    distance ``|f - p|^2 / D`` inside the margin hinge (see
    ``_paired``). ANGULAR is the cosine of the angle between the
    vectors. MANHATTAN and CHEBYSHEV are the plain L1 / Linf distances and
    exist only for the margin hinge: ``LossConfig.validate`` refuses them
    as a classification metric.
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


def _row_norms(a: np.ndarray, name: str, first: int = 0) -> np.ndarray:
    """The rows' norms; a row of infinite or (near-)zero norm raises as ``name`` row ``first`` +
    its index."""
    norms = np.sqrt(np.add.reduce(a * a, axis=1))  # np.linalg.norm's own body, same bits
    # one ufunc reduce per test (``initial`` keeps a 0-row input legal); norms are never NaN
    if np.maximum.reduce(norms, initial=0.0) == np.inf:  # squares that overflow: every cosine 0
        bad = first + int(np.argmax(np.isinf(norms)))
        raise NumericError(f"{name} row {bad} has an infinite norm, angular distance undefined")
    if np.minimum.reduce(norms, initial=np.inf) <= ZERO_NORM_EPS:
        bad = first + int(np.argmax(norms <= ZERO_NORM_EPS))
        raise DegenerateInputError(
            f"{name} row {bad} has norm <= {ZERO_NORM_EPS}, angular distance undefined"
        )
    return norms


def _scores(f: np.ndarray, p: np.ndarray, metric: Metric, name: str = "features",
            first: int = 0):
    """Score every checked feature row against every point row, under a classification
    metric: (the B x K scores, what ``_scores_backward`` reuses). The (b, k) score is

    - EUCLIDEAN:  |f_b - p_k|^2 / D - f_b . p_k   (composite classification score)
    - ANGULAR:    cos(f_b, p_k), clipped to [-1, 1]

    Under ANGULAR a bad feature row, checked before the points, is named ``name`` row
    ``first`` + its index."""
    if metric is Metric.EUCLIDEAN:
        diff = f[:, None, :] - p[None, :, :]
        return np.einsum("bkd,bkd->bk", diff, diff) / f.shape[1] - f @ p.T, None
    fn, pn = _row_norms(f, name, first), _row_norms(p, "points")
    u, v = f / fn[:, None], p / pn[:, None]
    cos = u @ v.T
    return np.minimum(np.maximum(cos, -1.0), 1.0), (u, v, fn, pn, cos)


def _scores_backward(f: np.ndarray, p: np.ndarray, metric: Metric, g: np.ndarray, saved):
    """(grad_f, grad_p) of a B x K upstream gradient ``g`` through ``_scores``, which
    returned ``saved``; a cosine at the clip boundary takes the unclipped gradient."""
    if metric is Metric.EUCLIDEAN:
        # d score/df = 2(f-p)/D - p ; d score/dp = -2(f-p)/D - f
        d = f.shape[1]
        gp, gtf = g @ p, g.T @ f
        grad_f = (2.0 / d) * (np.add.reduce(g, axis=1)[:, None] * f - gp) - gp
        grad_p = (2.0 / d) * (np.add.reduce(g, axis=0)[:, None] * p - gtf) - gtf
        return grad_f, grad_p
    u, v, fn, pn, cos = saved
    gc = g * cos
    grad_f = (g @ v - np.add.reduce(gc, axis=1)[:, None] * u) / fn[:, None]
    grad_p = (g.T @ u - np.add.reduce(gc, axis=0)[:, None] * v) / pn[:, None]
    return grad_f, grad_p


def _paired(f: np.ndarray, p: np.ndarray, metric: Metric):
    """Row-matched distances d(f_b, p_b) for the margin hinge, and what ``_paired_backward``
    reuses. EUCLIDEAN is the pure squared ``|f - p|^2 / D`` here, with no dot product."""
    if metric is Metric.ANGULAR:
        fn = _row_norms(f, "features")
        pn = _row_norms(p, "points")
        cos = np.add.reduce(f * p, axis=1) / (fn * pn)
        return np.minimum(np.maximum(cos, -1.0), 1.0), (fn, pn)
    diff = f - p
    if metric is Metric.EUCLIDEAN:
        return np.add.reduce(diff * diff, axis=1) / f.shape[1], diff
    if metric is Metric.MANHATTAN:
        return np.add.reduce(np.abs(diff), axis=1), diff
    return np.maximum.reduce(np.abs(diff), axis=1), diff  # CHEBYSHEV


def _paired_backward(f: np.ndarray, p: np.ndarray, metric: Metric, g: np.ndarray, saved):
    """(grad_f, grad_p) of a length-B upstream ``g`` through ``_paired``, which gave ``saved``."""
    gcol = g[:, None]
    if metric is Metric.ANGULAR:
        fn, pn = saved
        u = f / fn[:, None]
        v = p / pn[:, None]
        cos = np.add.reduce(u * v, axis=1)[:, None]
        grad_f = gcol * (v - cos * u) / fn[:, None]
        grad_p = gcol * (u - cos * v) / pn[:, None]
        return grad_f, grad_p
    diff = saved
    if metric is Metric.EUCLIDEAN:
        grad_f = gcol * (2.0 / f.shape[1]) * diff
        return grad_f, -grad_f
    if metric is Metric.MANHATTAN:
        s = np.sign(diff)
        return gcol * s, -gcol * s
    # CHEBYSHEV
    idx = np.abs(diff).argmax(axis=1)
    hot = np.zeros_like(diff)
    rows = np.arange(f.shape[0])
    hot[rows, idx] = np.sign(diff[rows, idx])
    return gcol * hot, -gcol * hot


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the logits ``z``, which the caller checks finite."""
    z = z - np.maximum.reduce(z, axis=1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))


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
