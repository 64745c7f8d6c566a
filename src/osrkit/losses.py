"""Training losses with exact analytic gradients.

Three ingredients, each differentiable by hand:

- ``classification_loss``: softmax cross-entropy over tau-scaled distance
  scores between features and the reciprocal-point bank. With the
  EUCLIDEAN composite score this is the classic reciprocal-point
  objective; with ANGULAR it is its hyperspherical variant.
- ``margin_loss``: hinge penalizing samples whose distance to their own
  class's reciprocal point exceeds that class's learnable margin.
- ``overconfidence_loss``: hinge on per-class logit gaps; gaps above a
  threshold are pushed down, discouraging overconfident closed-set
  predictions.

``total_loss`` combines them as classification + alpha * margin +
beta * overconfidence. It computes each piece of a batch once: the scores
and norms, the tau-scaled logits both logit terms share (their gradients
are summed and chained by one backward), and the margin hinge's differences.
The bank losses share one boundary, ``_checked``: it checks the features, the bank with
``ReciprocalBank.checked``, the settings with ``LossConfig.validate`` and the labels, in this
order. Each loss runs a trusting core (``_total``, ``_margin_hinge``, ...) on what it returns;
``train`` checks once, then calls ``_total``. Logits are checked by ``_check_logits``.
A model's tau-scaled logits, without a loss, are ``evaluate.model_logits``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UsageError
from .model import ReciprocalBank
from .numerics import (Metric, _log_softmax, _paired, _paired_backward, _scores,
                       _scores_backward, as_matrix)


@dataclass
class LossConfig:
    tau: float = 1.0
    alpha: float = 0.1
    beta: float = 0.1
    gap_threshold: float = 0.5
    classification_metric: Metric = Metric.ANGULAR
    margin_metric: Metric = Metric.EUCLIDEAN

    def validate(self, width: int | None = None) -> None:
        """The loss rules; given ``width``, the features' width, also the angular width rule."""
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        for name in ("alpha", "beta", "gap_threshold"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be >= 0, got {v}")
        metric = self.classification_metric
        if metric not in (Metric.EUCLIDEAN, Metric.ANGULAR):
            raise ConfigError("classification_metric must be euclidean or angular, got "
                              f"{getattr(metric, 'value', metric)}")
        if metric is Metric.ANGULAR and width == 1:
            raise ConfigError("layer_dims ends in 1: every angular score would be +-1")
        if not isinstance(self.margin_metric, Metric):
            raise ConfigError(f"bad margin_metric {self.margin_metric!r}")


@dataclass
class LossOutput:
    value: float
    grad_features: np.ndarray
    grad_points: np.ndarray
    grad_margins: np.ndarray
    parts: dict[str, float] = field(default_factory=dict)


def _check_labels(labels, num_classes: int, batch: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != batch:
        raise DataError(f"labels must be 1-D of length {batch}, got shape {y.shape}")
    if y.size == 0:
        raise DataError("empty batch")
    kind = y.dtype.kind  # bool, int, uint, float: a float label must be a whole number
    if kind not in "biuf" or (kind == "f" and not (np.isfinite(y) & (np.trunc(y) == y)).all()):
        raise DataError(f"labels must be integer-valued, got dtype {y.dtype}")
    if (y < 0).any() or (y >= num_classes).any():
        raise DataError(f"labels out of range [0, {num_classes}): "
                        f"min {int(y.min())}, max {int(y.max())}")
    return y.astype(np.int64)


def _checked(features, bank: ReciprocalBank, labels, config: LossConfig):
    """The bank losses' boundary: features, bank, ``config``, labels, checked in this order."""
    f = as_matrix(features, "features")
    bank = bank.checked(f.shape[1])
    config.validate(f.shape[1])
    return f, bank, _check_labels(labels, bank.num_classes, f.shape[0])


def _check_logits(logits) -> np.ndarray:
    """``logits`` as a finite 2-D float64 array with at least one column."""
    z = as_matrix(logits, "logits")
    if z.shape[1] == 0:
        raise UsageError(f"logits need at least one column, got shape {z.shape}")
    return z


def _cross_entropy(z: np.ndarray, y: np.ndarray, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean cross-entropy of y under softmax(z), its grad w.r.t. z); ``rows`` is ``arange(B)``."""
    logp = _log_softmax(z)
    value = float(-logp[rows, y].sum() / rows.size)
    grad_logits = np.exp(logp)
    grad_logits[rows, y] -= 1.0
    grad_logits /= rows.size
    return value, grad_logits


def classification_loss(features, bank: ReciprocalBank, labels, metric: Metric,
                        tau: float = 1.0) -> LossOutput:
    """Mean cross-entropy of the true class under softmax(tau * scores)."""
    f, bank, y = _checked(features, bank, labels, LossConfig(tau, classification_metric=metric))
    scores, saved = _scores(f, bank.points, metric)
    value, grad_logits = _cross_entropy(tau * scores, y, np.arange(f.shape[0]))
    grad_f, grad_p = _scores_backward(f, bank.points, metric, tau * grad_logits, saved)
    return LossOutput(value, grad_f, grad_p, np.zeros(bank.num_classes))


def margin_loss(features, bank: ReciprocalBank, labels,
                metric: Metric = Metric.EUCLIDEAN) -> LossOutput:
    """Mean hinge max(d(f, p_own) - margin_own, 0) over the batch.

    For EUCLIDEAN the distance is the pure squared form |f - p|^2 / D.
    Inactive samples (d <= margin) contribute nothing, including to the
    margin gradient; the kink at exactly zero takes subgradient 0.
    """
    # no classification head, so no angular width rule: a 1-wide hinge is valid
    config = LossConfig(classification_metric=Metric.EUCLIDEAN, margin_metric=metric)
    return LossOutput(*_margin_hinge(*_checked(features, bank, labels, config), metric))


def _margin_hinge(f: np.ndarray, bank: ReciprocalBank, y: np.ndarray, metric: Metric):
    """``margin_loss`` on checked inputs: (value, grad_features, grad_points, grad_margins)."""
    b = f.shape[0]
    own_points = bank.points[y]
    d, saved = _paired(f, own_points, metric)
    slack = d - bank.margins[y]
    active = slack > 0.0
    value = float(np.add.reduce(np.where(active, slack, 0.0)) / b)
    grad_d = active * (1.0 / b)  # 0.0 or 1/b, as active.astype(float) / b
    grad_f, grad_own = _paired_backward(f, own_points, metric, grad_d, saved)
    grad_points = np.zeros(bank.points.shape)
    np.add.at(grad_points, y, grad_own)
    # bincount adds in row order from zero, as np.add.at does: the same bits
    return value, grad_f, grad_points, np.bincount(y, -grad_d, bank.num_classes)


def overconfidence_loss(logits, gap_threshold: float) -> tuple[float, np.ndarray]:
    """Hinge on per-class logit gaps above ``gap_threshold``.

    For each sample the gap of class C is max_j logit_j - logit_C; the
    loss is the batch mean of sum_C max(gap_C - threshold, 0). The argmax
    class has gap 0 and never contributes when the threshold is >= 0.
    Returns (value, grad_logits).
    """
    z = _check_logits(logits)
    LossConfig(gap_threshold=gap_threshold).validate()
    if z.shape[0] == 0:
        raise DataError("empty batch")
    return _overconfidence(z, gap_threshold, np.arange(z.shape[0]))


def _overconfidence(z: np.ndarray, gap_threshold: float, rows: np.ndarray):
    """``overconfidence_loss`` on checked logits and threshold; ``rows`` is ``arange(B)``."""
    b = rows.size
    top = z.argmax(axis=1)  # lowest index on ties
    gaps = z[rows, top][:, None] - z
    active = gaps > gap_threshold
    value = float(np.add.reduce((gaps - gap_threshold)[active]) / b)  # 0.0 when none is
    grad = active * (-1.0 / b)  # -0.0 or -1/b, as -active.astype(float) / b
    grad[rows, top] += np.add.reduce(active, axis=1) / b
    return value, grad


def vacuous_overconfidence(config: LossConfig) -> bool:
    """Whether the weighted overconfidence hinge is never active (angular gaps are <= 2 tau)."""
    return (config.beta > 0 and config.classification_metric is Metric.ANGULAR
            and 0 < 2 * config.tau <= config.gap_threshold)


def total_loss(features, bank: ReciprocalBank, labels, config: LossConfig) -> LossOutput:
    """classification + alpha * margin + beta * overconfidence; components in ``parts``.

    The overconfidence hinge consumes the same tau-scaled logits the classifier
    uses, so the batch is scored once and both terms' logit gradients are chained
    by one backward. The value is not checked: ``train`` raises on a non-finite one.
    """
    f, bank, y = _checked(features, bank, labels, config)
    grads = ReciprocalBank(np.empty_like(bank.points), np.empty(bank.num_classes))
    (cls, mar, oc), grad_f = _total(f, bank, y, config, grads)
    return LossOutput(cls + config.alpha * mar + config.beta * oc, grad_f, grads.points,
                      grads.margins, {"classification": cls, "margin": mar, "overconfidence": oc})


def _total(f: np.ndarray, bank: ReciprocalBank, y: np.ndarray, config: LossConfig,
           grads: ReciprocalBank) -> tuple[tuple[float, float, float], np.ndarray]:
    """``total_loss`` on checked inputs. Writes the points' and margins' gradients
    into ``grads`` and returns ((classification, margin, overconfidence), grad_features)."""
    metric, tau, alpha = config.classification_metric, config.tau, config.alpha
    rows = np.arange(f.shape[0])
    scores, saved = _scores(f, bank.points, metric)
    z = tau * scores  # the logits of both the classifier and the overconfidence hinge
    cls, grad_cls = _cross_entropy(z, y, rows)
    oc, grad_oc = _overconfidence(z, config.gap_threshold, rows)
    grad_z = tau * (grad_cls + config.beta * grad_oc)
    grad_f, grad_p = _scores_backward(f, bank.points, metric, grad_z, saved)
    mar, mar_f, mar_p, mar_m = _margin_hinge(f, bank, y, config.margin_metric)
    np.add(grad_p, alpha * mar_p, out=grads.points)
    np.multiply(alpha, mar_m, out=grads.margins)
    return (cls, mar, oc), grad_f + alpha * mar_f
