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
beta * overconfidence. It scores the batch once; the classification and
overconfidence logit gradients are summed and chained by one backward.
Each public loss validates its inputs, then calls a private core that trusts
them (``_total``, ``_margin_hinge``, ...); ``train`` validates once, then calls ``_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .model import ReciprocalBank
from .numerics import (Metric, _log_softmax, _paired, _paired_backward,
                       _score_operands, _scores, _scores_backward, as_matrix, pairwise_scores)


@dataclass
class LossConfig:
    tau: float = 1.0
    alpha: float = 0.1
    beta: float = 0.1
    gap_threshold: float = 0.5
    classification_metric: Metric = Metric.ANGULAR
    margin_metric: Metric = Metric.EUCLIDEAN

    def validate(self) -> None:
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be > 0, got {self.tau}")
        for name in ("alpha", "beta", "gap_threshold"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"{name} must be >= 0, got {v}")
        if self.classification_metric not in (Metric.EUCLIDEAN, Metric.ANGULAR):
            raise ConfigError(
                "classification_metric must be euclidean or angular, got "
                f"{self.classification_metric}"
            )
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
    y = y.astype(np.int64)
    if (y < 0).any() or (y >= num_classes).any():
        raise DataError(
            f"labels out of range [0, {num_classes}): min {y.min()}, max {y.max()}"
        )
    return y


def classification_logits(features, bank: ReciprocalBank, metric: Metric, tau: float) -> np.ndarray:
    """Pre-softmax logits: tau * score(feature, point) for every class."""
    return tau * pairwise_scores(features, bank.points, metric)


def _cross_entropy(scores: np.ndarray, y: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """(mean cross-entropy of y under softmax(tau * scores), grad w.r.t. tau * scores)."""
    rows = np.arange(scores.shape[0])
    logp = _log_softmax(scores, tau)
    value = float(-logp[rows, y].mean())
    grad_logits = np.exp(logp)
    grad_logits[rows, y] -= 1.0
    grad_logits /= rows.size
    return value, grad_logits


def classification_loss(
    features, bank: ReciprocalBank, labels, metric: Metric, tau: float = 1.0
) -> LossOutput:
    """Mean cross-entropy of the true class under softmax(tau * scores)."""
    f, _ = _score_operands(features, bank.points)
    y = _check_labels(labels, bank.num_classes, f.shape[0])
    if not (np.isfinite(tau) and tau > 0):
        raise ConfigError(f"tau must be positive, got {tau}")
    scores, saved = _scores(f, bank.points, metric)
    value, grad_logits = _cross_entropy(scores, y, tau)
    grad_f, grad_p = _scores_backward(f, bank.points, metric, tau * grad_logits, saved)
    return LossOutput(value, grad_f, grad_p, np.zeros(bank.num_classes))


def margin_loss(
    features, bank: ReciprocalBank, labels, metric: Metric = Metric.EUCLIDEAN
) -> LossOutput:
    """Mean hinge max(d(f, p_own) - margin_own, 0) over the batch.

    For EUCLIDEAN the distance is the pure squared form |f - p|^2 / D.
    Inactive samples (d <= margin) contribute nothing, including to the
    margin gradient; the kink at exactly zero takes subgradient 0.
    """
    f, _ = _score_operands(features, bank.points)
    y = _check_labels(labels, bank.num_classes, f.shape[0])
    return _margin_hinge(f, bank, y, metric)


def _margin_hinge(f: np.ndarray, bank: ReciprocalBank, y: np.ndarray, metric: Metric) -> LossOutput:
    """``margin_loss`` on features and labels that are already validated."""
    b = f.shape[0]
    own_points = bank.points[y]
    d = _paired(f, own_points, metric)
    slack = d - bank.margins[y]
    active = slack > 0.0
    value = float(np.where(active, slack, 0.0).sum() / b)
    grad_d = active.astype(np.float64) / b
    grad_f, grad_own = _paired_backward(f, own_points, metric, grad_d)
    grad_points = np.zeros_like(bank.points)
    np.add.at(grad_points, y, grad_own)
    grad_margins = np.zeros(bank.num_classes)
    np.add.at(grad_margins, y, -grad_d)
    return LossOutput(value, grad_f, grad_points, grad_margins)


def overconfidence_loss(logits, gap_threshold: float) -> tuple[float, np.ndarray]:
    """Hinge on per-class logit gaps above ``gap_threshold``.

    For each sample the gap of class C is max_j logit_j - logit_C; the
    loss is the batch mean of sum_C max(gap_C - threshold, 0). The argmax
    class has gap 0 and never contributes when the threshold is >= 0.
    Returns (value, grad_logits).
    """
    z = as_matrix(logits, "logits")
    if not (np.isfinite(gap_threshold) and gap_threshold >= 0):
        raise ConfigError(f"gap_threshold must be >= 0, got {gap_threshold}")
    if z.shape[0] == 0:
        raise DataError("empty batch")
    return _overconfidence(z, gap_threshold)


def _overconfidence(z: np.ndarray, gap_threshold: float) -> tuple[float, np.ndarray]:
    """``overconfidence_loss`` on checked logits and threshold."""
    b = z.shape[0]
    top = z.argmax(axis=1)  # lowest index on ties
    rows = np.arange(b)
    gaps = z[rows, top][:, None] - z
    active = gaps > gap_threshold
    value = float((gaps - gap_threshold)[active].sum() / b) if active.any() else 0.0
    grad = -active.astype(np.float64) / b
    grad[rows, top] += active.sum(axis=1) / b
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
    config.validate()
    f, _ = _score_operands(features, bank.points)
    y = _check_labels(labels, bank.num_classes, f.shape[0])
    return _total(f, bank, y, config)


def _total(f: np.ndarray, bank: ReciprocalBank, y: np.ndarray, config: LossConfig) -> LossOutput:
    """``total_loss`` on checked features, labels and config."""
    metric, tau = config.classification_metric, config.tau
    scores, saved = _scores(f, bank.points, metric)
    cls_value, grad_cls = _cross_entropy(scores, y, tau)
    oc_value, grad_oc = _overconfidence(tau * scores, config.gap_threshold)
    grad_f, grad_p = _scores_backward(
        f, bank.points, metric, tau * (grad_cls + config.beta * grad_oc), saved
    )
    mar = _margin_hinge(f, bank, y, config.margin_metric)
    return LossOutput(
        value=cls_value + config.alpha * mar.value + config.beta * oc_value,
        grad_features=grad_f + config.alpha * mar.grad_features,
        grad_points=grad_p + config.alpha * mar.grad_points,
        grad_margins=config.alpha * mar.grad_margins,
        parts={
            "classification": cls_value,
            "margin": mar.value,
            "overconfidence": oc_value,
        },
    )
