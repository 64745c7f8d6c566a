"""Open-set evaluation: closed-set accuracy, AUROC, and the OSCR score.

The open-set score of a sample is its maximum classification logit;
higher means more known-like, and no threshold is ever baked in. AUROC is
computed from the Mann-Whitney rank statistic (ties credited 0.5) and is
cross-checked in tests against the trapezoidal area under the exact ROC
curve. The ROC and OSCR curves come from one descending sweep over the
open-set scores: a stable sort, then cumulative counts read at the last
sample of each run of tied scores, so every distinct score is a
threshold. OSCR integrates the correct classification rate on knowns
against the false positive rate on unknowns. ``evaluate`` embeds each
test set, stacks the logits, and scores and classifies them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, UsageError
from .losses import LossConfig, classification_logits
from .model import Embedder, ReciprocalBank, embed_forward
from .numerics import as_matrix

Curve = list[tuple[float, float, float]]  # (threshold, fpr, tpr-or-ccr)


@dataclass
class EvalReport:
    closed_accuracy: float
    auroc: float
    oscr: float
    roc_curve: Curve
    oscr_curve: Curve


def predict_closed(logits) -> np.ndarray:
    """Per-row argmax labels; ties break to the lowest index."""
    z = as_matrix(logits, "logits")
    if z.shape[0] == 0:
        raise UsageError("empty batch")
    return z.argmax(axis=1)


def openset_score(logits) -> np.ndarray:
    """Max logit per row. Higher means more known-like."""
    z = as_matrix(logits, "logits")
    return z.max(axis=1)


def _as_score_flags(scores, is_known) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    k = np.asarray(is_known, dtype=bool)
    if s.ndim != 1 or k.shape != s.shape:
        raise EvalError("scores and is_known must be 1-D of equal length")
    if not np.isfinite(s).all():
        raise EvalError("scores contain non-finite entries")
    if not k.any() or k.all():
        raise EvalError("need at least one known and one unknown sample")
    return s, k


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their rank span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # 1-based rank of the last member of each tie run
    return 0.5 * (end - counts + 1 + end)[inverse]


def _sweep(s: np.ndarray, hits: np.ndarray, k: np.ndarray) -> Curve:
    """Exact descending sweep over every distinct score.

    Returns (threshold, fpr, rate) triples starting at (+inf, 0, 0), where
    a sample counts as selected when its score is >= the threshold, rate
    is the share of knowns that are selected hits and fpr the share of
    unknowns that are selected.
    """
    order = np.argsort(-s, kind="stable")
    desc = s[order]
    last = np.flatnonzero(np.append(desc[1:] != desc[:-1], True))
    rate = np.cumsum(hits[order])[last] / int(k.sum())
    fpr = np.cumsum(~k[order])[last] / int((~k).sum())
    thresholds = np.unique(s)[::-1]  # names each tie run as np.unique does, -0.0 included
    return [(float("inf"), 0.0, 0.0)] + list(
        zip(thresholds.tolist(), fpr.tolist(), rate.tolist())
    )


def _curve_area(curve: Curve) -> float:
    """Trapezoidal area under the (fpr, rate) points of a curve."""
    _, x, y = np.array(curve).T
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5).sum())


def auroc(scores, is_known) -> float:
    """Rank-based AUROC of known-vs-unknown detection, ties credited 0.5."""
    s, k = _as_score_flags(scores, is_known)
    n_known = int(k.sum())
    n_unknown = s.size - n_known
    ranks = _average_ranks(s)
    u = ranks[k].sum() - n_known * (n_known + 1) / 2.0
    return float(u / (n_known * n_unknown))


def roc_points(scores, is_known) -> Curve:
    """Exact ROC sweep over every distinct score, descending.

    Returns (threshold, fpr, tpr) triples starting at (+inf, 0, 0); a
    sample counts as predicted-known when its score is >= the threshold.
    """
    s, k = _as_score_flags(scores, is_known)
    return _sweep(s, k, k)


def roc_auc_trapezoid(scores, is_known) -> float:
    """Trapezoidal area under the exact ROC curve (cross-check for auroc)."""
    return _curve_area(roc_points(scores, is_known))


def _oscr(s: np.ndarray, k: np.ndarray, correct: np.ndarray) -> tuple[float, Curve]:
    curve = _sweep(s, k & correct, k)
    return _curve_area(curve), curve


def oscr(logits, true_labels, is_known) -> tuple[float, Curve]:
    """Open-set classification rate: area of CCR vs FPR over all thresholds.

    CCR(t) is the fraction of known samples that are correctly classified
    and score >= t; FPR(t) is the fraction of unknown samples scoring
    >= t. ``true_labels`` is only consulted at known positions.
    """
    z = as_matrix(logits, "logits")
    s, k = _as_score_flags(openset_score(z), is_known)
    y = np.asarray(true_labels)
    if y.shape != (z.shape[0],):
        raise EvalError(f"true_labels must have length {z.shape[0]}")
    return _oscr(s, k, predict_closed(z) == y)


def evaluate(embedder: Embedder, bank: ReciprocalBank, split, config: LossConfig) -> EvalReport:
    """Score a frozen model on an open-set split (known + unknown test sets)."""
    config.validate()
    if bank.num_classes != split.num_known:
        raise EvalError(
            f"model has {bank.num_classes} classes but the split has {split.num_known} known"
        )
    n_known, n_unknown = len(split.test_known), len(split.test_unknown)
    if n_known == 0 or n_unknown == 0:
        raise EvalError("split must contain known and unknown test samples")
    logits = np.vstack([
        classification_logits(
            embed_forward(embedder, part.inputs)[0], bank,
            config.classification_metric, config.tau,
        )
        for part in (split.test_known, split.test_unknown)
    ])
    is_known = np.arange(n_known + n_unknown) < n_known
    correct = predict_closed(logits) == np.append(split.test_known.labels, np.full(n_unknown, -1))
    s, k = _as_score_flags(openset_score(logits), is_known)
    oscr_value, oscr_curve = _oscr(s, k, correct)
    return EvalReport(
        float(correct[:n_known].mean()), auroc(s, k), oscr_value, roc_points(s, k), oscr_curve
    )


def _write_curve_csv(path, header: str, curve: Curve) -> None:
    lines = [header] + [",".join(["%.17g" % x for x in point]) for point in curve]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_roc_csv(path, curve: Curve) -> None:
    _write_curve_csv(path, "threshold,fpr,tpr", curve)


def write_oscr_csv(path, curve: Curve) -> None:
    _write_curve_csv(path, "threshold,fpr,ccr", curve)
