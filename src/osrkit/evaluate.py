"""Open-set evaluation: closed-set accuracy, AUROC, and the OSCR score.

The open-set score of a sample is its maximum classification logit,
reduced across the logit columns; higher means more known-like, and no
threshold is ever baked in. One descending sort and one count of
unknowns, knowns and hits per run of tied scores serve every metric:
the ROC and OSCR curves, as (T+1)x3 float64 arrays with every distinct
score a threshold (a run of zeros is named +0.0, whatever their signs),
and AUROC as the Mann-Whitney U in integer counts (ties credited 0.5),
cross-checked in tests against the trapezoid under the ROC curve.
OSCR integrates the correct classification rate on knowns against the
false positive rate on unknowns.

``_logits``, the one blocked scoring core, checks the loss config at the
embedder's width, the inputs and the bank once per call, scores block by
block with the unchecked cores and checks the logits once. ``model_logits``
and ``evaluate`` (argmax of the known rows only) score through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import EvalError, NumericError
from .losses import LossConfig, _check_logits
from .model import Embedder, ReciprocalBank, _checked_inputs, _forward
from .numerics import _scores, as_matrix

Curve = np.ndarray  # (T+1)x3 float64 rows (threshold, fpr, tpr-or-ccr), row 0 is (inf, 0, 0)


@dataclass
class EvalReport:
    closed_accuracy: float
    auroc: float
    oscr: float
    roc_curve: Curve
    oscr_curve: Curve

    def __eq__(self, other) -> bool:
        """Field by field down to the bit, so -0.0 differs from 0.0."""
        bits = lambda r: [np.asarray(getattr(r, f.name), np.float64).tobytes() for f in fields(r)]
        return isinstance(other, EvalReport) and bits(self) == bits(other)


def _max_logit(z: np.ndarray) -> np.ndarray:
    """The open-set score of checked logits: each row's max, as a new array. The max runs
    across the K columns, one ``np.maximum`` per column: ``z.max(axis=1)`` loops per row, about
    20x slower on 16k x 4 logits. Which zero a 0.0/-0.0 tie keeps differs by CPU; no output
    reads it."""
    first, *rest = z.T
    return functools.reduce(np.maximum, rest, first.copy())


def _as_score_flags(scores, is_known) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    k = np.asarray(is_known, dtype=bool)
    if s.ndim != 1 or k.shape != s.shape:
        raise EvalError("scores and is_known must be 1-D of equal length")
    as_matrix(s[None], "scores")  # a non-finite score: NumericError, as for the logits
    if not k.any() or k.all():
        raise EvalError("need at least one known and one unknown sample")
    return s, k


def _sweep(s: np.ndarray, k: np.ndarray, hits: np.ndarray) -> tuple[Curve, Curve, float]:
    """One descending sort of ``s`` and one count per tie run: the ROC curve, the curve
    of ``hits`` and AUROC. Curves have (threshold, fpr, rate) rows from (+inf, 0, 0), one per
    distinct score, descending; fpr and rate count the unknowns and the knowns (ROC) or hits
    scoring >= the threshold, over all unknowns and all knowns. A run of zeros is named +0.0,
    so no threshold depends on the sample order or on which zero a max kept. AUROC is the
    Mann-Whitney U: per run, its unknowns times (the knowns above it plus half those in it),
    in integers."""
    order = np.argsort(-s)  # counts are read at each run's end: the order within a run is moot
    desc = s[order]
    last = np.flatnonzero(np.append(desc[1:] != desc[:-1], True))
    knowns = np.cumsum(k[order])[last]
    unknowns = last + 1 - knowns
    n_known, n_unknown = int(knowns[-1]), int(unknowns[-1])
    roc, rate = curves = np.empty((2, last.size + 1, 3))
    curves[:, 0] = (np.inf, 0.0, 0.0)
    roc[1:, 0] = rate[1:, 0] = desc[last] + 0.0  # a run of zeros is +0.0, whatever its signs
    roc[1:, 1] = rate[1:, 1] = unknowns / n_unknown
    roc[1:, 2] = knowns / n_known
    rate[1:, 2] = np.cumsum(hits[order])[last] / n_known
    twice_u = unknowns[0] * knowns[0] + (
        (unknowns[1:] - unknowns[:-1]) * (knowns[1:] + knowns[:-1])).sum()
    return roc, rate, float(twice_u / 2 / (n_known * n_unknown))


def _curve_area(curve: Curve) -> float:
    """Trapezoidal area under the (fpr, rate) points of a curve."""
    x, y = curve[:, 1], curve[:, 2]
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5).sum())


def auroc(scores, is_known) -> float:
    """Rank-based AUROC of known-vs-unknown detection, ties credited 0.5."""
    s, k = _as_score_flags(scores, is_known)
    return _sweep(s, k, k)[2]


def roc_points(scores, is_known) -> Curve:
    """Exact ROC sweep: (threshold, fpr, tpr) rows from (+inf, 0, 0), one per distinct
    score, descending; a sample is predicted known when its score is >= the threshold."""
    s, k = _as_score_flags(scores, is_known)
    return _sweep(s, k, k)[0]


def oscr(logits, true_labels, is_known) -> tuple[float, Curve]:
    """Open-set classification rate: area of CCR vs FPR over all thresholds.

    CCR(t) is the fraction of known samples that are correctly classified
    and score >= t; FPR(t) is the fraction of unknown samples scoring
    >= t. ``true_labels`` is only consulted at known positions.
    """
    z = _check_logits(logits)
    s, k = _as_score_flags(_max_logit(z), is_known)
    y = np.asarray(true_labels)
    if y.shape != (z.shape[0],):
        raise EvalError(f"true_labels must have length {z.shape[0]}")
    curve = _sweep(s, k, k & (z.argmax(axis=1) == y))[1]
    return _curve_area(curve), curve


def model_logits(embedder: Embedder, bank: ReciprocalBank, inputs,
                 config: LossConfig) -> np.ndarray:
    """The classification logits of ``inputs``: tau times ``numerics._scores`` of the
    ``model._forward`` features, on near-equal blocks of at most 1,024 rows, with the config,
    the inputs and the bank checked once. One pass over 8k rows made megabyte temporaries (the
    euclidean score's B x K x D difference among them) whose page faults came and went with the
    heap layout. No block has one row, which would round differently. A bad feature row is named
    by its row in ``inputs``; logits that overflow raise, as in ``evaluate``."""
    return _logits(embedder, bank, config, {"features": inputs})


@np.errstate(over="ignore", invalid="ignore")  # the non-finite features or logits check reports it
def _logits(embedder: Embedder, bank: ReciprocalBank, config: LossConfig,
            parts: dict) -> np.ndarray:
    """``model_logits`` of each of ``parts``' inputs, in one checked array, after ``config``'s
    check at the embedder's width; a bad feature row is named by its part's key and its row
    there. Each bias is tiled to the largest block's rows once; blocks keep the public ops."""
    config.validate(embedder.weights[-1].shape[1])
    xs = [_checked_inputs(embedder, x) for x in parts.values()]
    points = bank.checked(embedder.weights[-1].shape[1]).points
    metric, tau = config.classification_metric, config.tau
    counts = [max(1, -(-len(x) // 1024)) for x in xs]
    rows = max(-(-len(x) // c) for x, c in zip(xs, counts))  # the largest block
    biases = [np.tile(b, (rows, 1)) for b in embedder.biases]
    logits = np.empty((sum(map(len, xs)), len(points)))
    end = 0  # of the rows scored so far, in ``logits``
    for name, x, count in zip(parts, xs, counts):
        q, r = divmod(len(x), count)  # np.array_split's blocks: r of q + 1 rows, then q rows
        for i in range(count):
            first, n = i * q + min(i, r), q + (i < r)  # of the block, in its part
            block = x[first : first + n]
            features = _forward(embedder.weights, [b[:n] for b in biases], block)[-1]
            if not np.isfinite(features).all():
                bad = first + int(np.argmin(np.isfinite(features).all(axis=1)))
                raise NumericError(f"{name} row {bad} contains non-finite entries")
            scores = _scores(features, points, metric, name, first)[0]
            np.multiply(tau, scores, out=logits[end : end + n])
            end += n
    return as_matrix(logits, "logits")


def evaluate(embedder: Embedder, bank: ReciprocalBank, split, config: LossConfig) -> EvalReport:
    """Score a frozen model on an open-set split (known + unknown test sets) through ``_logits``,
    which checks the config and the logits once and names a bad feature row by set and row."""
    if bank.num_classes != split.num_known:
        raise EvalError(
            f"model has {bank.num_classes} classes but the split has {split.num_known} known"
        )
    n_known, n_unknown = len(split.test_known), len(split.test_unknown)
    if n_known == 0 or n_unknown == 0:
        raise EvalError("split must contain known and unknown test samples")
    logits = _logits(embedder, bank, config, {
        "test_known: features": split.test_known.inputs,
        "test_unknown: features": split.test_unknown.inputs})
    k = np.arange(n_known + n_unknown) < n_known
    correct = np.zeros(n_known + n_unknown, dtype=bool)  # no unknown row is a hit
    np.equal(logits[:n_known].argmax(axis=1), split.test_known.labels, out=correct[:n_known])
    roc_curve, oscr_curve, auroc_value = _sweep(_max_logit(logits), k, correct)
    return EvalReport(float(np.count_nonzero(correct) / n_known), auroc_value,
                      _curve_area(oscr_curve), roc_curve, oscr_curve)


def _write_curve_csv(path, header: str, curve) -> None:
    """``header``, then each row of ``curve`` (a 2-D array-like, or empty) as ``%.17g`` values:
    one ``%`` over a row template repeated per row, the same bytes as formatting each value on
    its own."""
    values = np.asarray(curve, dtype=np.float64)
    row = ",".join(["%.17g"] * (values.shape[1] if len(values) else 0)) + "\n"
    body = (row * len(values)) % tuple(values.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + body)


def write_roc_csv(path, curve: Curve) -> None:
    _write_curve_csv(path, "threshold,fpr,tpr", curve)


def write_oscr_csv(path, curve: Curve) -> None:
    _write_curve_csv(path, "threshold,fpr,ccr", curve)
