"""Finite-difference verification of every analytic gradient in the toolkit.

Each case builds seeded random small instances, flattens the trainable
quantities into one vector, and compares the analytic gradient against
central differences via ``numerics.grad_check``. The CLI `grad-check`
subcommand and the acceptance suite both run this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .losses import (
    LossConfig,
    classification_loss,
    margin_loss,
    overconfidence_loss,
    total_loss,
)
from .model import (Embedder, ReciprocalBank, bind_parameters, embed_backward, embed_forward,
                    flatten, unflatten)
from .numerics import Metric, grad_check

DEFAULT_TOL = 1e-4
DEFAULT_EPS = 1e-5


@dataclass
class GradCaseResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance


def _random_instance(rng: np.random.Generator):
    b = int(rng.integers(1, 9))
    d = int(rng.integers(2, 9))
    k = int(rng.integers(2, 6))
    features = rng.standard_normal((b, d))
    points = rng.standard_normal((k, d))
    margins = rng.uniform(0.0, 2.0, k)
    labels = rng.integers(0, k, b)
    return features, points, margins, labels


def _bank_loss_case(loss_fn) -> Callable[[np.random.Generator], float]:
    """Check d(loss)/d(features, points, margins) for a bank-based loss."""

    def run(rng: np.random.Generator) -> float:
        features, points, margins, labels = _random_instance(rng)
        like = [features, points, margins]

        def value_at(vec: np.ndarray) -> float:
            f, p, m = unflatten(vec, like)
            return loss_fn(f, ReciprocalBank(p, m), labels).value

        out = loss_fn(features, ReciprocalBank(points, margins), labels)
        analytic = flatten(out.grad_features, out.grad_points, out.grad_margins)
        return grad_check(value_at, flatten(*like), analytic, DEFAULT_EPS)

    return run


def _overconfidence_case(rng: np.random.Generator) -> float:
    b = int(rng.integers(1, 9))
    k = int(rng.integers(2, 6))
    logits = rng.standard_normal((b, k)) * 2.0
    threshold = float(rng.uniform(0.0, 1.5))
    value, grad = overconfidence_loss(logits, threshold)

    def value_at(vec: np.ndarray) -> float:
        return overconfidence_loss(vec.reshape(b, k), threshold)[0]

    return grad_check(value_at, logits.ravel(), grad.ravel(), DEFAULT_EPS)


def _through_embedder_case(rng: np.random.Generator) -> float:
    """Total loss backpropagated through a random 2-layer embedder, probed through
    the ``model.bind_parameters`` vector so the optimizer's parameter layout is checked too."""
    b = int(rng.integers(2, 6))
    d_in = int(rng.integers(2, 5))
    h = int(rng.integers(2, 6))
    d = int(rng.integers(2, 5))
    k = int(rng.integers(2, 5))
    weights = [rng.standard_normal((d_in, h)), rng.standard_normal((h, d))]
    biases = [rng.standard_normal(h), rng.standard_normal(d)]
    embedder = Embedder(weights, biases)
    bank = ReciprocalBank(rng.standard_normal((k, d)), rng.uniform(0.0, 2.0, k))
    labels = rng.integers(0, k, b)
    inputs = rng.standard_normal((b, d_in))
    cfg = LossConfig(tau=1.0, alpha=0.1, beta=0.1, gap_threshold=0.25)
    params = bind_parameters(embedder, bank)

    def value_at(vec: np.ndarray) -> float:
        params[...] = vec
        feats, _ = embed_forward(embedder, inputs)
        return total_loss(feats, bank, labels, cfg).value

    feats, cache = embed_forward(embedder, inputs)
    out = total_loss(feats, bank, labels, cfg)
    egrads, _ = embed_backward(cache, out.grad_features)
    analytic = bind_parameters(egrads, ReciprocalBank(out.grad_points, out.grad_margins))
    return grad_check(value_at, params, analytic, DEFAULT_EPS)  # grad_check copies params


def gradient_cases() -> dict[str, Callable[[np.random.Generator], float]]:
    cases: dict[str, Callable[[np.random.Generator], float]] = {
        "classification_euclidean": _bank_loss_case(
            lambda f, bank, y: classification_loss(f, bank, y, Metric.EUCLIDEAN, tau=1.3)
        ),
        "classification_angular": _bank_loss_case(
            lambda f, bank, y: classification_loss(f, bank, y, Metric.ANGULAR, tau=1.3)
        ),
        "overconfidence": _overconfidence_case,
        "total": _bank_loss_case(
            lambda f, bank, y: total_loss(
                f, bank, y, LossConfig(tau=1.0, alpha=0.1, beta=0.1, gap_threshold=0.25)
            )
        ),
        "total_through_embedder": _through_embedder_case,
    }
    for metric in Metric:
        cases[f"margin_{metric.value}"] = _bank_loss_case(
            lambda f, bank, y, m=metric: margin_loss(f, bank, y, m)
        )
    return cases


def run_gradient_suite(
    seed: int = 0, instances: int = 20, tolerance: float = DEFAULT_TOL
) -> list[GradCaseResult]:
    """Run every case on ``instances`` seeded random instances each."""
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    results = []
    for name, case in gradient_cases().items():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, case(rng))
        results.append(GradCaseResult(name, worst, tolerance))
    return results
