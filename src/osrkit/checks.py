"""Finite-difference verification of every analytic gradient in the toolkit.

Each case builds seeded random small instances, flattens the trainable
quantities into one vector, and compares the analytic gradient against
central differences via ``numerics.grad_check``. ``gradient_cases`` is the only
list of cases: each public loss on its own inputs (``classification_<metric>``,
``overconfidence``, ``total``, ``margin_<metric>``), then ``train``'s own step, ``_Run.step``,
on a random embedder once per ``VARIANTS`` arm and margin ``Metric``
(``total_through_embedder`` for the full arm with the euclidean margin, else
``fused_<arm>_<margin>``). The CLI `grad-check` subcommand and the acceptance
suite run every case on 20 instances; the unit tests run each on a few.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import VARIANTS
from .errors import ConfigError
from .losses import (LossConfig, classification_loss, margin_loss, overconfidence_loss,
                     total_loss)
from .model import Embedder, ReciprocalBank, flatten, unflatten
from .numerics import Metric, grad_check
from .train import _Run

DEFAULT_TOL = 1e-4
DEFAULT_EPS = 1e-5


@dataclass
class GradCaseResult:
    name: str
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error < DEFAULT_TOL


def _bank_loss_case(loss_fn) -> Callable[[np.random.Generator], float]:
    """Check d(loss)/d(features, points, margins) for a bank-based loss."""

    def run(rng: np.random.Generator) -> float:
        b, d, k = int(rng.integers(1, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 6))
        features = rng.standard_normal((b, d))
        points = rng.standard_normal((k, d))
        margins = rng.uniform(0.0, 2.0, k)
        labels = rng.integers(0, k, b)
        like = [features, points, margins]

        def value_at(vec: np.ndarray) -> float:
            f, p, m = unflatten(vec, like)
            return loss_fn(f, ReciprocalBank(p, m), labels).value

        out = loss_fn(features, ReciprocalBank(points, margins), labels)
        analytic = flatten(out.grad_features, out.grad_points, out.grad_margins)
        return grad_check(value_at, flatten(*like), analytic, DEFAULT_EPS)

    return run


def _overconfidence_case(rng: np.random.Generator) -> float:
    b, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
    logits = rng.standard_normal((b, k)) * 2.0
    threshold = float(rng.uniform(0.0, 1.5))
    value, grad = overconfidence_loss(logits, threshold)

    def value_at(vec: np.ndarray) -> float:
        return overconfidence_loss(vec.reshape(b, k), threshold)[0]

    return grad_check(value_at, logits.ravel(), grad.ravel(), DEFAULT_EPS)


def _through_embedder_case(config: LossConfig) -> Callable[[np.random.Generator], float]:
    """``train``'s own run state and step under ``config`` on a random 2-layer embedder,
    probed through the parameter vector that the optimizer steps on."""

    def run(rng: np.random.Generator) -> float:
        b, d_in, h, d, k = (int(rng.integers(2, high)) for high in (6, 5, 6, 5, 5))
        weights = [rng.standard_normal((d_in, h)), rng.standard_normal((h, d))]
        biases = [rng.standard_normal(h), rng.standard_normal(d)]
        embedder = Embedder(weights, biases)
        bank = ReciprocalBank(rng.standard_normal((k, d)), rng.uniform(0.0, 2.0, k))
        labels = rng.integers(0, k, b)
        inputs = rng.standard_normal((b, d_in))
        run = _Run(embedder, bank, config)

        def value_at(vec: np.ndarray) -> float:
            run.params[...] = vec
            return run.step(inputs, labels)[0]

        value_at(run.params)  # fills the twin: the analytic gradient at params
        # grad_check copies params; value_at overwrites the twin as it probes, so copy it here
        return grad_check(value_at, run.params, run.grads.copy(), DEFAULT_EPS)

    return run


def gradient_cases() -> dict[str, Callable[[np.random.Generator], float]]:
    base = LossConfig(tau=1.0, alpha=0.1, beta=0.1, gap_threshold=0.25)
    fused = {(arm, metric): _through_embedder_case(replace(base, **keys, margin_metric=metric))
             for arm, keys in VARIANTS.items() for metric in Metric}
    cases = {}
    for metric in (Metric.EUCLIDEAN, Metric.ANGULAR):  # the classification metrics
        cases[f"classification_{metric.value}"] = _bank_loss_case(
            lambda f, bank, y, m=metric: classification_loss(f, bank, y, m, tau=1.3)
        )
    cases["overconfidence"] = _overconfidence_case
    cases["total"] = _bank_loss_case(lambda f, bank, y: total_loss(f, bank, y, base))
    cases["total_through_embedder"] = fused.pop(("full", Metric.EUCLIDEAN))
    for metric in Metric:
        cases[f"margin_{metric.value}"] = _bank_loss_case(
            lambda f, bank, y, m=metric: margin_loss(f, bank, y, m)
        )
    cases.update({f"fused_{arm}_{metric.value}": case for (arm, metric), case in fused.items()})
    return cases


def run_gradient_suite(seed: int = 0, instances: int = 20) -> list[GradCaseResult]:
    """Run every case on ``instances`` seeded random instances each."""
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    results = []
    for name, case in gradient_cases().items():
        rng = np.random.default_rng(seed)
        results.append(GradCaseResult(name, max(0.0, *(case(rng) for _ in range(instances)))))
    return results
