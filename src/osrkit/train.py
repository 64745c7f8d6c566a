"""Optimizers, the deterministic training loop, and the ablation sweep.

Training is bit-deterministic for a fixed (seed, config, split): batch
order comes from one seeded generator, batches run single-threaded, and
the last partial batch is kept. Parameters, gradients and Adam moments are flat
float64 vectors bound before the first step. ``train`` checks its inputs once, then builds one
run state, ``_Run``: the model and its gradient twin, each bound to one vector. Each batch runs
``_Run.step``, which ``grad-check`` probes: ``model._forward``, the fused loss (see
``losses``) and ``model._backward_into`` fill the gradient vector. The optimizer updates the
parameters, margins are clamped to >= 0, and each scored epoch takes the argmax of the public
``evaluate.model_logits`` on ``split.test_known``, which ``train`` checks non-empty up front.
"""

from __future__ import annotations

import copy
import math
from dataclasses import astuple, dataclass

import numpy as np

from .config import TrainConfig, key_text, with_keys
from .errors import (ConfigError, DataError, DegenerateInputError, NumericError, OsrkitError,
                     UsageError)
from .evaluate import evaluate, model_logits
from .losses import LossConfig, _check_labels, _total
from .model import Embedder, ReciprocalBank, _backward_into, _forward, bind_parameters, init_model
from .numerics import as_matrix


@dataclass
class EpochRecord:
    epoch: int
    total: float
    classification: float
    margin: float
    overconfidence: float
    val_accuracy: float  # on split.test_known (no held-out split); nan if not evaluated


class SGD:
    def __init__(self, learning_rate: float, params: np.ndarray):
        self.learning_rate = float(learning_rate)
        self.params = params

    def step(self, grads: np.ndarray) -> None:
        """Update the bound vector in place."""
        if grads.shape != self.params.shape:
            raise UsageError(f"params shape {self.params.shape} != grad shape {grads.shape}")
        self.params -= self._update(grads)

    def _update(self, grads: np.ndarray) -> np.ndarray:
        """The step to subtract from the parameters."""
        return self.learning_rate * grads


class Adam(SGD):
    """Adam with bias correction (Kingma & Ba, ICLR 2015). Its constants
    are the class attributes BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float, params: np.ndarray):
        super().__init__(learning_rate, params)
        self.t = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)

    def _update(self, grads: np.ndarray) -> np.ndarray:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * grads
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * grads * grads
        return self.learning_rate * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


class _Run:
    """A run's state: the model bound to ``params``, its gradient twin to ``grads``, the loss."""

    def __init__(self, embedder: Embedder, bank: ReciprocalBank, loss: LossConfig):
        self.embedder, self.bank, self.loss = embedder, bank, loss
        self.params = bind_parameters(embedder, bank)
        self.twin = copy.deepcopy((embedder, bank))  # the initial model; each step overwrites it
        self.grads = bind_parameters(*self.twin)

    def step(self, inputs, labels) -> tuple[float, ...]:
        """The forward pass, the fused loss, then the backward pass on checked inputs. Writes
        the gradient into ``grads``; returns (total, cls, margin, oc)."""
        embedder, (grad_embedder, grad_bank), loss = self.embedder, self.twin, self.loss
        acts = _forward(embedder.weights, embedder.biases, inputs)
        (cls, mar, oc), grad_f = _total(acts[-1], self.bank, labels, loss, grad_bank)
        _backward_into(embedder.weights, acts, grad_f, grad_embedder.weights, grad_embedder.biases)
        return cls + loss.alpha * mar + loss.beta * oc, cls, mar, oc


@np.errstate(over="ignore", invalid="ignore")  # the non-finite loss check reports it once
def train(split, config: TrainConfig) -> tuple[Embedder, ReciprocalBank, list[EpochRecord]]:
    """Fit the embedder and bank on split.train; deterministic per config. The inputs
    are validated once; each batch runs ``_Run.step`` on them, unchecked."""
    config.validate()
    k = split.num_known
    inputs = as_matrix(split.train.inputs, "training inputs")
    if config.model.layer_dims[0] != inputs.shape[1]:
        raise ConfigError(f"model input dim {config.model.layer_dims[0]} != "
                          f"data dim {inputs.shape[1]}")
    n = len(inputs)
    labels = _check_labels(split.train.labels, k, n)
    if config.epochs and len(split.test_known) == 0:  # the last epoch scores it
        raise DataError("empty batch")
    embedder, bank = init_model(config.model, k)
    run = _Run(embedder, bank, config.loss)
    optimizer = (SGD if config.optimizer == "sgd" else Adam)(config.learning_rate, run.params)
    rng = np.random.default_rng(int(config.seed))
    history: list[EpochRecord] = []
    alpha, beta = config.loss.alpha, config.loss.beta
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sum_cls = sum_mar = sum_oc = 0.0
        try:
            for start in range(0, n, config.batch_size):
                batch = perm[start : start + config.batch_size]
                value, cls, mar, oc = run.step(inputs[batch], labels[batch])
                if not math.isfinite(value):
                    raise NumericError(f"non-finite loss {value}")
                optimizer.step(run.grads)
                bank.project_margins()
                sum_cls += cls * batch.size
                sum_mar += mar * batch.size
                sum_oc += oc * batch.size
        except (NumericError, DegenerateInputError) as exc:  # a step's value check: name the step
            raise type(exc)(f"{exc} at epoch {epoch}, batch {start // config.batch_size}") from None
        # an inf in Adam's v makes that entry's step m / inf = 0: the run would silently freeze
        if isinstance(optimizer, Adam) and not np.isfinite(optimizer.v).all():
            raise NumericError(f"non-finite Adam second moment at epoch {epoch}")
        cls, mar, oc = sum_cls / n, sum_mar / n, sum_oc / n
        acc = math.nan  # on split.test_known, scored as ``evaluate`` scores it
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            logits = model_logits(embedder, bank, split.test_known.inputs, config.loss)
            acc = float((logits.argmax(axis=1) == split.test_known.labels).mean())
        history.append(EpochRecord(epoch, cls + alpha * mar + beta * oc, cls, mar, oc, acc))
    return embedder, bank, history


def write_history_csv(path, history: list[EpochRecord]) -> None:
    np.savetxt(path, [astuple(r) for r in history], "%.17g", ",",  # no rows: the header alone
               header="epoch,total,cls,amc,coc,val_acc", comments="", encoding="utf-8")


# ---------------------------------------------------------------------------
# Sweep harness


@dataclass
class SweepRow:
    overrides: dict[str, object]
    accuracy: float | None
    auroc: float | None
    oscr: float | None
    error: str | None = None


def sweep(base: TrainConfig, cells: list[dict[str, object]], split) -> list[SweepRow]:
    """Train and evaluate one run per cell.

    All cells must set the same parameters, and each is checked, before the
    first trains. A failing cell's toolkit error marks its row (a copy of the
    cell) and the sweep goes on; any other exception is a bug and propagates.
    """
    names = sorted({",".join(sorted(cell)) for cell in cells})
    if len(names) > 1:
        raise UsageError(f"sweep cells set different parameters: {' / '.join(names)}")
    rows = []
    configs = [with_keys(base, overrides) for overrides in cells]
    for overrides, cfg in zip(map(dict, cells), configs):
        try:
            embedder, bank, _ = train(split, cfg)
            report = evaluate(embedder, bank, split, cfg.loss)
            rows.append(SweepRow(overrides, report.closed_accuracy, report.auroc, report.oscr))
        except OsrkitError as exc:
            rows.append(SweepRow(overrides, None, None, None, error=str(exc)))
    return rows


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    if not rows:
        raise UsageError("no sweep rows to write")
    names = list(rows[0].overrides.keys())
    results = lambda r: ["error"] * 3 if r.error is not None else [r.accuracy, r.auroc, r.oscr]
    # object cells: a numpy string array would drop a cell's trailing NULs
    cells = np.array([[key_text(v) for v in [*(r.overrides[n] for n in names), *results(r)]]
                      for r in rows], dtype=object)
    np.savetxt(path, cells, "%s", ",", header=",".join(names + ["acc", "auroc", "oscr"]),
               comments="", encoding="utf-8")
