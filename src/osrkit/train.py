"""Optimizers, the deterministic training loop, and the ablation sweep.

Training is bit-deterministic for a fixed (seed, config, split): batch
order comes from one seeded generator, batches run single-threaded, and
the last partial batch is kept. Parameters, gradients and Adam moments are flat
float64 vectors bound before the first step; a step computes each loss piece once
(see ``losses``), then updates the vector, after which margins are clamped to >= 0.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable

import numpy as np

from .errors import ConfigError, DegenerateInputError, NumericError, OsrkitError, UsageError
from .evaluate import evaluate, predict_closed
from .losses import LossConfig, _check_labels, _total, classification_logits
from .model import (Embedder, ModelConfig, ReciprocalBank, _backward_into, bind_parameters,
                    embed_forward, init_model)
from .numerics import Metric, as_matrix


@dataclass
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # adam | sgd
    seed: int = 0
    eval_every: int = 10

    def validate(self) -> None:
        self.model.validate()
        self.loss.validate()
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.loss.classification_metric is Metric.ANGULAR and self.model.layer_dims[-1] == 1:
            raise ConfigError("layer_dims ends in 1: every angular score would be +-1")


# Named settings, each a set of config keys that is applied before any explicit key.
PRESETS = {
    "desk": {},  # TrainConfig's defaults: fast enough for small synthetic runs
    "paper": {"epochs": 90, "batch_size": 64, "learning_rate": 1e-5},  # the published recipe
}
VARIANTS = {  # the objective arms; every other loss term is kept
    "full": {"classification_metric": Metric.ANGULAR},
    "euclidean": {"classification_metric": Metric.EUCLIDEAN},
    "uncalibrated": {"classification_metric": Metric.ANGULAR, "beta": 0.0},
}
GRIDS = {  # the named grids of ``osrkit sweep --grid``
    "gap-threshold": [{"gap_threshold": t} for t in (0.0, 0.25, 0.5, 1.0, 2.0)],
    "weights": [{"alpha": a, "beta": b} for a, b in (
        (0.05, 0.05), (0.05, 0.1), (0.1, 0.05), (0.1, 0.1), (0.1, 0.5), (0.5, 0.1), (0.5, 0.5))],
    "margin-metric": [{"margin_metric": m} for m in Metric],  # all four, in declaration order
}


def named(table: dict, kind: str, name: str):
    """``table[name]``; an unknown name is a ``ConfigError`` that lists the choices."""
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; choose from {', '.join(table)}")
    return table[name]


@dataclass
class EpochRecord:
    epoch: int
    total: float
    classification: float
    margin: float
    overconfidence: float
    val_accuracy: float  # on split.test_known (no held-out split); nan if not evaluated


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


class SGD:
    def __init__(self, learning_rate: float, params: np.ndarray):
        self.learning_rate = float(learning_rate)
        self.params = params

    def step(self, grads: np.ndarray) -> None:
        """Update the bound vector in place."""
        if grads.shape != self.params.shape:
            raise UsageError(f"params shape {self.params.shape} != grad shape {grads.shape}")
        self.params -= self.learning_rate * grads


class Adam:
    """Adam with bias correction (Kingma & Ba, ICLR 2015). Its constants
    are the class attributes BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float, params: np.ndarray):
        self.learning_rate = float(learning_rate)
        self.params = params
        self.t = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)

    def step(self, grads: np.ndarray) -> None:
        """Update the bound vector in place."""
        if grads.shape != self.params.shape:
            raise UsageError(f"params shape {self.params.shape} != grad shape {grads.shape}")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * grads
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * grads * grads
        self.params -= self.learning_rate * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


def make_optimizer(config: TrainConfig, params: np.ndarray):
    """The configured optimizer, made on ``params``."""
    optimizer = SGD if config.optimizer == "sgd" else Adam
    return optimizer(config.learning_rate, params)


def optimizer_step(optimizer, bank: ReciprocalBank, grads: np.ndarray) -> None:
    """Step ``optimizer`` on its ``bind_parameters`` vector, then clamp ``bank``'s margins."""
    optimizer.step(grads)
    bank.project_margins()


def _validation_accuracy(embedder, bank, dataset, loss_cfg: LossConfig) -> float:
    feats, _ = embed_forward(embedder, dataset.inputs)
    logits = classification_logits(feats, bank, loss_cfg.classification_metric, loss_cfg.tau)
    return float((predict_closed(logits) == dataset.labels).mean())


@np.errstate(over="ignore", invalid="ignore")  # the non-finite loss check reports it once
def train(split, config: TrainConfig) -> tuple[Embedder, ReciprocalBank, TrainHistory]:
    """Fit the embedder and bank on split.train; deterministic per config. The inputs
    are validated once; the steps run the unchecked loss and backward cores."""
    config.validate()
    k = split.num_known
    if config.model.layer_dims[0] != split.train.inputs.shape[1]:
        raise ConfigError(
            f"model input dim {config.model.layer_dims[0]} != "
            f"data dim {split.train.inputs.shape[1]}"
        )
    n = len(split.train)
    inputs = as_matrix(split.train.inputs, "training inputs")
    labels = _check_labels(split.train.labels, k, n)
    embedder, bank = init_model(config.model, k)
    optimizer = make_optimizer(config, bind_parameters(embedder, bank))
    # the gradients, bound like the parameters; each step overwrites every array
    grad_embedder, grad_bank = init_model(config.model, k)
    grads = bind_parameters(grad_embedder, grad_bank)
    rng = np.random.default_rng(int(config.seed))
    history = TrainHistory()
    alpha, beta = config.loss.alpha, config.loss.beta
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sum_cls = sum_mar = sum_oc = 0.0
        try:
            for start in range(0, n, config.batch_size):
                batch = perm[start : start + config.batch_size]
                feats, cache = embed_forward(embedder, inputs[batch])
                (cls, mar, oc), grad_f = _total(feats, bank, labels[batch], config.loss, grad_bank)
                value = cls + alpha * mar + beta * oc
                if not math.isfinite(value):
                    raise NumericError(f"non-finite loss {value}")
                _backward_into(cache, grad_f, grad_embedder.weights, grad_embedder.biases)
                optimizer_step(optimizer, bank, grads)
                sum_cls += cls * batch.size
                sum_mar += mar * batch.size
                sum_oc += oc * batch.size
        except (NumericError, DegenerateInputError) as exc:  # a step's value check: name the step
            raise type(exc)(f"{exc} at epoch {epoch}, batch {start // config.batch_size}") from None
        # an inf in Adam's v makes that entry's step m / inf = 0: the run would silently freeze
        if isinstance(optimizer, Adam) and not np.isfinite(optimizer.v).all():
            raise NumericError(f"non-finite Adam second moment at epoch {epoch}")
        cls, mar, oc = sum_cls / n, sum_mar / n, sum_oc / n
        due = (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1
        acc = _validation_accuracy(embedder, bank, split.test_known, config.loss) if due else math.nan
        history.records.append(EpochRecord(epoch, cls + alpha * mar + beta * oc, cls, mar, oc, acc))
    return embedder, bank, history


def write_history_csv(path, history: TrainHistory) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,total,cls,amc,coc,val_acc\n")
        for r in history.records:
            fh.write(
                f"{r.epoch},{r.total:.17g},{r.classification:.17g},{r.margin:.17g},"
                f"{r.overconfidence:.17g},{r.val_accuracy:.17g}\n"
            )


# ---------------------------------------------------------------------------
# Sweep harness


@dataclass
class SweepRow:
    overrides: dict[str, object]
    accuracy: float | None
    auroc: float | None
    oscr: float | None
    error: str | None = None


def cartesian_cells(grid: dict[str, Iterable]) -> list[dict[str, object]]:
    """Expand named value lists into override dicts, in deterministic order."""
    names = list(grid.keys())
    cells = []
    for combo in product(*(list(grid[n]) for n in names)):
        cells.append(dict(zip(names, combo)))
    return cells


def _check_kind(name: str, current: object, value: object) -> None:
    """Reject a sweep value that cannot fill the field it overrides."""
    if isinstance(value, bool):  # an Integral, but no number
        ok = isinstance(current, bool)
    elif isinstance(current, float):
        ok = isinstance(value, numbers.Real)
    elif isinstance(current, int):
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, type(current))
    if not ok:
        raise ConfigError(
            f"sweep parameter {name!r} needs a {type(current).__name__}, got {value!r}"
        )


def _keys(config) -> list[str]:
    """The fields of a config dataclass that hold no nested config, in field order: the
    keys that a config file, ``--param`` and a sweep cell set."""
    return [f.name for f in dataclasses.fields(config)
            if not dataclasses.is_dataclass(getattr(config, f.name))]


def _apply_overrides(config: TrainConfig, overrides: dict[str, object]) -> TrainConfig:
    """Route each override to every config that has the key (``seed``
    sets both the training and the model-init seed)."""
    loss_over: dict[str, object] = {}
    train_over: dict[str, object] = {}
    model_over: dict[str, object] = {}
    targets = ((config.loss, loss_over), (config, train_over), (config.model, model_over))
    for name, value in overrides.items():
        owners = [(obj, over) for obj, over in targets if name in _keys(obj)]
        if not owners:
            raise ConfigError(f"unknown sweep parameter {name!r}")
        for obj, over in owners:
            _check_kind(name, getattr(obj, name), value)
            over[name] = value
    cfg = replace(config, **train_over)
    return replace(cfg, loss=replace(cfg.loss, **loss_over),
                   model=replace(cfg.model, **model_over))


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
    configs = [_apply_overrides(base, overrides) for overrides in cells]
    for overrides, cfg in zip(map(dict, cells), configs):
        try:
            embedder, bank, _ = train(split, cfg)
            report = evaluate(embedder, bank, split, cfg.loss)
            rows.append(SweepRow(overrides, report.closed_accuracy, report.auroc, report.oscr))
        except OsrkitError as exc:
            rows.append(SweepRow(overrides, None, None, None, error=str(exc)))
    return rows


def _cell_value(v: object) -> str:
    if isinstance(v, Metric):
        return v.value
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, list):  # one quoted field in config syntax
        return '"' + ",".join(map(str, v)) + '"'
    return str(v)


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    if not rows:
        raise UsageError("no sweep rows to write")
    names = list(rows[0].overrides.keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["acc", "auroc", "oscr"]) + "\n")
        for row in rows:
            cells = [_cell_value(row.overrides[n]) for n in names]
            if row.error is not None:
                cells += ["error", "error", "error"]
            else:
                cells += [f"{row.accuracy:.17g}", f"{row.auroc:.17g}", f"{row.oscr:.17g}"]
            fh.write(",".join(cells) + "\n")
