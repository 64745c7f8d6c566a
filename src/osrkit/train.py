"""Optimizers, the deterministic training loop, and the ablation sweep.

Training is bit-deterministic for a fixed (seed, config, split): batch
order comes from one seeded generator, batches run single-threaded, and
the last partial batch is kept. The parameters are one flat float64 vector,
so each optimizer step is one vector update, after which margins are clamped to >= 0.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable

import numpy as np

from .errors import ConfigError, NumericError, OsrkitError, UsageError
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


def paper_preset(model: ModelConfig, loss: LossConfig | None = None) -> TrainConfig:
    """Hyperparameters matching the published training recipe."""
    return TrainConfig(
        model=model, loss=loss or LossConfig(), epochs=90, batch_size=64,
        learning_rate=1e-5, optimizer="adam",
    )


def desk_preset(model: ModelConfig, loss: LossConfig | None = None) -> TrainConfig:
    """Fast defaults for small synthetic runs (the `paper` preset's learning
    rate underfits toy MLPs in any reasonable time)."""
    return TrainConfig(
        model=model, loss=loss or LossConfig(), epochs=200, batch_size=32,
        learning_rate=1e-3, optimizer="adam",
    )


def variant_loss(variant: str, base: LossConfig | None = None) -> LossConfig:
    """Named objective arms.

    - full: angular classification + margin + overconfidence hinge
    - euclidean: composite euclidean classification, other terms kept
    - uncalibrated: angular classification, overconfidence weight zeroed
    """
    cfg = base or LossConfig()
    if variant == "full":
        return replace(cfg, classification_metric=Metric.ANGULAR)
    if variant == "euclidean":
        return replace(cfg, classification_metric=Metric.EUCLIDEAN)
    if variant == "uncalibrated":
        return replace(cfg, classification_metric=Metric.ANGULAR, beta=0.0)
    raise ConfigError(f"unknown variant {variant!r}")


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
    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        _check_shapes(params, grads)
        params -= self.learning_rate * grads


class Adam:
    """Adam with bias correction (Kingma & Ba, ICLR 2015). Its constants
    are the class attributes BETA1 = 0.9, BETA2 = 0.999 and EPS = 1e-8."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        _check_shapes(params, grads)
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        _check_shapes(params, self.m, "optimizer state")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        self.m *= self.BETA1
        self.m += (1.0 - self.BETA1) * grads
        self.v *= self.BETA2
        self.v += (1.0 - self.BETA2) * grads * grads
        params -= self.learning_rate * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.EPS)


def _check_shapes(params: np.ndarray, other: np.ndarray, what: str = "grad") -> None:
    if params.shape != other.shape:
        raise UsageError(f"params shape {params.shape} != {what} shape {other.shape}")


def make_optimizer(config: TrainConfig):
    if config.optimizer == "adam":
        return Adam(config.learning_rate)
    return SGD(config.learning_rate)


def optimizer_step(optimizer, params: np.ndarray, bank: ReciprocalBank, grads: np.ndarray) -> None:
    """Update the ``bind_parameters`` vector in place, then clamp ``bank``'s margin views."""
    optimizer.step(params, grads)
    bank.project_margins()


def _validation_accuracy(embedder, bank, dataset, loss_cfg: LossConfig) -> float:
    feats, _ = embed_forward(embedder, dataset.inputs)
    logits = classification_logits(feats, bank, loss_cfg.classification_metric, loss_cfg.tau)
    return float((predict_closed(logits) == dataset.labels).mean())


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
    params = bind_parameters(embedder, bank)
    # the gradients, bound like the parameters; each step overwrites every array
    grad_embedder, grad_bank = init_model(config.model, k)
    grads = bind_parameters(grad_embedder, grad_bank)
    optimizer = make_optimizer(config)
    rng = np.random.default_rng(int(config.seed))
    history = TrainHistory()
    alpha, beta = config.loss.alpha, config.loss.beta
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums = {"classification": 0.0, "margin": 0.0, "overconfidence": 0.0}
        for start in range(0, n, config.batch_size):
            batch = perm[start : start + config.batch_size]
            feats, cache = embed_forward(embedder, inputs[batch])
            out = _total(feats, bank, labels[batch], config.loss)
            if not np.isfinite(out.value):
                raise NumericError(
                    f"non-finite loss {out.value} at epoch {epoch}, batch {start // config.batch_size}"
                )
            _backward_into(cache, out.grad_features, grad_embedder.weights, grad_embedder.biases)
            grad_bank.points[...] = out.grad_points
            grad_bank.margins[...] = out.grad_margins
            optimizer_step(optimizer, params, bank, grads)
            for key in sums:
                sums[key] += out.parts[key] * len(batch)
        means = {key: sums[key] / n for key in sums}
        total = means["classification"] + alpha * means["margin"] + beta * means["overconfidence"]
        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            val_acc = _validation_accuracy(embedder, bank, split.test_known, config.loss)
        else:
            val_acc = float("nan")
        history.records.append(
            EpochRecord(epoch, total, means["classification"], means["margin"],
                        means["overconfidence"], val_acc)
        )
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


def gap_threshold_cells() -> list[dict[str, object]]:
    """Five-point threshold sweep for the overconfidence hinge."""
    return [{"gap_threshold": t} for t in (0.0, 0.25, 0.5, 1.0, 2.0)]


def weight_cells() -> list[dict[str, object]]:
    """The seven (alpha, beta) combinations of the weight ablation."""
    combos = [(0.05, 0.05), (0.05, 0.1), (0.1, 0.05), (0.1, 0.1),
              (0.1, 0.5), (0.5, 0.1), (0.5, 0.5)]
    return [{"alpha": a, "beta": b} for a, b in combos]


def margin_metric_cells() -> list[dict[str, object]]:
    """All four distance metrics for the margin hinge."""
    return [{"margin_metric": m}
            for m in (Metric.EUCLIDEAN, Metric.ANGULAR, Metric.MANHATTAN, Metric.CHEBYSHEV)]


def _check_kind(name: str, current: object, value: object) -> None:
    """Reject a sweep value that cannot fill the field it overrides."""
    if isinstance(current, float):
        ok = isinstance(value, numbers.Real)
    elif isinstance(current, int):
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, type(current))
    if not ok:
        raise ConfigError(
            f"sweep parameter {name!r} needs a {type(current).__name__}, got {value!r}"
        )


def _apply_overrides(config: TrainConfig, overrides: dict[str, object]) -> TrainConfig:
    """Route each override to every config that has the field (``seed``
    sets both the training and the model-init seed)."""
    loss_over: dict[str, object] = {}
    train_over: dict[str, object] = {}
    model_over: dict[str, object] = {}
    targets = ((config.loss, loss_over), (config, train_over), (config.model, model_over))
    for name, value in overrides.items():
        owners = [(obj, over) for obj, over in targets
                  if name in {f.name for f in dataclasses.fields(obj)}]
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

    Every cell's overrides are checked before the first one trains. A cell
    that then fails with a toolkit error marks its row and the sweep goes
    on; any other exception is a bug and propagates.
    """
    rows = []
    configs = [_apply_overrides(base, overrides) for overrides in cells]
    for overrides, cfg in zip(cells, configs):
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
