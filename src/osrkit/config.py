"""INI-style configuration files for the CLI.

Four sections, all optional, every key defaulted:

    [model]                      [loss]
    layer_dims = 8,32,16         tau = 1.0
    seed = 0                     alpha = 0.1
    init_scale = 1.0             beta = 0.1
                                 gap_threshold = 0.5
    [train]                      variant = full
    preset = desk                classification_metric = angular
    epochs = 200                 margin_metric = euclidean
    batch_size = 32
    learning_rate = 1e-3         [data]
    optimizer = adam             num_classes = 6
    seed = 0                     samples_per_class = 200
    eval_every = 10              dim = 8
                                 separation = 5.0
                                 overlap = 1.0
                                 hard = true
                                 num_groups = 5
                                 seed = 0
                                 known_classes = 0,1,2,3
                                 unknown_classes = 4,5
                                 test_fraction = 0.25
                                 features_path =   (optional; load instead of generate)

``preset`` (desk or paper) fills the training hyperparameters first and
explicit keys override it; ``variant`` (full, euclidean, uncalibrated)
does the same for the loss arm.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic, load_features
from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .numerics import Metric
from .train import TrainConfig, desk_preset, paper_preset, variant_loss


@dataclass
class DataConfig:
    num_classes: int = 6
    samples_per_class: int = 200
    dim: int = 8
    separation: float = 5.0
    overlap: float = 1.0
    hard: bool = True
    num_groups: int = 5
    seed: int = 0
    known_classes: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    unknown_classes: list[int] = field(default_factory=lambda: [4, 5])
    test_fraction: float = 0.25
    features_path: str | None = None


@dataclass
class FullConfig:
    model: ModelConfig
    loss: LossConfig
    train: TrainConfig
    data: DataConfig


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    raw = section[key].strip()
    if raw == "":
        return default
    try:
        return cast(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",") if v.strip() != ""]


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw}")


def _metric(raw: str) -> Metric:
    try:
        return Metric(raw.lower())
    except ValueError:
        raise ValueError(
            f"unknown metric {raw!r}; choose from "
            + ", ".join(m.value for m in Metric)
        ) from None


def load_config(path) -> FullConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    sec = lambda name: parser[name] if parser.has_section(name) else None

    m = sec("model")
    model = ModelConfig(
        layer_dims=_get(m, "layer_dims", _int_list, [8, 32, 16]),
        seed=_get(m, "seed", int, 0),
        init_scale=_get(m, "init_scale", float, 1.0),
    )

    l = sec("loss")
    variant = _get(l, "variant", str, "full")
    loss = variant_loss(variant)
    loss = replace(
        loss,
        tau=_get(l, "tau", float, loss.tau),
        alpha=_get(l, "alpha", float, loss.alpha),
        beta=_get(l, "beta", float, loss.beta),
        gap_threshold=_get(l, "gap_threshold", float, loss.gap_threshold),
        classification_metric=_get(l, "classification_metric", _metric, loss.classification_metric),
        margin_metric=_get(l, "margin_metric", _metric, loss.margin_metric),
    )

    t = sec("train")
    preset = _get(t, "preset", str, "desk")
    if preset == "desk":
        train = desk_preset(model, loss)
    elif preset == "paper":
        train = paper_preset(model, loss)
    else:
        raise ConfigError(f"unknown preset {preset!r}; choose desk or paper")
    train = replace(
        train,
        epochs=_get(t, "epochs", int, train.epochs),
        batch_size=_get(t, "batch_size", int, train.batch_size),
        learning_rate=_get(t, "learning_rate", float, train.learning_rate),
        optimizer=_get(t, "optimizer", str, train.optimizer),
        seed=_get(t, "seed", int, train.seed),
        eval_every=_get(t, "eval_every", int, train.eval_every),
    )

    d = sec("data")
    data = DataConfig(
        num_classes=_get(d, "num_classes", int, 6),
        samples_per_class=_get(d, "samples_per_class", int, 200),
        dim=_get(d, "dim", int, 8),
        separation=_get(d, "separation", float, 5.0),
        overlap=_get(d, "overlap", float, 1.0),
        hard=_get(d, "hard", _bool, True),
        num_groups=_get(d, "num_groups", int, 5),
        seed=_get(d, "seed", int, 0),
        known_classes=_get(d, "known_classes", _int_list, [0, 1, 2, 3]),
        unknown_classes=_get(d, "unknown_classes", _int_list, [4, 5]),
        test_fraction=_get(d, "test_fraction", float, 0.25),
        features_path=_get(d, "features_path", str, None),
    )
    return FullConfig(model=model, loss=loss, train=train, data=data)


def build_dataset(data: DataConfig) -> LabeledDataset:
    if data.features_path:
        return load_features(data.features_path)
    return gen_synthetic(
        num_classes=data.num_classes,
        samples_per_class=data.samples_per_class,
        dim=data.dim,
        separation=data.separation,
        overlap=data.overlap,
        seed=data.seed,
        hard=data.hard,
        num_groups=data.num_groups,
    )


def build_split(data: DataConfig) -> OpenSetSplit:
    dataset = build_dataset(data)
    spec = SplitSpec(data.known_classes, data.unknown_classes)
    return apply_split(dataset, spec, data.test_fraction, data.seed)
