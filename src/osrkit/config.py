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

A ``preset`` (desk or paper, ``train.PRESETS``) or ``variant`` (full,
euclidean, uncalibrated, ``train.VARIANTS``) is a named set of keys,
applied before the section's own keys. The keys of a section are the
fields of its config dataclass that hold no nested config (``train._keys``,
which also names what a sweep sets), each read as the type of its default;
an empty value keeps the default. An unknown key or section is an error.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic, load_features
from .errors import ConfigError
from .losses import LossConfig
from .model import ModelConfig
from .numerics import Metric
from .train import PRESETS, VARIANTS, TrainConfig, _keys, named


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
    train: TrainConfig  # holds the model and loss configs
    data: DataConfig


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


# A key's cast, picked by the type of its current value.
_CASTS = {bool: _bool, int: int, float: float, str: str, type(None): str,
          Metric: _metric, list: _int_list}
_SECTIONS = ("model", "loss", "train", "data")


def _cast(key: str, current: object, raw: str) -> object:
    """``raw`` as a value of the type of ``key``'s current value."""
    try:
        return _CASTS[type(current)](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _value(section, key: str, default: object) -> object:
    raw = section.get(key, "").strip()
    return _cast(key, default, raw) if raw else default


def _read(section, config, extra: str = ""):
    """``config`` with its fields set from ``section``'s keys (``extra`` is also allowed)."""
    keys = _keys(config)
    for key in section:
        if key not in keys and key != extra:
            raise ConfigError(f"unknown key {key!r} in [{section.name}]")
    return replace(config, **{k: _value(section, k, getattr(config, k)) for k in keys})


def load_config(path) -> FullConfig:
    # no default section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]; choose from {', '.join(_SECTIONS)}")
    for name in _SECTIONS:
        if not parser.has_section(name):
            parser.add_section(name)
    m, l, t, d = (parser[name] for name in _SECTIONS)

    model = _read(m, ModelConfig([8, 32, 16]))
    variant = named(VARIANTS, "variant", _value(l, "variant", "full"))
    loss = _read(l, replace(LossConfig(), **variant), "variant")
    preset = named(PRESETS, "preset", _value(t, "preset", "desk"))
    train = _read(t, replace(TrainConfig(model, loss), **preset), "preset")
    return FullConfig(train, _read(d, DataConfig()))


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
