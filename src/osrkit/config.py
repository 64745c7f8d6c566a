"""Every config key: the config that owns it, how its text is read and written back.

The keys of a config are its fields that hold no nested config (``_keys``). ``_owners``
routes a key to each config that has it (``seed`` is a training and a model-init key);
``with_keys`` sets keys by name, for ``--seed``, ``--param`` and sweep cells. A key's
text is read as the type of its current value (``_cast``) and written by ``key_text``.
The CLI's INI file has four sections, all optional, every key defaulted:

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

A ``preset`` (``PRESETS``) or ``variant`` (``VARIANTS``) sets its keys before the section's
own; an empty value keeps the default, and an unknown key or section is an error.
"""

from __future__ import annotations

import configparser
import dataclasses
import numbers
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable

import numpy as np

from .data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic, load_features
from .errors import ConfigError, UsageError
from .losses import LossConfig
from .model import ModelConfig
from .numerics import Metric


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
            raise ConfigError(f"train seed must be non-negative, got {self.seed}")
        if self.loss.classification_metric is Metric.ANGULAR and self.model.layer_dims[-1] == 1:
            raise ConfigError("layer_dims ends in 1: every angular score would be +-1")


# Named settings, each a set of config keys applied before any explicit key. The one
# preset, ``desk``, is TrainConfig's defaults; no setting here is the paper's recipe.
PRESETS = {"desk": {}}
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


# Per type of a key's value: how its text is read, and which sweep values may fill it.
_KINDS = {bool: (_bool, numbers.Integral), numbers.Integral: (int, numbers.Integral),
          numbers.Real: (float, numbers.Real), Metric: (_metric, Metric), str: (str, str),
          type(None): (str, type(None)), list: (_int_list, list)}
_SECTIONS = ("model", "loss", "train", "data")


def _kind(current: object) -> tuple:
    """``current``'s entry: that of its first ``_KINDS`` type."""
    return next(kind for t, kind in _KINDS.items() if isinstance(current, t))


def _cast(key: str, current: object, raw: str) -> object:
    """``raw`` as a value of the type of ``key``'s current value."""
    cast, _ = _kind(current)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def key_text(value: object) -> str:
    """``value`` as the text that ``_cast`` reads back (a ``sweep.csv`` cell)."""
    if isinstance(value, Metric):
        return value.value
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):  # one quoted field in config syntax
        return '"' + ",".join(map(str, value)) + '"'
    return str(value)


def _keys(config) -> list[str]:
    """The fields of a config dataclass that hold no nested config, in field order: the
    keys that a config file, ``--param`` and a sweep cell set."""
    return [f.name for f in dataclasses.fields(config)
            if not dataclasses.is_dataclass(getattr(config, f.name))]


def _owners(config: TrainConfig, name: str) -> list:
    """The configs under ``config`` that have key ``name``, in routing order."""
    owners = [c for c in (config.loss, config, config.model) if name in _keys(c)]
    if not owners:
        raise ConfigError(f"unknown sweep parameter {name!r}")
    return owners


def with_keys(config: TrainConfig, overrides: dict[str, object]) -> TrainConfig:
    """``config`` with each key set in every config that has it (``seed`` sets both the
    training and the model-init seed). A value of the wrong kind is a ``ConfigError``."""
    over: dict[int, dict[str, object]] = defaultdict(dict)  # by id of the owning config
    for name, value in overrides.items():
        for owner in _owners(config, name):
            current = getattr(owner, name)
            if (isinstance(value, bool) and not isinstance(current, bool)  # an Integral, no number
                    or not isinstance(value, _kind(current)[1])):
                raise ConfigError(
                    f"sweep parameter {name!r} needs a {type(current).__name__}, got {value!r}")
            over[id(owner)][name] = value
    cfg = replace(config, **over[id(config)])
    return replace(cfg, loss=replace(cfg.loss, **over[id(config.loss)]),
                   model=replace(cfg.model, **over[id(config.model)]))


def cartesian_cells(grid: dict[str, Iterable]) -> list[dict[str, object]]:
    """Expand named value lists into override dicts, in deterministic order."""
    return [dict(zip(grid, combo)) for combo in product(*grid.values())]


def param_cells(base: TrainConfig, params: list[str] | None) -> list[dict[str, object]]:
    """The cells of ``--param name=v1,v2,...`` options, cast like the keys they name."""
    if not params:
        raise UsageError("--grid custom requires at least one --param")
    grid: dict[str, list] = {}
    for raw in params:
        name, _, values = raw.partition("=")
        if not values:
            raise UsageError(f"--param expects name=v1,v2,... got {raw!r}")
        current = getattr(_owners(base, name)[0], name)
        if isinstance(current, list):  # its values would split on the commas
            raise ConfigError(f"sweep parameter {name!r} is a list; --param cannot sweep it")
        cast = [_cast(name, current, v.strip()) for v in values.split(",")]
        if name in grid:
            raise UsageError(f"--param {name} given twice")
        grid[name] = cast
    return cartesian_cells(grid)


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
