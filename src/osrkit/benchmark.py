"""The standard synthetic open-set benchmark.

``DataConfig``'s default data: six Gaussian classes in 8 dims (separation 5,
overlap 1.0, 200 samples per class, hard similarity mode), split 4 known /
2 unknown. The tuned training recipe was fixed by a gap-threshold sweep on
seeds 0-4: embedding dims [8, 32, 8], 60 epochs of the desk preset, gap
threshold 0.25. Tests and the README both lean on these constants. One run is
``train(benchmark_split(seed), benchmark_config(variant, seed))``, then ``evaluate``.
"""

from __future__ import annotations

from .config import VARIANTS, DataConfig, TrainConfig, build_split, named, with_keys
from .data import OpenSetSplit
from .model import ModelConfig

_DATA = DataConfig()
NUM_CLASSES, DIM = _DATA.num_classes, _DATA.dim
SEPARATION, OVERLAP = _DATA.separation, _DATA.overlap
KNOWN_CLASSES, UNKNOWN_CLASSES = _DATA.known_classes, _DATA.unknown_classes
LAYER_DIMS = [8, 32, 8]
EPOCHS = 60
TUNED_GAP_THRESHOLD = 0.25


def benchmark_split(seed: int) -> OpenSetSplit:
    return build_split(DataConfig(seed=seed))


def benchmark_config(variant: str, seed: int) -> TrainConfig:
    return with_keys(TrainConfig(ModelConfig(list(LAYER_DIMS))), {
        **named(VARIANTS, "variant", variant), "gap_threshold": TUNED_GAP_THRESHOLD,
        "epochs": EPOCHS, "seed": seed})

