"""osrkit: open-set recognition with reciprocal points on toy feature data.

Classifiers score samples against learnable reciprocal points (composite
Euclidean or angular form), train with margin and overconfidence hinges,
and are evaluated with closed-set accuracy, AUROC, and OSCR.
"""

from .config import TrainConfig
from .data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic
from .evaluate import EvalReport, auroc, evaluate, model_logits, oscr, roc_points
from .losses import (
    LossConfig,
    LossOutput,
    classification_loss,
    margin_loss,
    overconfidence_loss,
    total_loss,
)
from .model import (
    Embedder,
    ModelConfig,
    ReciprocalBank,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import Metric, grad_check
from .train import sweep, train

__all__ = [
    "EvalReport",
    "Embedder",
    "LabeledDataset",
    "LossConfig",
    "LossOutput",
    "Metric",
    "ModelConfig",
    "OpenSetSplit",
    "ReciprocalBank",
    "SplitSpec",
    "TrainConfig",
    "apply_split",
    "auroc",
    "classification_loss",
    "evaluate",
    "gen_synthetic",
    "grad_check",
    "init_model",
    "load_checkpoint",
    "margin_loss",
    "model_logits",
    "oscr",
    "overconfidence_loss",
    "roc_points",
    "save_checkpoint",
    "sweep",
    "total_loss",
    "train",
]

__version__ = "0.1.0"
