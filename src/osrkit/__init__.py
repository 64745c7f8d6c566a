"""osrkit: open-set recognition with reciprocal points on toy feature data.

Classifiers score samples against learnable reciprocal points (composite
Euclidean or angular form), train with margin and overconfidence hinges,
and are evaluated with closed-set accuracy, AUROC, and OSCR.
"""

from .data import LabeledDataset, OpenSetSplit, SplitSpec, apply_split, gen_synthetic, group_folds
from .evaluate import EvalReport, auroc, evaluate, openset_score, oscr, predict_closed
from .losses import (
    LossConfig,
    LossOutput,
    classification_logits,
    classification_loss,
    margin_loss,
    overconfidence_loss,
    total_loss,
)
from .model import (
    Embedder,
    ModelConfig,
    ReciprocalBank,
    embed_backward,
    embed_forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import Metric, grad_check, pairwise_scores
from .train import TrainConfig, TrainHistory, desk_preset, paper_preset, sweep, train, variant_loss

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
    "TrainHistory",
    "apply_split",
    "auroc",
    "classification_logits",
    "classification_loss",
    "desk_preset",
    "embed_backward",
    "embed_forward",
    "evaluate",
    "gen_synthetic",
    "grad_check",
    "group_folds",
    "init_model",
    "load_checkpoint",
    "margin_loss",
    "openset_score",
    "oscr",
    "overconfidence_loss",
    "pairwise_scores",
    "paper_preset",
    "predict_closed",
    "save_checkpoint",
    "sweep",
    "total_loss",
    "train",
    "variant_loss",
]

__version__ = "0.1.0"
