"""From-scratch deep learning for drilling rate-of-penetration prediction.

Five architectures (a recurrent baseline, a feedforward mixer, and
three recurrent/mixer hybrids up to a transformer-augmented fusion
model) built on a small reverse-mode autodiff core, with the full
tabular pipeline: imputation, scaling, windowing, AdamW training,
original-unit metrics, checkpoints, and model-agnostic attribution.
"""

from .data import (
    Dataset,
    DatasetSchema,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
)
from .errors import RopnetError
from .explain import local_surrogate, permutation_importance
from .layers import GradTape
from .metrics import MetricsReport, compute_metrics
from .models import MODEL_KINDS, Model, ModelSpec, build_model, parameter_count
from .preprocess import (
    PreparedData,
    PreprocessorState,
    fit_pipeline,
    inverse_target,
    transform,
)
from .tensor import SeededRng
from .train import (
    LossCurve,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetSchema",
    "GradTape",
    "LossCurve",
    "MODEL_KINDS",
    "MetricsReport",
    "Model",
    "ModelSpec",
    "PreparedData",
    "PreprocessorState",
    "RopnetError",
    "SeededRng",
    "SyntheticSpec",
    "TrainConfig",
    "build_model",
    "compute_metrics",
    "fit_pipeline",
    "generate_synthetic",
    "inverse_target",
    "load_checkpoint",
    "load_csv",
    "local_surrogate",
    "parameter_count",
    "permutation_importance",
    "save_checkpoint",
    "train_model",
    "transform",
    "write_csv",
    "__version__",
]
