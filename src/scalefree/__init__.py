"""Scale-robust data preprocessing and its evaluation harness.

Three column-wise transforms (min-max, rank, ares: average rank over an
ensemble of sub-samples), monotone scale perturbations that simulate
different units of measurement, and a KNN/LOF harness that demonstrates the
rank-based transforms' exact invariance to increasing changes of scale.
"""

from .data import Dataset, load_csv, save_csv
from .errors import ScaleFreeError
from .evaluate import (
    FoldAssignment,
    evaluation_grid,
    kfold_split,
    lof_neighbor_count,
    run_anomaly,
    run_classification,
)
from .metrics import accuracy, auc, average_ranks
from .model_io import load_model, save_model
from .neighbors import knn_classify, lof_scores
from .perturb import (
    PERTURBATION_KINDS,
    PerturbationSpec,
    apply_perturbation,
    perturb_matrix,
    rescale_unit,
    shift_scale,
)
from .report import EvaluationReport, write_report
from .sampling import derive_seed, subsample_indices, subsample_seed
from .transforms import (
    AresModel,
    FittedTransformer,
    MinMaxParams,
    RankModel,
    fit_ares,
    fit_minmax,
    fit_rank,
    fit_transformer,
)

__version__ = "0.1.0"

__all__ = [
    "AresModel",
    "Dataset",
    "EvaluationReport",
    "FittedTransformer",
    "FoldAssignment",
    "MinMaxParams",
    "PERTURBATION_KINDS",
    "PerturbationSpec",
    "RankModel",
    "ScaleFreeError",
    "accuracy",
    "apply_perturbation",
    "auc",
    "average_ranks",
    "derive_seed",
    "evaluation_grid",
    "fit_ares",
    "fit_minmax",
    "fit_rank",
    "fit_transformer",
    "kfold_split",
    "knn_classify",
    "load_csv",
    "load_model",
    "lof_neighbor_count",
    "lof_scores",
    "perturb_matrix",
    "rescale_unit",
    "run_anomaly",
    "run_classification",
    "save_csv",
    "save_model",
    "shift_scale",
    "subsample_indices",
    "subsample_seed",
    "write_report",
]
