"""Scale-robust data preprocessing and its evaluation harness.

Three column-wise transforms (min-max, rank, ares: average rank over an
ensemble of sub-samples), monotone scale perturbations that simulate
different units of measurement, and a KNN/LOF harness that demonstrates the
rank-based transforms' exact invariance to increasing changes of scale.

The public names and the submodules resolve on first access (PEP 562), so
``import scalefree`` loads no numpy. That lets the CLI choose numpy's BLAS
thread count before numpy starts (see `scalefree.cli`).
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "Dataset": "data",
    "load_csv": "data",
    "save_csv": "data",
    "ScaleFreeError": "errors",
    "evaluation_grid": "evaluate",
    "kfold_split": "evaluate",
    "lof_neighbor_count": "evaluate",
    "run_anomaly": "evaluate",
    "run_classification": "evaluate",
    "accuracy": "metrics",
    "auc": "metrics",
    "average_ranks": "metrics",
    "load_model": "model_io",
    "save_model": "model_io",
    "knn_classify": "neighbors",
    "lof_scores": "neighbors",
    "PERTURBATION_KINDS": "perturb",
    "PerturbationSpec": "perturb",
    "perturb_matrix": "perturb",
    "EvaluationReport": "report",
    "write_report": "report",
    "derive_seed": "sampling",
    "subsample_indices": "sampling",
    "subsample_seed": "sampling",
    "FittedTransformer": "transforms",
    "fit_transformer": "transforms",
}
# every submodule defines a public name, except the command line
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule behind a public name or a submodule name on first
    access; any other name raises `AttributeError`."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
