"""Replication harness: cross-validated KNN accuracy and whole-set LOF AUC.

Protocol per run:

* the perturbation is applied to every feature column of the full dataset
  first (it simulates how the data were measured, not a modelling step);
* classification: rows split into k random folds, the preprocessor is fit on
  the training folds only, KNN predicts the held-out fold, reported number
  is the mean fold accuracy;
* anomaly detection: the preprocessor is fit on all rows (unsupervised), LOF
  scores every row with n_neighbors = ceil(sqrt(N)), reported number is the
  AUC of the scores against the binary flags.

All randomness (fold permutation, per-fold sub-sample draws) expands from
the single seed via the derivations in `sampling`.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import MissingLabelColumn, NonBinaryLabels, TooFewRows
from .metrics import accuracy, auc
from .neighbors import knn_classify, lof_scores
from .perturb import (
    DEFAULT_SCALE,
    DEFAULT_SHIFT,
    PERTURBATION_KINDS,
    PerturbationSpec,
    perturb_matrix,
)
from .report import EvaluationReport
from .sampling import cv_fit_seed, fold_seed
from .transforms import (
    DEFAULT_N_SUBSAMPLES,
    DEFAULT_SUBSAMPLE_SIZE,
    KINDS,
    fit_transformer,
)

DEFAULT_FOLDS = 10
DEFAULT_KNN_K = 5

TASKS = ("classify", "anomaly")


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Fold index of every row, for a k-fold split with near-equal sizes."""

    fold_of_row: np.ndarray
    n_folds: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)


def kfold_split(n: int, k: int = DEFAULT_FOLDS, seed: int = 0) -> FoldAssignment:
    """Randomly partition n rows into k folds whose sizes differ by at most 1."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if n < k:
        raise TooFewRows(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of_row = np.empty(n, dtype=np.int64)
    for f, part in enumerate(np.array_split(perm, k)):
        fold_of_row[part] = f
    return FoldAssignment(fold_of_row=fold_of_row, n_folds=k)


def run_classification(
    dataset: Dataset,
    preprocessor: str,
    perturbation: PerturbationSpec | None = None,
    *,
    seed: int,
    knn_k: int = DEFAULT_KNN_K,
    n_folds: int = DEFAULT_FOLDS,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
) -> EvaluationReport:
    """10-fold cross-validated KNN accuracy under one preprocessing setup."""
    if dataset.labels is None:
        raise MissingLabelColumn("classification needs a dataset with labels")
    spec = perturbation if perturbation is not None else PerturbationSpec("identity")

    start = time.perf_counter()
    features = perturb_matrix(dataset.features, spec)
    labels = dataset.labels
    folds = kfold_split(dataset.n_rows, n_folds, seed=fold_seed(seed))

    per_fold = []
    for f in range(n_folds):
        train_idx = folds.train_indices(f)
        test_idx = folds.test_indices(f)
        transformer = fit_transformer(
            features[train_idx],
            preprocessor,
            subsample_size=subsample_size,
            n_subsamples=n_subsamples,
            seed=cv_fit_seed(seed, f),
        )
        train_t = transformer.transform(features[train_idx])
        test_t = transformer.transform(features[test_idx])
        predicted = knn_classify(train_t, labels[train_idx], test_t, k=knn_k)
        per_fold.append(accuracy(predicted, labels[test_idx]))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return EvaluationReport(
        dataset=dataset.name,
        preprocessor=preprocessor,
        perturbation=spec.kind,
        metric="accuracy",
        aggregate=float(np.mean(per_fold)),
        wall_time_ms=elapsed_ms,
        seed=seed,
        per_fold=per_fold,
    )


def _binary_flags(labels) -> np.ndarray:
    try:
        values = np.asarray(labels, dtype=np.float64)
    except ValueError:
        raise NonBinaryLabels(
            "anomaly labels must be numeric 0/1 flags"
        ) from None
    if not np.isin(values, (0.0, 1.0)).all():
        raise NonBinaryLabels(
            f"anomaly labels must be 0/1 flags, got values {sorted(set(values))[:8]}"
        )
    return values.astype(bool)


def lof_neighbor_count(n_rows: int) -> int:
    """ceil(sqrt(N)), computed in exact integer arithmetic."""
    k = math.isqrt(n_rows)
    return k if k * k == n_rows else k + 1


def run_anomaly(
    dataset: Dataset,
    preprocessor: str,
    perturbation: PerturbationSpec | None = None,
    *,
    seed: int,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
) -> EvaluationReport:
    """Whole-set LOF AUC under one preprocessing setup (no folds)."""
    if dataset.labels is None:
        raise MissingLabelColumn("anomaly evaluation needs a dataset with 0/1 labels")
    flags = _binary_flags(dataset.labels)
    spec = perturbation if perturbation is not None else PerturbationSpec("identity")

    start = time.perf_counter()
    features = perturb_matrix(dataset.features, spec)
    transformer = fit_transformer(
        features,
        preprocessor,
        subsample_size=subsample_size,
        n_subsamples=n_subsamples,
        seed=seed,
    )
    transformed = transformer.transform(features)
    scores = lof_scores(transformed, lof_neighbor_count(dataset.n_rows))
    value = auc(scores, flags)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return EvaluationReport(
        dataset=dataset.name,
        preprocessor=preprocessor,
        perturbation=spec.kind,
        metric="auc",
        aggregate=value,
        wall_time_ms=elapsed_ms,
        seed=seed,
        per_fold=[],
    )


def evaluation_grid(
    dataset: Dataset,
    task: str,
    preprocessors=KINDS,
    perturbations=PERTURBATION_KINDS,
    *,
    seed: int,
    shift: float = DEFAULT_SHIFT,
    scale: float = DEFAULT_SCALE,
    **task_kwargs,
) -> list[EvaluationReport]:
    """Sweep preprocessor x perturbation combinations for one dataset."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    runner = run_classification if task == "classify" else run_anomaly
    reports = []
    for preproc in preprocessors:
        for kind in perturbations:
            spec = PerturbationSpec(kind, shift=shift, scale=scale)
            reports.append(runner(dataset, preproc, spec, seed=seed, **task_kwargs))
    return reports
