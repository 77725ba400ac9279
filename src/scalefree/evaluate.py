"""Replication harness: cross-validated KNN accuracy and whole-set LOF AUC.

Every run is one cell of the preprocessor x perturbation grid, and
`_run_cell` holds the steps all cells share:

* `perturb_matrix` rescales every feature column of the full dataset first
  (it simulates how the data were measured, not a modelling step);
* the task's scoring step calls the cell's `fit_maps` with the rows and
  seed of each fit, and gets, fit by fit, every row mapped to what the
  learners see. Rank and ARES map to their integer counts (the transform
  times t), whose squared distances are exact; every column is sorted once
  per cell, and each fit's counts are a cumulative sum of its per-row
  sample weights in that order (`transforms._in_sample_counter`). Min-max
  maps through `fit_transformer` and `transform`, as floats;
* `_run_cell` times these steps and builds the `EvaluationReport`.

Only the scoring differs. `run_classification` splits the rows into k random
folds, fits on the training folds only, predicts each held-out fold by KNN
and reports the mean fold accuracy. `run_anomaly` fits on all rows
(unsupervised), scores every row by LOF with n_neighbors = ceil(sqrt(N)) and
reports the AUC of the scores against the binary flags.

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
    _in_sample_counter,
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


def _run_cell(dataset, preprocessor, perturbation, metric, score, *, seed, **fit_kwargs):
    """One grid cell; `score(fit_maps)` returns the aggregate and the per-fold
    list. Each row maps on its own, so fitting on some rows and mapping all
    equals mapping each subset. The common factor t between counts and
    transform changes neither KNN order nor LOF ratios."""
    if seed is None:
        raise ValueError(f"{preprocessor} requires a seed")
    spec = perturbation if perturbation is not None else PerturbationSpec("identity")
    start = time.perf_counter()
    features = perturb_matrix(dataset.features, spec)

    def fit_maps(fits):
        """Per (rows, fit_seed) of `fits` in turn, the fit on those rows
        mapping every row. The column sort lives only while this generator
        runs, so a caller that drains it frees the sort before its learner.
        An empty matrix goes through `fit_transformer`, which names what is
        missing."""
        if preprocessor in ("rank", "ares") and features.size:
            counts = _in_sample_counter(features)
            for rows, fit_seed in fits:
                yield counts(preprocessor, rows, seed=fit_seed, **fit_kwargs)
            return
        for rows, fit_seed in fits:
            transformer = fit_transformer(features[rows], preprocessor, seed=fit_seed, **fit_kwargs)
            yield transformer.transform(features)

    aggregate, per_fold = score(fit_maps)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    return EvaluationReport(
        dataset=dataset.name,
        preprocessor=preprocessor,
        perturbation=spec.kind,
        metric=metric,
        aggregate=aggregate,
        wall_time_ms=elapsed_ms,
        seed=seed,
        per_fold=per_fold,
    )


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
    labels = dataset.labels
    if labels is None:
        raise MissingLabelColumn("classification needs a dataset with labels")

    def score(fit_maps):
        folds = kfold_split(dataset.n_rows, n_folds, seed=fold_seed(seed))
        trains = [folds.train_indices(f) for f in range(n_folds)]
        mapped = fit_maps((rows, cv_fit_seed(seed, f)) for f, rows in enumerate(trains))
        per_fold = []
        for f, neighbor in enumerate(mapped):
            train_idx, test_idx = trains[f], folds.test_indices(f)
            train, test = neighbor[train_idx], neighbor[test_idx]
            predicted = knn_classify(train, labels[train_idx], test, knn_k)
            per_fold.append(accuracy(predicted, labels[test_idx]))
        return float(np.mean(per_fold)), per_fold

    return _run_cell(
        dataset, preprocessor, perturbation, "accuracy", score,
        seed=seed, subsample_size=subsample_size, n_subsamples=n_subsamples,
    )  # fmt: skip


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

    def score(fit_maps):
        (neighbor,) = fit_maps([(slice(None), seed)])
        scores = lof_scores(neighbor, lof_neighbor_count(dataset.n_rows))
        return auc(scores, flags), []

    return _run_cell(
        dataset, preprocessor, perturbation, "auc", score,
        seed=seed, subsample_size=subsample_size, n_subsamples=n_subsamples,
    )  # fmt: skip


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
