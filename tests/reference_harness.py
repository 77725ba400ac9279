"""Reference task runners the evaluation harness is checked against.

`run_classification` and `run_anomaly` are the straight-line runners that
`scalefree.evaluate` replaced with one shared cell runner. Their steps are
kept as they were, with the learner-input choice (counts for rank and ARES,
the transform for min-max) inlined; they take the perturbation as given and
return every report field but `wall_time_ms` as a dict. So the harness tests
can require equal reports, field by field, which pins the per-fold fit seeds
and the rows each fold is fitted on.
"""

import numpy as np

from scalefree.evaluate import _binary_flags, kfold_split, lof_neighbor_count
from scalefree.metrics import accuracy, auc
from scalefree.neighbors import knn_classify, lof_scores
from scalefree.perturb import PerturbationSpec, perturb_matrix
from scalefree.sampling import cv_fit_seed, fold_seed
from scalefree.transforms import DEFAULT_N_SUBSAMPLES, DEFAULT_SUBSAMPLE_SIZE, fit_transformer


def run_classification(
    dataset,
    preprocessor,
    perturbation: PerturbationSpec,
    *,
    seed,
    knn_k=5,
    n_folds=10,
    subsample_size=DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples=DEFAULT_N_SUBSAMPLES,
) -> dict:
    features = perturb_matrix(dataset.features, perturbation)
    labels = dataset.labels
    folds = kfold_split(dataset.n_rows, n_folds, seed=fold_seed(seed))

    per_fold = []
    for f in range(n_folds):
        train_idx = np.flatnonzero(folds != f)
        test_idx = np.flatnonzero(folds == f)
        transformer = fit_transformer(
            features[train_idx],
            preprocessor,
            subsample_size=subsample_size,
            n_subsamples=n_subsamples,
            seed=cv_fit_seed(seed, f),
        )
        if transformer.kind == "minmax":
            neighbor = transformer.transform(features)
        else:
            neighbor = transformer.counts(features)
        predicted = knn_classify(neighbor[train_idx], labels[train_idx], neighbor[test_idx], knn_k)
        per_fold.append(accuracy(predicted, labels[test_idx]))

    return {
        "dataset": dataset.name,
        "preprocessor": preprocessor,
        "perturbation": perturbation.kind,
        "metric": "accuracy",
        "aggregate": float(np.mean(per_fold)),
        "seed": seed,
        "per_fold": per_fold,
    }


def run_anomaly(
    dataset,
    preprocessor,
    perturbation: PerturbationSpec,
    *,
    seed,
    subsample_size=DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples=DEFAULT_N_SUBSAMPLES,
) -> dict:
    flags = _binary_flags(dataset.labels)
    features = perturb_matrix(dataset.features, perturbation)
    transformer = fit_transformer(
        features,
        preprocessor,
        subsample_size=subsample_size,
        n_subsamples=n_subsamples,
        seed=seed,
    )
    if transformer.kind == "minmax":
        transformed = transformer.transform(features)
    else:
        transformed = transformer.counts(features)
    scores = lof_scores(transformed, lof_neighbor_count(dataset.n_rows))

    return {
        "dataset": dataset.name,
        "preprocessor": preprocessor,
        "perturbation": perturbation.kind,
        "metric": "auc",
        "aggregate": auc(scores, flags),
        "seed": seed,
        "per_fold": [],
    }
