"""Distance-based learners used by the evaluation harness.

Both are deliberately deterministic: KNN breaks distance ties by lower
training-row index and vote ties by smallest label in sorted label order,
and LOF takes every row tied at the k-distance into the neighbourhood, so
repeated runs (and runs on bitwise-equal feature matrices) give identical
results. Both reject NaN and infinite features, whose distances have no
order to select neighbours by.
"""

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, KExceedsTrainSize, NonFiniteValue, TooFewRows


def _require_finite(*matrices):
    for x in matrices:
        if not np.isfinite(x).all():
            raise NonFiniteValue("feature matrix contains NaN or infinite values")


def knn_classify(train_x, train_y, test_x, k: int = 5):
    """Majority label among the k Euclidean-nearest training rows.

    Ties in distance go to the lower training-row index; ties in the vote go
    to the smallest label under the training labels' sorted order.
    """
    train_x = np.ascontiguousarray(train_x, dtype=np.float64)
    test_x = np.ascontiguousarray(test_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    if train_x.ndim != 2 or test_x.ndim != 2:
        raise ValueError("expected 2-D feature matrices")
    if train_x.shape[1] != test_x.shape[1]:
        raise DimensionMismatch(
            f"train has {train_x.shape[1]} columns, test has {test_x.shape[1]}"
        )
    if train_y.shape[0] != train_x.shape[0]:
        raise ValueError("train labels length does not match train rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > train_x.shape[0]:
        raise KExceedsTrainSize(f"k={k} exceeds {train_x.shape[0]} training rows")
    _require_finite(train_x, test_x)

    classes, codes = np.unique(train_y, return_inverse=True)
    pred_codes = _kernels.knn_predict(
        train_x, codes.astype(np.int64), test_x, k, len(classes)
    )
    return classes[pred_codes]


def lof_scores(x, n_neighbors: int) -> np.ndarray:
    """Local outlier factor of every row; larger means more anomalous.

    Standard construction: k-distance, reachability distance against the
    neighbor's k-distance, local reachability density, then the ratio of
    neighbor densities to own density. The neighborhood is every point
    within the k-distance, so it can exceed n_neighbors under ties.

    A row whose entire neighborhood lies at distance zero (duplicates) has
    infinite density, as do all its neighbors, and scores exactly 1.0.

    Memory is O(block * N + N * k'), with k' the mean neighborhood size.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if n_neighbors < 1:
        raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
    if x.shape[0] <= n_neighbors:
        raise TooFewRows(
            f"need more than n_neighbors={n_neighbors} rows, got {x.shape[0]}"
        )
    _require_finite(x)
    return _kernels.lof_raw(x, n_neighbors)
