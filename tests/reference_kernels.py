"""Reference KNN and LOF kernels: one full sort or dense N x N pass each.

These are the straightforward numpy kernels the blocked neighbour search in
`scalefree._kernels` replaced, kept verbatim so the differential tests can
require bitwise-equal outputs from it.
"""

import numpy as np


def _knn_predict_np(
    train_x: np.ndarray,
    train_codes: np.ndarray,
    test_x: np.ndarray,
    k: int,
    n_classes: int,
) -> np.ndarray:
    preds = np.empty(test_x.shape[0], dtype=np.int64)
    for a in range(test_x.shape[0]):
        d2 = ((train_x - test_x[a]) ** 2).sum(axis=1)
        # stable sort keeps lower training-row index first among distance ties
        nearest = np.argsort(d2, kind="stable")[:k]
        votes = np.bincount(train_codes[nearest], minlength=n_classes)
        preds[a] = votes.argmax()  # first max = smallest label code
    return preds


def _lof_np(x: np.ndarray, k: int) -> np.ndarray:
    n = x.shape[0]
    d2 = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        d2[i] = ((x - x[i]) ** 2).sum(axis=1)
    np.fill_diagonal(d2, np.inf)

    kdist2 = np.partition(d2, k - 1, axis=1)[:, k - 1]
    # neighborhood of i: every other point within i's k-distance (ties included)
    member = d2 <= kdist2[:, None]
    counts = member.sum(axis=1)

    reach = np.sqrt(np.maximum(kdist2[None, :], d2))
    reach_sum = np.where(member, reach, 0.0).sum(axis=1)
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0.0, counts / reach_sum, np.inf)

    lrd_sum = np.where(member, lrd[None, :], 0.0).sum(axis=1)
    # a point whose whole neighborhood sits at distance zero has infinite
    # density, and so do all of its neighbors: its outlier ratio is 1
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isinf(lrd), 1.0, lrd_sum / (counts * lrd))
    return scores
