"""Distance-based learners used by the evaluation harness.

Both are deliberately deterministic: KNN breaks distance ties by lower
training-row index and vote ties by smallest label in sorted label order,
and LOF takes every row tied at the k-distance into the neighbourhood, so
repeated runs (and runs on bitwise-equal feature matrices) give identical
results.

The public functions, `knn_classify` and `lof_scores`, validate their input
once: they reject NaN and infinite features, whose distances have no order
to select neighbours by. The private helpers they call only compute, on
C-contiguous finite float64 arrays. KNN and LOF share one neighbour
primitive, `_k_nearest_with_ties`, which handles one block of queries at a
time in a distance buffer of at most `_BLOCK_BYTES`. Each squared distance
row is `((ref - q) ** 2).sum(axis=1)` for one query, and each per-row LOF
sum runs over a dense length-N row, so every output is bitwise independent
of the block size and equal to that of a full sort or a dense N x N pass.
"""

import numpy as np

from .errors import DimensionMismatch, KExceedsTrainSize, NonFiniteValue, TooFewRows

# byte budget of one (block rows, N) float64 buffer; a block holds >= 1 row
_BLOCK_BYTES = 2 << 20


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_cols))


def _k_nearest_with_ties(
    ref: np.ndarray, queries: np.ndarray, k: int, skip_self: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tie-inclusive k-neighbourhood of every query, in CSR form.

    Returns ``(indptr, indices, dist2, kth2)``. Query i's neighbours are the
    reference rows ``indices[indptr[i]:indptr[i + 1]]``, in ascending order,
    at squared distances ``dist2[indptr[i]:indptr[i + 1]]``: every row within
    ``kth2[i]``, the query's k-th smallest squared distance. Under ties there
    are more than k of them. With ``skip_self`` the queries are the reference
    rows themselves, and row i is left out of its own neighbourhood and k-th
    distance.
    """
    n_ref, n_q = ref.shape[0], queries.shape[0]
    rows = _block_rows(n_ref)
    buf = np.empty((min(rows, n_q), n_ref))
    diff = np.empty_like(ref)
    kth2 = np.empty(n_q)
    indptr = np.zeros(n_q + 1, dtype=np.int64)
    indices = [np.empty(0, dtype=np.int64)]
    dist2 = [np.empty(0)]
    for start in range(0, n_q, rows):
        stop = min(start + rows, n_q)
        block = buf[: stop - start]
        for j, q in enumerate(queries[start:stop]):
            row = block[j]
            # ((ref - q) ** 2).sum(axis=1) without allocating temporaries
            np.subtract(ref, q, out=diff)
            np.multiply(diff, diff, out=diff)
            diff.sum(axis=1, out=row)
            if skip_self:
                row[start + j] = np.inf
            kth2[start + j] = np.partition(row, k - 1)[k - 1]
        member = block <= kth2[start:stop, None]
        if skip_self:
            member[np.arange(stop - start), np.arange(start, stop)] = False
        indptr[start + 1 : stop + 1] = member.sum(axis=1)
        indices.append(np.nonzero(member)[1])
        dist2.append(block[member])
    np.cumsum(indptr, out=indptr)
    return indptr, np.concatenate(indices), np.concatenate(dist2), kth2


def _dense_row_sums(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, n_cols: int
) -> np.ndarray:
    """Row sums of a CSR matrix, each summed over its dense length-n_cols row.

    numpy sums a row pairwise, so where the zeros sit changes the rounding;
    scattering into dense rows reproduces a dense matrix's ``sum(axis=1)``.
    """
    n_rows = indptr.shape[0] - 1
    rows = _block_rows(n_cols)
    buf = np.zeros((min(rows, n_rows), n_cols))
    out = np.empty(n_rows)
    for start in range(0, n_rows, rows):
        stop = min(start + rows, n_rows)
        block = buf[: stop - start]
        lo, hi = indptr[start], indptr[stop]
        at = (
            np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1])),
            indices[lo:hi],
        )
        block[at] = values[lo:hi]
        block.sum(axis=1, out=out[start:stop])
        block[at] = 0.0
    return out


def _knn_predict(
    train_x: np.ndarray,
    train_codes: np.ndarray,
    test_x: np.ndarray,
    k: int,
    n_classes: int,
) -> np.ndarray:
    """Majority code among each query's k nearest training rows.

    Every strictly closer row votes; the places left go to the rows at the
    k-th distance, lowest index first, as a stable sort would pick them.
    Vote ties go to the smallest code.
    """
    indptr, indices, dist2, kth2 = _k_nearest_with_ties(train_x, test_x, k)
    n_q = test_x.shape[0]
    owner = np.repeat(np.arange(n_q), np.diff(indptr))
    at_kth = dist2 == kth2[owner]
    closer = np.bincount(owner[~at_kth], minlength=n_q)
    # position of each entry among its query's rows at the k-th distance
    tie_rank = np.cumsum(at_kth)
    tie_rank -= np.concatenate(([0], tie_rank))[indptr[:-1]][owner] + 1
    votes = ~at_kth | (tie_rank < (k - closer)[owner])
    tally = np.bincount(
        owner[votes] * n_classes + train_codes[indices[votes]],
        minlength=n_q * n_classes,
    )
    return tally.reshape(n_q, n_classes).argmax(axis=1)


def _lof_raw(x: np.ndarray, k: int) -> np.ndarray:
    """Local outlier factor of every row over tie-inclusive k-neighbourhoods."""
    n = x.shape[0]
    indptr, indices, dist2, kdist2 = _k_nearest_with_ties(x, x, k, skip_self=True)
    counts = np.diff(indptr)

    reach = np.sqrt(np.maximum(kdist2[indices], dist2))
    reach_sum = _dense_row_sums(indptr, indices, reach, n)
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0.0, counts / reach_sum, np.inf)

    lrd_sum = _dense_row_sums(indptr, indices, lrd[indices], n)
    # a point whose whole neighborhood sits at distance zero has infinite
    # density, and so do all of its neighbors: its outlier ratio is 1
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isinf(lrd), 1.0, lrd_sum / (counts * lrd))
    return scores


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
    pred_codes = _knn_predict(
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
    return _lof_raw(x, n_neighbors)
