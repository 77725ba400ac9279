"""Hot numeric kernels: batch rank queries, KNN voting, LOF scoring.

Rank sums are accumulated as int64 and divided once, so rank and average-rank
outputs are exact.

KNN and LOF share one neighbour primitive, `k_nearest_with_ties`, which
handles one block of queries at a time in a distance buffer of at most
`_BLOCK_BYTES`. Each squared distance row is `((ref - q) ** 2).sum(axis=1)`
for one query, and each per-row LOF sum runs over a dense length-N row, so
every output is bitwise independent of the block size and equal to that of
a full sort or a dense N x N pass.

All kernels expect C-contiguous float64 arrays; validation happens in the
calling modules.
"""

import numpy as np

# byte budget of one (block rows, N) float64 buffer; a block holds >= 1 row
_BLOCK_BYTES = 2 << 20


def _block_rows(n_cols: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_cols))


def rank_batch(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Count of values strictly below each query (lower-bound search)."""
    return np.searchsorted(sorted_values, queries, side="left").astype(np.float64)


def ares_batch(subsamples: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Average, over sub-samples, of the strictly-below count of each query."""
    totals = np.zeros(queries.shape[0], dtype=np.int64)
    for row in subsamples:
        totals += np.searchsorted(row, queries, side="left")
    return totals / subsamples.shape[0]


def k_nearest_with_ties(
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


def knn_predict(
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
    indptr, indices, dist2, kth2 = k_nearest_with_ties(train_x, test_x, k)
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


def lof_raw(x: np.ndarray, k: int) -> np.ndarray:
    """Local outlier factor of every row over tie-inclusive k-neighbourhoods."""
    n = x.shape[0]
    indptr, indices, dist2, kdist2 = k_nearest_with_ties(x, x, k, skip_self=True)
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
