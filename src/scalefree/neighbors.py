"""Distance-based learners used by the evaluation harness.

Both are deliberately deterministic: KNN breaks distance ties by lower
training-row index and vote ties by smallest label in sorted label order,
and LOF takes every row tied at the k-distance into the neighbourhood, so
repeated runs (and runs on bitwise-equal feature matrices) give identical
results.

The public functions, `knn_classify` and `lof_scores`, first take their
neighbour count through `errors._as_count` (`operator.index`: TypeError for a
float), then pass their matrices to one check, `_as_features`, which raises
in order: ValueError for a matrix that is not 2-D, `DimensionMismatch` for
unequal column counts, `EmptyDataset` for no columns, then, from each
input's min and max, `NonFiniteValue` for NaN and infinite features, whose
distances have no order to select neighbours by, and `InexactDistances`
unless ``4·m·max|x|²``, for m columns, is below 2**53 for integer input and
finite for float input. That quantity bounds every Gram term and every
squared distance. Each then checks its own arguments, runs the one
neighbour search, `_k_nearest_with_ties`, and its own vote or LOF sums. The
private helpers only compute, on C-contiguous finite arrays. The search
handles one block of queries at a time in a float64 distance buffer of at
most `_BLOCK_BYTES`, allocated once and reused by every block: a fill
allocated per block, about 250 KB at grid sizes, ran perfbench's
`classify-grid` 1–17% slower in CPU time (9 of 9 pairs). The int32 copy
(half a fill) and the member mask (an eighth) are per-block temporaries;
reused buffers for them changed no end-to-end time (CHANGES.md). For every
dtype the search fills the block with one Gram pass, ``|r|² − 2·q·rᵀ`` in
float64, as one `np.matmul`: ``|r|²`` rides along as an extra row of the
reference, against a column of ones beside ``−2q``. ``|q|²`` is the same
along a query's row, so it changes no selection and is left out of the
fill. With ``skip_self`` a query's own entry is set above every fill:
INT32_MAX on an int32 copy, inf otherwise. One rule, `_first_k`, picks a
row's k nearest entries: by distance, then by lower index; a query with
exactly k entries keeps them all.

* Integer input (the rank and ARES counts) stays int64. Every product and
  partial sum of the Gram pass is an integer of magnitude at most
  ``3·m·max|x|²``, below ``4·m·max|x|²`` and so below 2**53: the fill is
  the exact integer ``|r|² − 2·q·r``, in any summation order and for any
  block size. ``|q|²`` goes back on the kept entries and the k-th value
  alone, exactly, which gives the exact distances. As
  ``|2·q·r| ≤ |q|² + |r|²``, a fill lies in ``[−|q|², 2·|r|² + |q|²]``. So
  when ``2·max|r|² + max|q|² < 2**31 − 1``, from the norms the fill holds,
  every fill is an integer of magnitude below INT32_MAX, and the k-th value
  and the members are taken from an int32 copy of the block, where
  `np.partition` runs about 2.5× and the comparison 2× as fast (a 16 × 2000
  block). The copy holds the same integers, so it selects the same entries;
  the kept distances are still read from the float64 fill. Each |x|² is at
  most m·max|x|², so default ARES counts (at most t·psi = 70) always
  qualify, and so do rank counts up to at least 6688 at m = 16; larger
  inputs may select on the float64 fill.
* Float input (min-max) uses the block only as a filter. With unit roundoff
  ``u = 2**-53``, ``γ_n = n·u/(1 − n·u)`` and ``s = |q| + max_r |r|``, every
  row's fill plus the exact ``|q|²`` differs from the reference distance
  ``((ref - q) ** 2).sum(axis=1)`` by at most
  ``ε_q = 2·γ_{2m+1}·s² + 1.5·m·2**-1074``: ``γ_{2m+1}·s²`` for the fill,
  whose ``|r|²`` term is itself a rounded sum of m squares that the product
  may add first, ``γ_{m+2}·s²`` for the reference sum, and half a subnormal
  step for each of the 3·m products that can underflow. The exact ``|q|²``
  is shared by the whole row, so a row the reference keeps lies within the
  k-th distance and its fill is at most ``2·ε_q`` above the block's k-th
  fill. The candidates are the rows within twice that, ``4·ε_q``. On them
  alone the search recomputes ``((ref[col] - q) ** 2).sum(axis=1)``; numpy
  sums each row on its own, so every refined value is bitwise the
  reference's, and the k-th distance and the neighbourhood are taken from
  the refined values. Every row has at least k candidates, its k smallest
  fills, so a block with exactly k candidates per row in all has exactly k
  in each row: they are all kept, and the largest is the k-th. Only a block
  with more, which takes float ties, sorts its candidates with `_first_k`.
  Integer input keeps its exact path: through the refine, perfbench's
  `anomaly-grid` ran about 1.5× slower.

The block product is one `np.matmul`, the package's only BLAS call. The
package never sets the BLAS thread count: the CLI starts numpy's OpenBLAS on
one thread unless OPENBLAS_NUM_THREADS is set (`scalefree.cli`), and a
library caller's count holds. Exactness does not depend on the BLAS kernel
or its thread count: integer partial sums are exact in any order, and the
float bound holds for any summation order, fused multiply-add included.

Each LOF sum is one `np.bincount` over the CSR entries, which adds a row's
neighbours one at a time, left to right in ascending index order: the
textbook sum over the neighbourhood. So every output is bitwise independent
of the block size, and the work after the search is O(N·k′), for k′ the
mean neighbourhood size.
"""

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InexactDistances,
    KExceedsTrainSize,
    NonFiniteValue,
    TooFewRows,
    _as_count,
)

# byte budget of one (block rows, N) float64 distance buffer: 256 KiB keeps a
# block in cache, 16 rows up to N = 2048. Past that a block still holds
# _MIN_BLOCK_ROWS rows, 128·N bytes, so each fill stays a matrix product, not
# one GEMV and one Python iteration per row.
_BLOCK_BYTES = 256 << 10
_MIN_BLOCK_ROWS = 16
_UNIT_ROUNDOFF = 2.0**-53
_INT32_MAX = 2**31 - 1


def _block_rows(n_cols: int) -> int:
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * n_cols))


def _distance_rows(ref: np.ndarray, queries: np.ndarray):
    """The Gram pass operands ``(q, ref_t, qn, slack)``: ``q[start:stop] @
    ref_t`` is ``|r|² − 2·q·rᵀ`` for ``queries[start:stop]`` against every
    reference row, and ``qn`` is each query's ``|q|²``, which it leaves out.
    ``slack`` is None for int64 input, whose fill is exact; for float64 input
    it is, per query, how far above the k-th filled value a row the reference
    would keep can lie (module docstring)."""
    n_ref, m = ref.shape
    ref_t = np.empty((m + 1, n_ref))
    ref_t[:m] = ref.T
    rn = np.einsum("ji,ji->i", ref_t[:m], ref_t[:m], out=ref_t[m])
    q = np.empty((queries.shape[0], m + 1))
    q[:, :m] = queries
    qn = np.einsum("ij,ij->i", q[:, :m], q[:, :m])
    q[:, :m] *= -2.0
    q[:, m] = 1.0
    if ref.dtype == np.int64:
        return q, ref_t, qn, None
    gamma = (2 * m + 1) * _UNIT_ROUNDOFF / (1 - (2 * m + 1) * _UNIT_ROUNDOFF)
    # per row, |fill + |q|² - reference| <= eps
    eps = 2 * gamma * (np.sqrt(qn) + np.sqrt(rn.max())) ** 2 + 1.5 * m * 2.0**-1074
    # a row kept and the k-th row can err in opposite directions; doubled for safety
    return q, ref_t, qn, 2 * (2 * eps)


def _refine(ref: np.ndarray, queries: np.ndarray, cols: np.ndarray, rows: np.ndarray):
    """``((ref[cols] - queries[rows]) ** 2).sum(axis=1)``, in chunks of
    `_block_rows` rows. numpy sums each row on its own, so every value is
    bitwise the reference kernels' squared distance for that pair."""
    out = np.empty(cols.shape[0])
    step = _block_rows(ref.shape[1])
    for lo in range(0, cols.shape[0], step):
        diff = ref[cols[lo : lo + step]]
        diff -= queries[rows[lo : lo + step]]
        diff *= diff
        diff.sum(axis=1, out=out[lo : lo + step])
    return out


def _first_k(values: np.ndarray, rows: np.ndarray, k: int, n_rows: int) -> np.ndarray:
    """Positions of each row's k smallest ``values``, (n_rows, k), by value and
    then by position (the sort is stable); ``rows`` ascends and holds every
    row in ``range(n_rows)`` at least k times."""
    order = np.lexsort((values, rows))
    first = np.searchsorted(rows, np.arange(n_rows))
    return order[first[:, None] + np.arange(k)]


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
    distance. ``ref`` and ``queries`` are both int64 or both float64.
    ``indices`` is int32 below 2**31 reference rows; integer fills select
    on int32 when their norms allow (module docstring).

    Each block's entries go straight into ``indices`` and ``dist2``, sized
    for k per query and grown in place (`ndarray.resize`, a realloc) to the
    mean so far when ties need more, then trimmed, so the CSR is never held
    twice.
    """
    n_ref, n_q = ref.shape[0], queries.shape[0]
    rows = _block_rows(n_ref)
    # reused by every block: a fill allocated per block cost classify-grid 9% CPU
    buf = np.empty((min(rows, n_q), n_ref))
    q, ref_t, qn, slack = _distance_rows(ref, queries)
    # a fill |r|² − 2·q·r lies in [−|q|², 2·|r|² + |q|²]: integer fills below
    # INT32_MAX, which a self entry gets, are selected on an int32 copy, and
    # everything else on the float64 block itself; no queries, no fills
    narrow = slack is None and 2 * ref_t[-1].max() + qn.max(initial=0) < _INT32_MAX
    beyond = _INT32_MAX if narrow else np.inf
    kth2 = np.empty(n_q)
    indptr = np.zeros(n_q + 1, dtype=np.int64)
    # every query keeps at least k rows
    indices = np.empty(n_q * k, dtype=np.int32 if n_ref < 2**31 else np.int64)
    dist2 = np.empty(n_q * k)
    end = 0
    for start in range(0, n_q, rows):
        stop = min(start + rows, n_q)
        block = buf[: stop - start]
        np.matmul(q[start:stop], ref_t, out=block)
        select = block.astype(np.int32) if narrow else block
        # with skip_self, row j of the block is query start + j: its own
        # entries sit at flat positions start + j * (n_ref + 1)
        if skip_self:
            select.reshape(-1)[start :: n_ref + 1] = beyond
        limit = np.partition(select, k - 1, axis=1)[:, k - 1 : k]
        kth = kth2[start:stop]
        kth[:] = limit[:, 0]
        if slack is not None:
            limit = limit + slack[start:stop, None]
        # a self entry is above every fill and every limit: never a member;
        # flat positions and divmod are faster than 2-D np.nonzero
        flat = np.flatnonzero(select <= limit)
        owner, cols = np.divmod(flat, n_ref)
        if slack is None:
            # exact integers: |q|² goes back on the kept entries alone
            dist = block.reshape(-1)[flat]
            dist += qn[owner + start]
            kth += qn[start:stop]
        else:
            dist = _refine(ref, queries, cols, owner + start)
            if dist.shape[0] == k * (stop - start):
                # every row has at least k candidates, so here exactly k:
                # all are kept, and the k-th is the largest
                np.max(dist.reshape(-1, k), axis=1, out=kth)
            else:
                kth[:] = dist[_first_k(dist, owner, k, stop - start)[:, -1]]
                keep = dist <= kth[owner]
                owner, cols, dist = owner[keep], cols[keep], dist[keep]
        indptr[start + 1 : stop + 1] = np.bincount(owner, minlength=stop - start)
        grown = end + cols.shape[0]
        if grown > indices.shape[0]:
            # extrapolate the mean neighbourhood so far over the rows left
            size = -(-grown * n_q // stop)
            indices.resize(size, refcheck=False)
            dist2.resize(size, refcheck=False)
        indices[end:grown] = cols
        dist2[end:grown] = dist
        end = grown
    indices.resize(end, refcheck=False)
    dist2.resize(end, refcheck=False)
    np.cumsum(indptr, out=indptr)
    return indptr, indices, dist2, kth2


def _as_features(*matrices) -> list[np.ndarray]:
    """The learners' one input check. It raises, in order, ValueError unless
    every matrix is 2-D, `DimensionMismatch` unless all share one column
    count (KNN passes train, then test) and `EmptyDataset` for no columns,
    then converts them, C-contiguous: int64 when every dtype is an integer
    one that int64 holds exactly, float64 otherwise. Last, from each input's
    min and max, `NonFiniteValue` for NaN or ±inf, then `InexactDistances`
    unless 4·m·max|x|² is below 2**53 for integers or finite for floats.
    Returns the arrays."""
    arrays = [np.asarray(x) for x in matrices]
    if any(a.ndim != 2 for a in arrays):
        raise ValueError("expected a 2-D feature matrix")
    m = arrays[0].shape[1]
    if any(a.shape[1] != m for a in arrays):
        widths = (a.shape[1] for a in arrays)
        raise DimensionMismatch("train has {} columns, test has {}".format(*widths))
    if m == 0:
        raise EmptyDataset("feature matrix has no columns")
    exact = all(np.can_cast(a.dtype, np.int64) for a in arrays)
    dtype = np.int64 if exact else np.float64
    arrays = [np.ascontiguousarray(a, dtype=dtype) for a in arrays]
    # Python ints and floats: no int64 wrap-around, and overflow gives inf;
    # NaN and ±inf reach the min or the max
    ends = [v for x in arrays if x.size for v in (-x.min().item(), x.max().item())]
    if not all(map(math.isfinite, ends)):
        raise NonFiniteValue("feature matrix contains NaN or infinite values")
    peak = max(ends, default=0)
    bound = 4 * m * peak * peak
    if exact:
        if bound >= 2**53:
            raise InexactDistances(
                f"integer features up to {peak} in {m} columns exceed the exact float64 "
                "range of squared distances (4·m·max|x|² must be below 2**53)"
            )
    elif not math.isfinite(bound):
        raise InexactDistances(
            f"float features up to {peak:g} in {m} columns overflow the float64 "
            "range of squared distances (4·m·max|x|² must be finite)"
        )
    return arrays


def knn_classify(train_x, train_y, test_x, k: int = 5):
    """Majority label among the k Euclidean-nearest training rows.

    Ties in distance go to the lower training-row index; ties in the vote go
    to the smallest label under the training labels' sorted order. Integer
    features take the exact integer distance path.
    """
    k = _as_count(k, "k")
    train_x, test_x = _as_features(train_x, test_x)
    train_y = np.asarray(train_y)
    if train_y.ndim != 1:
        raise ValueError(f"expected 1-D train labels, got shape {train_y.shape}")
    if train_y.shape[0] != train_x.shape[0]:
        raise ValueError("train labels length does not match train rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > train_x.shape[0]:
        raise KExceedsTrainSize(f"k={k} exceeds {train_x.shape[0]} training rows")

    # the voters are each query's first k rows by distance, then by lower
    # index (`_first_k`), or all of them when every query has exactly k;
    # a vote tie goes to the smallest code
    classes, codes = np.unique(train_y, return_inverse=True)
    indptr, indices, dist2, _ = _k_nearest_with_ties(train_x, test_x, k)
    n_q, n_classes = test_x.shape[0], len(classes)
    if indices.shape[0] > n_q * k:
        owner = np.repeat(np.arange(n_q), np.diff(indptr))
        indices = indices[_first_k(dist2, owner, k, n_q)]
    votes = codes.astype(np.int64)[indices.reshape(n_q, k)]
    votes += np.arange(n_q)[:, None] * n_classes
    tally = np.bincount(votes.ravel(), minlength=n_q * n_classes)
    return classes[tally.reshape(n_q, n_classes).argmax(axis=1)]


def lof_scores(x, n_neighbors: int) -> np.ndarray:
    """Local outlier factor of every row; larger means more anomalous.

    Standard construction: k-distance, reachability distance against the
    neighbor's k-distance, local reachability density, then the ratio of
    neighbor densities to own density. The neighborhood is every point
    within the k-distance, so it can exceed n_neighbors under ties.
    Integer features take the exact integer distance path.

    A row whose entire neighborhood lies at distance zero (duplicates) has
    infinite density, as do all its neighbors, and scores exactly 1.0.

    Memory is O(block * N + N * k'), with k' the mean neighborhood size. At
    the peak three N * k' arrays are held: the int32 neighbor indices and two
    8-byte ones, 20 bytes per neighborhood entry.
    """
    n_neighbors = _as_count(n_neighbors, "n_neighbors")
    (x,) = _as_features(x)
    if n_neighbors < 1:
        raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
    if x.shape[0] <= n_neighbors:
        raise TooFewRows(
            f"need more than n_neighbors={n_neighbors} rows, got {x.shape[0]}"
        )
    n = x.shape[0]
    indptr, indices, dist2, kdist2 = _k_nearest_with_ties(x, x, n_neighbors, True)
    counts = np.diff(indptr)

    # beside `indices`, two 8-byte N·k′ arrays at a time: `dist2` is freed
    # once the reachability distances exist, and those once summed
    reach = kdist2[indices]
    np.maximum(reach, dist2, out=reach)
    del dist2
    np.sqrt(reach, out=reach)
    # bincount adds each row's entries one at a time, in ascending index order
    owner = np.repeat(np.arange(n), counts)
    reach_sum = np.bincount(owner, weights=reach, minlength=n)
    del reach
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0.0, counts / reach_sum, np.inf)

    lrd_sum = np.bincount(owner, weights=lrd[indices], minlength=n)
    # a point whose whole neighborhood sits at distance zero has infinite
    # density, and so do all of its neighbors: its outlier ratio is 1
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(lrd), 1.0, lrd_sum / (counts * lrd))
