"""Reference kernels the package's exact paths are checked against.

`ares_batch` is the paper-literal ARES: one strictly-below search per
sub-sample, averaged. The transforms search one pooled sort of all sampled
values instead, which must be bitwise equal to it; the acceptance suite also
times it. `rank_in_subsample` is the paper's rank of one value in one sorted
sub-sample, and `draw_subsample` the paper's draw of one sorted sub-sample;
the package fits and counts whole columns at once instead. `sample_collisions`
counts the sampled values equal to each query: the size of the strict rule's
defect under an order-reversing rescaling.

`_knn_predict_np` and `_lof_np` are the straightforward numpy kernels (one
full sort, or one dense N x N pass) that the blocked neighbour search in
`scalefree.neighbors` replaced, so the differential tests can require
bitwise-equal outputs from it. `_knn_predict_np` is kept verbatim, and
`knn_reference` runs it on any labels, coded in sorted order. `_lof_np`
keeps its dense distance pass and membership test, but sums each
neighbourhood left to right in ascending index order, the order of the
package's CSR sums, instead of over a dense row padded with zeros.

`_mix`, `derive_seed` and `subsample_indices` are the scalar splitmix64
stream and the set-based Floyd draw on Python ints that `scalefree.sampling`
replaced with one uint64 array pass over all seeds, kept verbatim so the
differential tests can require the same seeds and draws, lane by lane.
`permutation` is the fold permutation on the same scalar stream: the rows
sorted by their words, then by index.
"""

from functools import reduce
from operator import add

import numpy as np

from scalefree.errors import PsiNonPositive, PsiTooLarge

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64 finalizer: full-avalanche mix of a 64-bit word."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *components: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    Pure 64-bit integer arithmetic, so the expansion is identical on every
    platform and independent of any numpy RNG version.
    """
    s = base_seed & _MASK64
    for c in components:
        s = _mix(s ^ (int(c) & _MASK64))
    return s


def subsample_indices(n_rows: int, size: int, stream_seed: int) -> np.ndarray:
    """Pick `size` distinct row indices out of `n_rows`, uniformly.

    Uses Floyd's algorithm, O(size) expected, so drawing a small sub-sample
    never touches the full index range. Returns the indices sorted.

    Raises PsiNonPositive if size < 1 and PsiTooLarge if size > n_rows.
    """
    if size < 1:
        raise PsiNonPositive(f"sub-sample size must be >= 1, got {size}")
    if size > n_rows:
        raise PsiTooLarge(
            f"sub-sample size {size} exceeds column length {n_rows}"
        )
    chosen: set[int] = set()
    picks = []
    for k, i in enumerate(range(n_rows - size, n_rows)):
        # Draw k of the splitmix64 stream from stream_seed. The modulo bias
        # is < n / 2**64: irrelevant for n well under 2**32, and determinism
        # matters more here than the last bias bit.
        j = _mix((stream_seed + k * _GOLDEN) & _MASK64) % (i + 1)
        if j in chosen:
            j = i
        chosen.add(j)
        picks.append(j)
    out = np.array(picks, dtype=np.int64)
    out.sort()
    return out


def permutation(n: int, stream_seed: int) -> np.ndarray:
    """Rows 0..n-1 ordered by word i of the seed's splitmix64 stream, ties
    by lower row."""
    seed = stream_seed & _MASK64
    words = [_mix((seed + i * _GOLDEN) & _MASK64) for i in range(n)]
    return np.array(sorted(range(n), key=lambda i: (words[i], i)), dtype=np.int64)


def draw_subsample(values: np.ndarray, size: int, stream_seed: int) -> np.ndarray:
    """Draw one sub-sample of a column: distinct rows, values sorted ascending.

    Selection depends only on (len(values), size, stream_seed); the values
    stored at the selected rows play no part in which rows are picked.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.sort(values[subsample_indices(values.shape[0], size, stream_seed)])


def rank_in_subsample(sample, x: float) -> int:
    """Rank of x within one sorted sub-sample: |{y in sample : y < x}|.

    Lower-bound binary search; equals the piecewise position of x among the
    sorted values, and ranges over {0, ..., len(sample)}.
    """
    sample = np.ascontiguousarray(sample, dtype=np.float64)
    return int(np.searchsorted(sample, x, side="left"))


def sample_collisions(subsamples: np.ndarray, queries) -> np.ndarray:
    """Per query, how many sampled values equal it exactly. Order-reversing
    rescalings map the transform to (psi - value), off by collisions / t."""
    pool = np.sort(np.asarray(subsamples, dtype=np.float64), axis=None)
    queries = np.atleast_1d(np.asarray(queries, dtype=np.float64))
    return np.searchsorted(pool, queries, side="right") - np.searchsorted(pool, queries, side="left")


def ares_batch(subsamples: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Average, over sub-samples, of the strictly-below count of each query."""
    totals = np.zeros(queries.shape[0], dtype=np.int64)
    for row in subsamples:
        totals += np.searchsorted(row, queries, side="left")
    return totals / subsamples.shape[0]


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


def knn_reference(train, labels, test, k: int) -> np.ndarray:
    """`_knn_predict_np` on ``labels`` coded by their sorted order, so a vote
    tie goes to the smallest label, as in `knn_classify`."""
    classes, codes = np.unique(labels, return_inverse=True)
    return classes[_knn_predict_np(train, codes, test, k, len(classes))]


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
    # each neighbourhood summed left to right in ascending index order, the
    # literal Breunig sum (reduce, not sum: Python 3.12+ compensates float sums)
    reach_sum = np.array([reduce(add, reach[i, member[i]].tolist()) for i in range(n)])
    with np.errstate(divide="ignore"):
        lrd = np.where(reach_sum > 0.0, counts / reach_sum, np.inf)

    lrd_sum = np.array([reduce(add, lrd[member[i]].tolist()) for i in range(n)])
    # a point whose whole neighborhood sits at distance zero has infinite
    # density, and so do all of its neighbors: its outlier ratio is 1
    with np.errstate(invalid="ignore"):
        scores = np.where(np.isinf(lrd), 1.0, lrd_sum / (counts * lrd))
    return scores
