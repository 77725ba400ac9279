"""The float distance path against the reference kernels, bit for bit.

Float features (min-max) take the same Gram pass as integer counts, but in
float64 the Gram value ``|r|² − 2·q·rᵀ``, plus ``|q|²``, only approximates
the reference's ``((ref - q) ** 2).sum(axis=1)``. The search uses it as a
filter with a proven slack and recomputes the reference distance on the
candidates. So KNN predictions, LOF scores, k-th distances and
neighbourhoods must equal the reference kernels exactly, on data built to
break a slack that is too small: subnormal and overflow-edge scales, columns
whose scales differ by 450 orders of magnitude, ULP-adjacent near-ties, and
2-decimal grids jittered by 1e-16. The column counts cover each branch of
numpy's pairwise sum (below 8, one block of 8, unrolled blocks, and more
than 128 elements).
"""

import numpy as np
import pytest

from scalefree import neighbors
from scalefree.errors import InexactDistances, NonFiniteValue
from scalefree.neighbors import _k_nearest_with_ties, knn_classify, lof_scores

from conftest import block_budget
from reference_kernels import _lof_np, knn_reference

COLUMNS = (1, 7, 8, 9, 16, 17, 130)
KS = (1, 5, 17)


def _ulp_ties(rng, n, m):
    """Rows a few ULPs apart around one random point of random magnitude."""
    base = rng.normal(size=m) * 10.0 ** rng.uniform(-5.0, 100.0)
    return base + rng.integers(-3, 4, size=(n, m)) * np.spacing(np.abs(base))


def _jittered_grid(rng, n, m):
    grid = np.round(rng.uniform(size=(n, m)), 2)
    return grid + rng.choice([-1e-16, 0.0, 1e-16], size=(n, m))


KINDS = {
    # every square underflows to zero: all distances tie at 0
    "subnormal": lambda rng, n, m: rng.normal(size=(n, m)) * 1e-320,
    "tiny": lambda rng, n, m: rng.normal(size=(n, m)) * 1e-300,
    # products land among the subnormals and round there, in both passes
    "gradual-underflow": lambda rng, n, m: rng.integers(0, 16, size=(n, m)) * 2.0**-540,
    "huge": lambda rng, n, m: rng.normal(size=(n, m)) * 1e150,
    "mixed-scales": lambda rng, n, m: rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-300, 150, m),
    "ulp-ties": _ulp_ties,
    "jittered-grid": _jittered_grid,
}


def _features(kind, n, m):
    seed = [list(KINDS).index(kind), m, n]
    return KINDS[kind](np.random.default_rng(seed), n, m)


def _block_sizes(n_ref):
    """Three rows per block, and the module default."""
    return (3 * 8 * n_ref, neighbors._BLOCK_BYTES)


@pytest.mark.parametrize("m", COLUMNS)
@pytest.mark.parametrize("kind", KINDS)
def test_lof_and_neighbourhoods_equal_reference(kind, m):
    x = _features(kind, 70, m)
    ref_d2 = np.array([((x - q) ** 2).sum(axis=1) for q in x])
    np.fill_diagonal(ref_d2, np.inf)
    for k in KS:
        kth = np.partition(ref_d2, k - 1, axis=1)[:, k - 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            want = _lof_np(x, k)
        for n_bytes in _block_sizes(x.shape[0]):
            with block_budget(n_bytes):
                indptr, indices, dist2, kth2 = _k_nearest_with_ties(x, x, k, skip_self=True)
                assert kth2.tobytes() == kth.tobytes()
                for i in range(x.shape[0]):
                    members = np.flatnonzero(ref_d2[i] <= kth[i])
                    lo, hi = indptr[i], indptr[i + 1]
                    assert np.array_equal(indices[lo:hi], members)
                    assert dist2[lo:hi].tobytes() == ref_d2[i, members].tobytes()
                assert lof_scores(x, k).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", COLUMNS)
@pytest.mark.parametrize("kind", KINDS)
def test_knn_equals_reference(kind, m):
    x = _features(kind, 90, m)
    train, test = x[:60], x[60:]
    codes = np.random.default_rng(m).integers(0, 4, size=60)
    for k in KS:
        want = knn_reference(train, codes, test, k)
        for n_bytes in _block_sizes(train.shape[0]):
            with block_budget(n_bytes):
                assert np.array_equal(knn_classify(train, codes, test, k=k), want)


def test_gram_errors_near_the_bound():
    """Rows 1 and 2 both lie at reference distance 0 from row 0, but their
    Gram values round to 2 ULPs of 2**-1074 above and below it: a gap of 4
    against the proven bound of 6 for two columns. A slack of a quarter of
    the search's (3) loses row 1."""
    x = np.array(
        [
            [float.fromhex("0x1.77f4294643fbbp-537"), float.fromhex("0x1.40f820a3fc7adp-536")],
            [float.fromhex("0x1.b27b1aca54046p-538"), float.fromhex("0x1.e2877da46cd64p-537")],
            [float.fromhex("0x1.358277902c9fcp-537"), float.fromhex("0x1.2b513d76f116cp-536")],
        ]
    )
    indptr, indices, dist2, _ = _k_nearest_with_ties(x, x, 1, skip_self=True)
    assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _lof_np(x, 1)
    assert lof_scores(x, 1).tobytes() == want.tobytes()
    assert np.array_equal(knn_classify(x[1:], [0, 1], x[:1], k=1), [0])


class TestOverflowGuard:
    """Float features whose squared distances could overflow raise, instead
    of giving NaN scores or label-0 predictions."""

    x = np.random.default_rng(214).normal(size=(200, 16)) * 1e200

    def test_lof_raises(self):
        with pytest.raises(InexactDistances, match="must be finite"):
            lof_scores(self.x, 5)

    def test_knn_raises(self):
        labels = np.arange(150) % 3
        with pytest.raises(InexactDistances, match="must be finite"):
            knn_classify(self.x[:150], labels, self.x[150:], k=5)
        with pytest.raises(InexactDistances):
            knn_classify(self.x[:150] / 1e200, labels, self.x[150:], k=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_reported_before_the_bound(self, bad):
        """A NaN or ±inf next to features that also break the bound is
        reported as non-finite, in train or test, for both learners."""
        labels = np.arange(150) % 3
        for row in (3, 170):
            x = self.x.copy()
            x[row, 5] = bad
            with pytest.raises(NonFiniteValue):
                lof_scores(x, 5)
            with pytest.raises(NonFiniteValue):
                knn_classify(x[:150], labels, x[150:], k=5)

    def test_just_below_the_bound_is_searched(self):
        # 4 * 2 * peak**2 stays finite
        peak = np.sqrt(np.finfo(np.float64).max / 8) * (1 - 1e-15)
        x = np.array([[peak, 0.0], [-peak, 0.0], [0.0, peak], [0.0, 0.0]])
        with np.errstate(invalid="ignore", divide="ignore"):
            want = _lof_np(x, 1)
        assert lof_scores(x, 1).tobytes() == want.tobytes()
