"""Blocked neighbour search against the full-sort and dense reference kernels.

KNN predictions must equal the stable-argsort reference exactly and LOF
scores must equal the dense N x N reference bit for bit, on continuous,
tied, ARES-grid and duplicate data, at sizes whose queries span several
blocks of the distance buffer.
"""

import math
import tracemalloc

import numpy as np
import pytest

from scalefree import neighbors
from scalefree.neighbors import _k_nearest_with_ties, knn_classify, lof_scores
from scalefree.transforms import fit_transformer

from conftest import ares_counts, block_budget
from reference_kernels import _lof_np, knn_reference

KINDS = ("continuous", "tied-integer", "ares-grid", "all-duplicate")


def _features(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-2.0, 3.0, size=m)
    if kind == "tied-integer":
        return rng.integers(0, 4, size=(n, m)).astype(float)
    if kind == "ares-grid":
        # ARES outputs are multiples of 1/t: many exact distance ties
        raw = rng.lognormal(size=(n, m))
        ft = fit_transformer(raw, "ares", subsample_size=7, n_subsamples=10, seed=seed)
        return ft.transform(raw)
    return np.tile(rng.normal(size=m), (n, 1))


def _assert_knn_matches(x, n_train, k, seed):
    labels = np.random.default_rng(seed).integers(0, 4, size=n_train)
    train, test = x[:n_train], x[n_train:]
    got = knn_classify(train, labels, test, k=k)
    assert np.array_equal(got, knn_reference(train, labels, test, k))


def _assert_lof_bitwise(x, k):
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _lof_np(x, k)
    got = lof_scores(x, k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kind", KINDS)
class TestKnnMatchesReference:
    def test_queries_span_several_blocks(self, kind):
        n_train, n_test = 1500, 600
        assert n_test > 2 * neighbors._block_rows(n_train)
        x = _features(kind, n_train + n_test, 6, seed=201)
        for k in (1, 5, 40):
            _assert_knn_matches(x, n_train, k, seed=202)

    def test_single_feature(self, kind):
        x = _features(kind, 400, 1, seed=203)
        for k in (1, 7):
            _assert_knn_matches(x, 300, k, seed=204)

    def test_k_equals_training_size(self, kind):
        x = _features(kind, 80, 3, seed=205)
        _assert_knn_matches(x, 60, 60, seed=206)


@pytest.mark.parametrize("kind", KINDS)
class TestLofMatchesReference:
    def test_rows_span_several_blocks(self, kind):
        n = 1200
        assert n > 2 * neighbors._block_rows(n)
        x = _features(kind, n, 6, seed=207)
        for k in (1, math.ceil(math.sqrt(n))):
            _assert_lof_bitwise(x, k)

    def test_single_feature(self, kind):
        x = _features(kind, 300, 1, seed=208)
        for k in (1, 18):
            _assert_lof_bitwise(x, k)

    def test_k_is_all_other_rows(self, kind):
        x = _features(kind, 90, 3, seed=209)
        _assert_lof_bitwise(x, 89)


def test_block_rows_floor():
    """16 rows per block at any N: the 256 KiB budget buys 16 rows at
    N = 2048 and fewer beyond, where one row per block made each fill a
    matrix-vector product."""
    assert neighbors._block_rows(1000) == 32
    assert neighbors._block_rows(2048) == 16
    assert neighbors._block_rows(20000) == neighbors._block_rows(10**6) == 16


# (byte budget, floor): one row per block, the floor, and the default budget
_BLOCKS = {1: (8, 1), 16: (8, 16), 109: (neighbors._BLOCK_BYTES, 16)}


@pytest.mark.parametrize("kind", ["integer", "tied", "float"])
def test_every_block_size_gives_the_same_bits(kind):
    """The search arrays, LOF scores and KNN predictions at N = 300 are
    bitwise equal for blocks of 1 row, of the 16-row floor, and of the
    default budget, 109 rows."""
    rng = np.random.default_rng(214)
    x = {
        "integer": ares_counts(300, 6, seed=214),
        "tied": rng.integers(0, 3, size=(300, 6)),
        "float": rng.lognormal(size=(300, 6)) * 10.0 ** rng.uniform(-2.0, 3.0, size=6),
    }[kind]
    labels = rng.integers(0, 4, size=200)
    seen = []
    for rows, (n_bytes, floor) in _BLOCKS.items():
        with block_budget(n_bytes, floor):
            assert neighbors._block_rows(300) == rows
            search = _k_nearest_with_ties(x, x, 18, skip_self=True)
            assert search[1].dtype == np.int32
            lof, knn = lof_scores(x, 18), knn_classify(x[:200], labels, x[200:], 5)
            seen.append([a.tobytes() for a in (*search, lof, knn)])
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize(
    "kind, n, seed",
    [("counts", 2000, 2000), ("floats", 2000, 210), ("floats", 3000, 210), ("counts", 3000, 213)],
)
def test_lof_peak_memory_in_neighbourhood_entries_and_blocks(kind, n, seed):
    """ARES counts (the exact integer path) and normal floats (the filter and
    refine), at the anomaly grid's N = 2000 and at 3000, with k = ceil(sqrt(N)):
    the traced peak stays within 20 bytes per neighbourhood entry plus three
    distance blocks, far below the dense kernel's N x N float64 arrays. At
    LOF's peak an entry holds an int32 index and two float64 values; the
    search holds 12 bytes per entry beside its block buffer, np.partition's
    copy and the Gram pass's copies of the input. On counts at N = 2000, a
    CSR gathered as a list of blocks and concatenated (3.8 MB), or grown by
    copying at 1.5× (3.4–3.6 MB), breaks the bound (2.57 MB; 2.25 MB now)."""
    k = math.ceil(math.sqrt(n))
    if kind == "counts":
        x = ares_counts(n, 16, seed=seed)
    else:
        x = np.random.default_rng(seed).normal(size=(n, 16))
    entries = int(_k_nearest_with_ties(x, x, k, skip_self=True)[0][-1])
    block = neighbors._block_rows(n) * n * 8
    bound = 20 * entries + 3 * block
    assert bound < n * n * 8 / 3

    tracemalloc.start()
    try:
        lof_scores(x, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "kind, n, seed",
    [("counts", 2000, 2000), ("floats", 2000, 210), ("floats", 3000, 210), ("counts", 3000, 213)],
)
def test_knn_peak_memory_in_neighbourhood_entries_and_blocks(kind, n, seed):
    """The same data kinds with 10% held out as queries and k = 5: the traced
    peak stays within 12 bytes per neighbourhood entry (an int32 index and a
    float64 distance), three distance blocks (the fill, the selection copy
    np.partition makes, and the int32 copy or the refine's rows) and the Gram
    operands, below half a dense n_test x n_train float64 array. At
    N = 2000 the peaks were 0.92 MiB on counts and 0.79 MiB on floats,
    against a bound of 1.01 MiB."""
    if kind == "counts":
        x = ares_counts(n, 16, seed=seed)
    else:
        x = np.random.default_rng(seed).normal(size=(n, 16))
    n_test = n // 10
    train, test = x[: n - n_test], x[n - n_test :]
    labels = np.random.default_rng(seed).integers(0, 3, size=train.shape[0])
    entries = int(_k_nearest_with_ties(train, test, 5)[0][-1])
    block = neighbors._block_rows(train.shape[0]) * train.shape[0] * 8
    gram = (train.shape[0] + n_test) * (x.shape[1] + 1) * 8
    bound = 12 * entries + 3 * block + gram
    assert bound < n_test * train.shape[0] * 8 / 2

    tracemalloc.start()
    try:
        knn_classify(train, labels, test, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"
