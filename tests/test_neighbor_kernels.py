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

from scalefree import _kernels
from scalefree.neighbors import knn_classify, lof_scores
from scalefree.transforms import fit_transformer

from reference_kernels import _knn_predict_np, _lof_np

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


def _knn_reference(train, labels, test, k):
    classes, codes = np.unique(labels, return_inverse=True)
    return classes[_knn_predict_np(train, codes, test, k, len(classes))]


def _assert_knn_matches(x, n_train, k, seed):
    labels = np.random.default_rng(seed).integers(0, 4, size=n_train)
    train, test = x[:n_train], x[n_train:]
    got = knn_classify(train, labels, test, k=k)
    assert np.array_equal(got, _knn_reference(train, labels, test, k))


def _assert_lof_bitwise(x, k):
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _lof_np(x, k)
    got = lof_scores(x, k)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("kind", KINDS)
class TestKnnMatchesReference:
    def test_queries_span_several_blocks(self, kind):
        n_train, n_test = 1500, 600
        assert n_test > 2 * _kernels._block_rows(n_train)
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
        assert n > 2 * _kernels._block_rows(n)
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


def test_lof_peak_memory_is_linear_in_n_times_k():
    """LOF holds a few block buffers plus O(N*k) neighbourhood entries, far
    below the dense kernel's several N x N float64 arrays."""
    n = 3000
    k = math.ceil(math.sqrt(n))
    x = np.random.default_rng(210).normal(size=(n, 16))
    bound = 4 * _kernels._BLOCK_BYTES + 64 * n * k
    assert bound < n * n * 8 / 3

    tracemalloc.start()
    try:
        lof_scores(x, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
