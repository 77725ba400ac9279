"""Shared synthetic dataset builders and fixtures."""

import contextlib
from typing import NamedTuple

import numpy as np
import pytest

from scalefree import neighbors
from scalefree.data import Dataset
from scalefree.perturb import perturb_matrix
from scalefree.transforms import FittedTransformer, fit_transformer

from openblas import OPENBLAS_THREADS


class OneColumn(NamedTuple):
    """A transformer fitted on one column, queried with a 1-D array or a
    scalar, which maps to a float."""

    transformer: FittedTransformer

    @property
    def subsamples(self) -> np.ndarray:
        """Rank and ARES: the column's t sorted sub-samples, shape (t, psi)."""
        return self.transformer.params[0]

    def transform(self, values):
        q = np.asarray(values, dtype=np.float64)
        out = self.transformer.transform(q.reshape(1, 1) if q.ndim == 0 else q[..., None])
        return float(out[0, 0]) if q.ndim == 0 else out[:, 0]


def fit_column(values, kind, *args, **kwargs) -> OneColumn:
    """`fit_transformer` on one column as a one-column matrix, so anything
    but a 1-D column fails its 2-D check; ARES draws with column 0's seeds."""
    col = np.asarray(values, dtype=np.float64)
    return OneColumn(fit_transformer(col[..., None], kind, *args, **kwargs))


def perturb_column(values, spec) -> np.ndarray:
    """`perturb_matrix` on one column as a one-column matrix."""
    return perturb_matrix(np.asarray(values, dtype=np.float64)[..., None], spec)[:, 0]


def distinct_column(rng, n):
    """Distinct, well-separated values in random order."""
    return rng.permutation(np.cumsum(rng.uniform(0.01, 1.0, size=n)))


def ares_counts(n, m, seed):
    """The integer ARES counts (psi 7, t 10) of an n×m lognormal matrix."""
    raw = np.random.default_rng(seed).lognormal(size=(n, m))
    return fit_transformer(raw, "ares", subsample_size=7, n_subsamples=10, seed=seed).counts(raw)


@contextlib.contextmanager
def block_budget(n_bytes, min_rows=1):
    """Run the neighbour search with blocks of `n_bytes` and a floor of
    `min_rows` rows (1 lifts the 16-row floor); both are restored after."""
    saved = neighbors._BLOCK_BYTES, neighbors._MIN_BLOCK_ROWS
    neighbors._BLOCK_BYTES, neighbors._MIN_BLOCK_ROWS = n_bytes, min_rows
    try:
        yield
    finally:
        neighbors._BLOCK_BYTES, neighbors._MIN_BLOCK_ROWS = saved


def gaussian_classification(name, n_rows, n_features, n_classes, seed):
    """Class-conditional Gaussian blobs with per-feature scale variation.

    Features are stretched by random powers of ten so min-max scaling is
    doing real work, the way heterogeneous measurement units would.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=2.5, size=(n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n_rows)
    features = means[labels] + rng.normal(size=(n_rows, n_features))
    features *= 10.0 ** rng.uniform(-2.0, 3.0, size=n_features)
    return Dataset(name, features, labels=labels)


def cluster_with_outliers(name, n_rows, n_features, n_anomalies, seed):
    """Dense inlier cluster plus scattered anomalies, flagged 0/1."""
    rng = np.random.default_rng(seed)
    n_inliers = n_rows - n_anomalies
    inliers = rng.normal(size=(n_inliers, n_features))
    anomalies = rng.uniform(-6.0, 6.0, size=(n_anomalies, n_features))
    features = np.vstack([inliers, anomalies])
    features *= 10.0 ** rng.uniform(-2.0, 3.0, size=n_features)
    flags = np.concatenate([np.zeros(n_inliers, dtype=np.int64), np.ones(n_anomalies, dtype=np.int64)])
    order = rng.permutation(n_rows)
    return Dataset(name, features[order], labels=flags[order])


def minmax_sensitive_classification(seed=20240817):
    """Binary set whose min-max KNN accuracy drops sharply under squaring.

    One signal feature separates the classes near the low end of its range
    (squaring compresses that gap), four noise features live near the top
    (squaring inflates their spread), and a few mixed-label anchor rows pin
    the column maximum. Constants frozen after measuring the accuracy gap.
    """
    rng = np.random.default_rng(seed)
    n_per, n_anchor, n_noise = 110, 20, 4
    blocks, labels = [], []
    for cls, (lo, hi) in enumerate(((0.02, 0.14), (0.40, 0.52))):
        signal = rng.uniform(lo, hi, size=n_per)
        noise = rng.uniform(0.6, 1.0, size=(n_per, n_noise))
        blocks.append(np.column_stack([signal, noise]))
        labels.append(np.full(n_per, cls))
    signal = rng.uniform(0.95, 1.0, size=n_anchor)
    noise = rng.uniform(0.6, 1.0, size=(n_anchor, n_noise))
    blocks.append(np.column_stack([signal, noise]))
    labels.append(np.arange(n_anchor) % 2)
    return Dataset("sensitivity", np.vstack(blocks), labels=np.concatenate(labels))


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test after which numpy's OpenBLAS thread count differs from
    before it. The package never sets the count, and a test that sets it
    restores it; the count is reset so later tests start from it."""
    if OPENBLAS_THREADS is None:
        yield
        return
    get, put = OPENBLAS_THREADS
    before = get()
    yield
    after = get()
    if after != before:
        put(before)
        pytest.fail(f"OpenBLAS thread count changed from {before} to {after}")


@pytest.fixture
def glass_shaped():
    return gaussian_classification("glass_shaped", 214, 9, 6, seed=101)


@pytest.fixture
def diabetes_shaped():
    return gaussian_classification("diabetes_shaped", 768, 8, 2, seed=102)


@pytest.fixture
def heart_shaped():
    return gaussian_classification("heart_shaped", 303, 13, 2, seed=103)


@pytest.fixture
def ionosphere_shaped():
    return cluster_with_outliers("ionosphere_shaped", 351, 33, 126, seed=201)


@pytest.fixture
def breastw_shaped():
    return cluster_with_outliers("breastw_shaped", 683, 9, 239, seed=202)
