"""Column-wise preprocessing transforms: min-max, rank, and ARES.

ARES (average rank over an ensemble of sub-samples) replaces each value x by
the mean, over t independently drawn sub-samples of size psi, of the number
of sub-sample values strictly below x. The traditional rank transform is the
degenerate case psi = N, t = 1. All three transforms fit per column and apply
per column.

Rank counting uses the strictly-less rule everywhere (the count of training
values y with y < x), so rank and ARES share one tie semantics and the
degenerate-ensemble equivalence is exact. Per-query rank sums are integers
summed exactly and divided once, which makes outputs bitwise reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import Dataset
from .errors import ColumnCountMismatch, EmptyColumn, EmptyDataset, NonFiniteValue
from .sampling import draw_subsample, subsample_seed

DEFAULT_SUBSAMPLE_SIZE = 7
DEFAULT_N_SUBSAMPLES = 10

KINDS = ("minmax", "rank", "ares")


def _as_column(values, *, check_finite: bool = True) -> np.ndarray:
    col = np.ascontiguousarray(values, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("expected a 1-D column of values")
    if col.shape[0] == 0:
        raise EmptyColumn("cannot fit a transform on an empty column")
    if check_finite and not np.isfinite(col).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    return col


def _apply(values, batch_fn):
    """Run a batch kernel over an array, or over a scalar returning float."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return float(batch_fn(arr.reshape(1))[0])
    if arr.ndim != 1:
        raise ValueError("expected a scalar or 1-D array of query values")
    return batch_fn(np.ascontiguousarray(arr))


@dataclass(frozen=True)
class MinMaxParams:
    """Training minimum and maximum of one column."""

    min: float
    max: float

    def __post_init__(self):
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise ValueError("min/max must be finite")
        if self.min > self.max:
            raise ValueError(f"min {self.min} exceeds max {self.max}")

    def transform(self, values):
        """Affine map to [0,1] on training data; out-of-range values are NOT
        clamped, and a constant training column maps everything to 0.0."""

        def batch(arr):
            if self.max == self.min:
                return np.zeros_like(arr)
            return (arr - self.min) / (self.max - self.min)

        return _apply(values, batch)


@dataclass(frozen=True, eq=False)
class RankModel:
    """All N training values of one column, sorted ascending."""

    sorted_train: np.ndarray

    def __post_init__(self):
        st = np.ascontiguousarray(self.sorted_train, dtype=np.float64)
        if st.ndim != 1 or st.shape[0] == 0:
            raise ValueError("sorted_train must be a nonempty 1-D array")
        if np.any(np.diff(st) < 0):
            raise ValueError("sorted_train must be nondecreasing")
        object.__setattr__(self, "sorted_train", st)

    @property
    def n_train(self) -> int:
        return self.sorted_train.shape[0]

    def transform(self, values):
        """Count of training values strictly below each query, in [0, N]."""
        return _apply(values, lambda arr: _kernels.rank_batch(self.sorted_train, arr))


@dataclass(frozen=True, eq=False)
class AresModel:
    """Ensemble of sorted sub-samples of one column.

    subsamples has shape (n_subsamples, subsample_size); each row is one
    sub-sample, sorted ascending. seed is the base seed the draws derived
    from, kept for provenance and serialization.
    """

    subsamples: np.ndarray
    seed: int

    def __post_init__(self):
        subs = np.ascontiguousarray(self.subsamples, dtype=np.float64)
        if subs.ndim != 2 or subs.shape[0] == 0 or subs.shape[1] == 0:
            raise ValueError("subsamples must be a nonempty 2-D array")
        if np.any(np.diff(subs, axis=1) < 0):
            raise ValueError("every sub-sample must be sorted nondecreasing")
        object.__setattr__(self, "subsamples", subs)

    @property
    def n_subsamples(self) -> int:
        return self.subsamples.shape[0]

    @property
    def subsample_size(self) -> int:
        return self.subsamples.shape[1]

    def transform(self, values):
        """Average strictly-below rank across sub-samples, in [0, subsample_size]."""
        return _apply(values, lambda arr: _kernels.ares_batch(self.subsamples, arr))

    def sample_collisions(self, values) -> np.ndarray:
        """Per query, how many sampled values equal it exactly (over all
        sub-samples). Order-reversing rescalings flip the transform to
        (subsample_size - value) exactly for collision-free queries and
        deviate by collisions/n_subsamples otherwise."""
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        pool = np.sort(self.subsamples.ravel())
        lo = np.searchsorted(pool, arr, side="left")
        hi = np.searchsorted(pool, arr, side="right")
        return (hi - lo).astype(np.int64)


def fit_minmax(values) -> MinMaxParams:
    col = _as_column(values)
    return MinMaxParams(min=float(col.min()), max=float(col.max()))


def fit_rank(values) -> RankModel:
    col = _as_column(values)
    return RankModel(sorted_train=np.sort(col))


def fit_ares(
    values,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
    *,
    seed: int,
    column_index: int = 0,
) -> AresModel:
    """Draw and sort n_subsamples sub-samples of subsample_size rows each.

    Sub-sample j uses the stream seed derived from (seed, column_index, j);
    rows are selected by index, without replacement within a sub-sample, and
    independently across sub-samples. Cost is O(t * psi log psi) for t
    sub-samples of size psi, independent of the column length.
    """
    col = _as_column(values)
    if n_subsamples < 1:
        raise ValueError(f"n_subsamples must be >= 1, got {n_subsamples}")
    subs = np.empty((n_subsamples, subsample_size), dtype=np.float64)
    for j in range(n_subsamples):
        subs[j] = draw_subsample(col, subsample_size, subsample_seed(seed, column_index, j))
    return AresModel(subsamples=subs, seed=seed)


def rank_in_subsample(sample, x: float) -> int:
    """Rank of x within one sorted sub-sample: |{y in sample : y < x}|.

    Lower-bound binary search; equals the piecewise position of x among the
    sorted values, and ranges over {0, ..., len(sample)}.
    """
    sample = np.ascontiguousarray(sample, dtype=np.float64)
    return int(np.searchsorted(sample, x, side="left"))


@dataclass(eq=False)
class FittedTransformer:
    """One fitted parameter object per feature column, plus the kind tag.

    Immutable after fit; transform rejects matrices whose column count
    differs from fit time.
    """

    kind: str
    columns: list
    subsample_size: int | None = None
    n_subsamples: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transformer kind {self.kind!r}")
        if not self.columns:
            raise ValueError("a fitted transformer needs at least one column")

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def transform(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        if x.shape[1] != self.n_features:
            raise ColumnCountMismatch(
                f"transformer was fit on {self.n_features} columns, got {x.shape[1]}"
            )
        out = np.empty_like(x)
        for c, params in enumerate(self.columns):
            out[:, c] = params.transform(np.ascontiguousarray(x[:, c]))
        return out

    def transform_dataset(self, dataset: Dataset) -> Dataset:
        """Transform the feature matrix; labels pass through untouched."""
        return dataset.with_features(self.transform(dataset.features))


def fit_transformer(
    features: np.ndarray,
    kind: str,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
    seed: int | None = None,
) -> FittedTransformer:
    """Fit the chosen transform independently on every column of a matrix."""
    if kind not in KINDS:
        raise ValueError(f"unknown transformer kind {kind!r}; expected one of {KINDS}")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[0] == 0:
        raise EmptyDataset("cannot fit on a dataset with no rows")
    if not np.isfinite(x).all():
        raise NonFiniteValue("feature matrix contains NaN or infinite values")

    columns = []
    for c in range(x.shape[1]):
        col = np.ascontiguousarray(x[:, c])
        if kind == "minmax":
            columns.append(fit_minmax(col))
        elif kind == "rank":
            columns.append(fit_rank(col))
        else:
            if seed is None:
                raise ValueError("ares requires a seed")
            columns.append(
                fit_ares(
                    col,
                    subsample_size=subsample_size,
                    n_subsamples=n_subsamples,
                    seed=seed,
                    column_index=c,
                )
            )
    if kind == "ares":
        return FittedTransformer(
            kind=kind,
            columns=columns,
            subsample_size=subsample_size,
            n_subsamples=n_subsamples,
            seed=seed,
        )
    return FittedTransformer(kind=kind, columns=columns)
