"""Column-wise preprocessing transforms: min-max, rank, and ARES.

ARES (average rank over an ensemble of sub-samples) replaces each value x by
the mean, over t independently drawn sub-samples of size psi, of the number
of sub-sample values strictly below x. The traditional rank transform is the
degenerate case psi = N, t = 1. All three transforms fit per column and apply
per column.

Rank counting uses the strictly-less rule everywhere (y < x). Summed over the
t sub-samples, the counts equal one strictly-below count in the pooled multiset
of all t * psi sampled values, an integer identity. It has two access
patterns, both exact and bitwise equal:

* a fitted model searches its sorted pool, for any queries (`_CountBelow`);
* for the rows of one matrix, the pool is a per-row sample weight (how often
  the draws took the row; 1 per fitted row for rank), and a row's count is
  the cumulative weight below it in the column's sorted order
  (`_in_sample_counter`, one sort per matrix for any number of fits).

Both draw ARES sub-samples through `_ares_draw`.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ColumnCountMismatch, EmptyColumn, EmptyDataset, NonFiniteValue
from .sampling import subsample_indices, subsample_seed

DEFAULT_SUBSAMPLE_SIZE = 7
DEFAULT_N_SUBSAMPLES = 10


def _as_column(values) -> np.ndarray:
    col = np.asarray(values, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("expected a 1-D column of values")
    col = np.ascontiguousarray(col)
    if col.shape[0] == 0:
        raise EmptyColumn("cannot fit a transform on an empty column")
    if not np.isfinite(col).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    return col


def _apply(values, batch_fn):
    """Run a batch kernel over an array, or over a scalar returning float."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim > 1:
        raise ValueError("expected a scalar or 1-D array of query values")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("query values contain NaN or infinite values")
    if arr.ndim == 0:
        return float(batch_fn(arr.reshape(1))[0])
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
        return _apply(values, self._unit)

    def _unit(self, arr: np.ndarray) -> np.ndarray:
        """The map of `transform` on a finite 1-D float64 array, unchecked."""
        if self.max == self.min:
            return np.zeros_like(arr)
        with np.errstate(over="ignore"):
            span = self.max - self.min
            shifted = arr - self.min
        if np.isfinite(span) and np.isfinite(shifted).all():
            return shifted / span
        # A difference with min overflows only when min and the other
        # operand both have magnitudes of at least 2**970. Halving is
        # then exact, but for a subnormal, which is negligible next to
        # min either way.
        return (arr / 2 - self.min / 2) / (self.max / 2 - self.min / 2)


class _CountBelow:
    """Mean strictly-below count over t sorted sub-samples of one column.

    ``pool`` holds all t * psi sampled values, sorted; rank is t = 1, psi = N."""

    def _set_pool(self, subsamples: np.ndarray) -> np.ndarray:
        """Validate t sorted sub-samples (one per row) and pool them."""
        subs = np.ascontiguousarray(subsamples, dtype=np.float64)
        if subs.ndim != 2 or subs.size == 0:
            raise ValueError("need a 2-D array of at least one nonempty sub-sample")
        if not np.isfinite(subs).all():
            raise ValueError("model parameters must be finite")
        if np.any(subs[:, 1:] < subs[:, :-1]):
            raise ValueError("every sub-sample must be sorted nondecreasing")
        t = subs.shape[0]
        object.__setattr__(self, "pool", subs[0] if t == 1 else np.sort(subs, axis=None))
        object.__setattr__(self, "t", t)
        return subs

    def counts(self, arr: np.ndarray) -> np.ndarray:
        """Summed strictly-below count over the sub-samples, as int64, of a
        finite 1-D float64 array, unchecked."""
        return np.searchsorted(self.pool, arr, side="left")

    def transform(self, values):
        """Mean strictly-below count over the sub-samples, in [0, psi]."""
        return _apply(values, lambda arr: self.counts(arr) / self.t)

    def sample_collisions(self, values) -> np.ndarray:
        """Per query, how many sampled values equal it exactly, as an array
        also for a scalar; queries are checked as by `transform`. Order-reversing
        rescalings map the transform to (psi - value), off by collisions / t."""
        return _apply(
            np.atleast_1d(values),
            lambda arr: np.searchsorted(self.pool, arr, side="right") - self.counts(arr),
        )


@dataclass(frozen=True, eq=False)
class RankModel(_CountBelow):
    """All N training values of one column, sorted ascending."""

    sorted_train: np.ndarray

    def __post_init__(self):
        if np.ndim(self.sorted_train) != 1:
            raise ValueError("sorted_train must be a 1-D array")
        (sorted_train,) = self._set_pool(np.reshape(self.sorted_train, (1, -1)))
        object.__setattr__(self, "sorted_train", sorted_train)


@dataclass(frozen=True, eq=False)
class AresModel(_CountBelow):
    """Ensemble of sorted sub-samples of one column.

    subsamples has shape (n_subsamples, subsample_size); each row is one
    sub-sample, sorted ascending. seed is the base seed the draws derived
    from, kept for provenance and serialization.
    """

    subsamples: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "subsamples", self._set_pool(self.subsamples))

    @property
    def n_subsamples(self) -> int:
        return self.subsamples.shape[0]

    @property
    def subsample_size(self) -> int:
        return self.subsamples.shape[1]


# The parameter class of each transformer kind; one per column.
_PARAMS = {"minmax": MinMaxParams, "rank": RankModel, "ares": AresModel}
KINDS = tuple(_PARAMS)


def _ares_draw(n_rows: int, psi: int, t: int, seed: int, column_index) -> np.ndarray:
    """The row indices ARES draws, shape (m, t, psi): draw j of column c takes
    the seed of column column_index[c] (an (m, 1) array, or an int for one
    column), and all m·t draws are one `subsample_indices` call. A missing
    seed raises as `fit_transformer` does, a t below 1 as an empty
    sub-sample array does; a negative psi acts as 0."""
    if seed is None:
        raise ValueError("ares requires a seed")
    if t < 1:
        raise ValueError("need a 2-D array of at least one nonempty sub-sample")
    seeds = subsample_seed(seed, column_index, np.arange(t)).reshape(-1, t)
    return subsample_indices(n_rows, max(psi, 0), seeds)


def _fit_rows(kind: str, xt, psi: int = 0, t: int = 0, seed: int = 0, column_index=0) -> list:
    """The parameters of each finite row of `xt`, one column per row; ARES
    draws as `_ares_draw` with column_index."""
    if kind == "minmax":
        return list(map(MinMaxParams, xt.min(axis=1).tolist(), xt.max(axis=1).tolist()))
    if kind == "rank":
        return [RankModel(sorted_train=row) for row in np.sort(xt, axis=1)]
    if not len(xt):
        return []
    idx = _ares_draw(xt.shape[1], psi, t, seed, column_index)
    subs = np.take_along_axis(xt[:, None, :], idx, axis=2)
    subs.sort()
    return [AresModel(subsamples=s, seed=seed) for s in subs]


def _in_sample_counter(x: np.ndarray):
    """Rank and ARES counts of every row of a finite N×m matrix, for fits on
    any of its rows, from one sort of each column.

    A fit weights each row by how often it was sampled: rank by 1 per fitted
    row, ARES by how many of a column's t draws took it. A row's count is
    then the summed weight of the rows strictly below it, one cumulative sum
    read at the row's group start in sorted order. The returned
    `counts(kind, rows, psi, t, seed)` equals
    `fit_transformer(x[rows], kind, psi, t, seed=seed).counts(x)` bitwise
    and raises as it does for a bad psi, t or seed."""
    n, m = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1)
    ranked = np.take_along_axis(xt, order, axis=1)
    # The first sorted position of each value; != keeps -0.0 with 0.0.
    starts = np.zeros((m, n), dtype=np.intp)
    starts[:, 1:] = np.where(ranked[:, 1:] != ranked[:, :-1], np.arange(1, n), 0)
    np.maximum.accumulate(starts, axis=1, out=starts)
    below = np.empty_like(order)
    np.put_along_axis(below, order, starts, axis=1)
    # Flat positions, so that each fit does two 1-D takes: column c's weights
    # are w[c·n:(c + 1)·n] and its cumulative sums cum[c·(n + 1):(c + 1)·(n + 1)].
    order += n * np.arange(m)[:, None]
    below = np.ascontiguousarray(below.T + (n + 1) * np.arange(m))  # row r, column c

    def counts(kind, rows, subsample_size, n_subsamples, seed):
        rows = np.arange(n)[rows]
        if kind == "rank":
            weights = np.tile(np.bincount(rows, minlength=n), m)
        else:
            idx = _ares_draw(len(rows), subsample_size, n_subsamples, seed, np.arange(m)[:, None])
            taken = rows[idx] + n * np.arange(m)[:, None, None]
            weights = np.bincount(taken.ravel(), minlength=n * m)
        cum = np.zeros((m, n + 1), dtype=np.int64)
        np.cumsum(weights.take(order), axis=1, out=cum[:, 1:])
        return cum.take(below)

    return counts


def fit_minmax(values) -> MinMaxParams:
    return _fit_rows("minmax", _as_column(values)[None])[0]


def fit_rank(values) -> RankModel:
    return _fit_rows("rank", _as_column(values)[None])[0]


def fit_ares(
    values,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
    *,
    seed: int,
    column_index: int = 0,
) -> AresModel:
    """Draw and sort n_subsamples sub-samples of subsample_size rows each.
    Sub-sample j draws rows by index, without replacement, with the stream
    seed derived from (seed, column_index, j)."""
    col = _as_column(values)[None]
    return _fit_rows("ares", col, subsample_size, n_subsamples, seed, column_index)[0]


@dataclass(frozen=True, eq=False)
class FittedTransformer:
    """One fitted parameter object per feature column, plus the kind tag.

    Every column holds the kind's parameter class; ARES columns share one
    psi, t and seed, which the transformer reports as its own. Immutable
    after fit, with the columns held as a tuple; transform rejects matrices
    whose column count differs from fit time.
    """

    kind: str
    columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.kind not in KINDS:
            raise ValueError(f"unknown transformer kind {self.kind!r}; expected one of {KINDS}")
        if not self.columns:
            raise ValueError("a fitted transformer needs at least one column")
        cls = _PARAMS[self.kind]
        if not all(isinstance(params, cls) for params in self.columns):
            raise ValueError(f"{self.kind} columns must all be {cls.__name__}")
        if self.kind == "ares":
            if len({(p.subsample_size, p.n_subsamples, p.seed) for p in self.columns}) > 1:
                raise ValueError("ares columns disagree on psi, t or seed")

    @property
    def n_features(self) -> int:
        return len(self.columns)

    @property
    def subsample_size(self) -> int | None:
        """The ARES columns' psi; None for other kinds."""
        return getattr(self.columns[0], "subsample_size", None)

    @property
    def n_subsamples(self) -> int | None:
        """The ARES columns' t; None for other kinds."""
        return getattr(self.columns[0], "n_subsamples", None)

    @property
    def seed(self) -> int | None:
        """The ARES columns' base seed; None for other kinds."""
        return getattr(self.columns[0], "seed", None)

    def _per_column(self, features, kernel, dtype) -> np.ndarray:
        """Validate a feature matrix once, then run an unchecked per-column
        kernel on each of its columns."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        if x.shape[1] != self.n_features:
            raise ColumnCountMismatch(
                f"transformer was fit on {self.n_features} columns, got {x.shape[1]}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteValue("query values contain NaN or infinite values")
        out = np.empty(x.shape, dtype=dtype)
        for c, params in enumerate(self.columns):
            out[:, c] = kernel(params, np.ascontiguousarray(x[:, c]))
        return out

    def counts(self, features: np.ndarray) -> np.ndarray:
        """Rank and ARES: per column, the strictly-below count summed over the
        t sub-samples, as an int64 matrix. `transform` is this divided by t."""
        if self.kind == "minmax":
            raise ValueError("min-max has no integer counts; use transform")
        return self._per_column(features, _CountBelow.counts, np.int64)

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.kind == "minmax":
            return self._per_column(features, MinMaxParams._unit, np.float64)
        return self.counts(features) / self.columns[0].t

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
    if kind == "ares" and seed is None:
        raise ValueError("ares requires a seed")
    if not np.isfinite(x).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    xt = np.ascontiguousarray(x.T)  # per column, the same values a 1-D fit sees
    params = _fit_rows(kind, xt, subsample_size, n_subsamples, seed, np.arange(len(xt))[:, None])
    return FittedTransformer(kind, params)
