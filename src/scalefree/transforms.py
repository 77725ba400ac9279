"""Column-wise preprocessing transforms: min-max, rank, and ARES.

ARES (average rank over an ensemble of sub-samples) replaces each value x by
the mean, over t independently drawn sub-samples of size psi, of the number
of sub-sample values strictly below x. The traditional rank transform is the
degenerate case psi = N, t = 1. All three transforms fit per column and apply
per column.

Rank counting uses the strictly-less rule everywhere (y < x). Summed over the
t sub-samples, the counts equal one strictly-below count in the pooled multiset
of all t * psi sampled values, an integer identity. So rank and ARES share one
exact path: a search in the sorted pool, divided once by t.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ColumnCountMismatch, EmptyColumn, EmptyDataset, NonFiniteValue
from .sampling import draw_subsample, subsample_seed

DEFAULT_SUBSAMPLE_SIZE = 7
DEFAULT_N_SUBSAMPLES = 10


def _as_column(values) -> np.ndarray:
    col = np.ascontiguousarray(values, dtype=np.float64)
    if col.ndim != 1:
        raise ValueError("expected a 1-D column of values")
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

    def transform(self, values):
        """Mean strictly-below count over the sub-samples, in [0, psi]."""
        return _apply(values, lambda arr: np.searchsorted(self.pool, arr, side="left") / self.t)

    def sample_collisions(self, values) -> np.ndarray:
        """Per query, how many sampled values equal it exactly. Order-reversing
        rescalings map the transform to (psi - value), off by collisions / t."""
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        lo = np.searchsorted(self.pool, arr, side="left")
        return np.searchsorted(self.pool, arr, side="right") - lo


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

    Every column holds the kind's parameter class; ARES columns share one
    psi, t and seed, which the transformer reports as its own. Immutable
    after fit; transform rejects matrices whose column count differs from
    fit time.
    """

    kind: str
    columns: list

    def __post_init__(self):
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

    if kind == "ares" and seed is None:
        raise ValueError("ares requires a seed")

    columns = []
    for c in range(x.shape[1]):
        col = np.ascontiguousarray(x[:, c])
        if kind == "minmax":
            columns.append(fit_minmax(col))
        elif kind == "rank":
            columns.append(fit_rank(col))
        else:
            columns.append(fit_ares(col, subsample_size, n_subsamples, seed=seed, column_index=c))
    return FittedTransformer(kind, columns)
