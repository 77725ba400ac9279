"""Column-wise preprocessing transforms: min-max, rank, and ARES.

ARES (average rank over an ensemble of sub-samples) replaces each value x by
the mean, over t independently drawn sub-samples of size psi, of the number
of sub-sample values strictly below x. The traditional rank transform is the
degenerate case psi = N, t = 1, and a fitted rank model is that ensemble. All
three transforms fit each column on its own, and a fitted transformer holds
one parameter array for all its columns: each column's min and max, or its
t sorted sub-samples of psi values (`FittedTransformer`).

Rank counting uses the strictly-less rule everywhere (y < x). Summed over the
t sub-samples, the counts equal one strictly-below count in the pooled multiset
of all t * psi sampled values, an integer identity. It has two access
patterns, both exact and bitwise equal:

* a fitted model searches each column's sorted pool, for any queries
  (`FittedTransformer.counts`);
* for the rows of one matrix, the pool is a per-row sample weight (how often
  the draws took the row; 1 per fitted row for rank), and a row's count is
  the cumulative weight below it in the column's sorted order
  (`_in_sample_counter`, one sort per matrix for any number of fits).

Both take the strict count from numpy's left binary search (the in-sample
path searches each sorted column in itself) and draw ARES sub-samples
through `_ares_draw`. Each path stays, as the other does its job slower:
fitted models made `evaluate`'s in-process `classify-grid` about 1.7× slower,
and the in-sample sort a one-row `counts` call about 300× slower.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ColumnCountMismatch, EmptyDataset, NonFiniteValue
from .sampling import subsample_indices, subsample_seed

DEFAULT_SUBSAMPLE_SIZE = 7
DEFAULT_N_SUBSAMPLES = 10

KINDS = ("minmax", "rank", "ares")


def _unit(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The affine map of each column of a finite N×m float64 matrix from
    [lo, hi] onto [0, 1], unchecked and unclamped; a constant column (lo ==
    hi) maps to zeros. Each column decides its own overflow fallback, so a
    column maps as it would alone."""
    const = lo == hi
    with np.errstate(over="ignore"):
        span = hi - lo
        out = x - lo
    direct = np.isfinite(span) & np.isfinite(out).all(axis=0)
    np.divide(out, span, out=out, where=direct & ~const)
    # A difference with lo overflows only when lo and the other operand both
    # have magnitudes of at least 2**970. Halving is then exact, but for a
    # subnormal, which is negligible next to lo either way.
    halve = ~(direct | const)
    if halve.any():
        lo, hi = lo[halve], hi[halve]
        out[:, halve] = (x[:, halve] / 2 - lo / 2) / (hi / 2 - lo / 2)
    out[:, const] = 0.0
    return out


def _check_matrix(features, verb: str) -> np.ndarray:
    """A feature matrix as float64, checked to be 2-D, nonempty and finite;
    `verb` names the caller's action in the `EmptyDataset` message."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.size == 0:
        raise EmptyDataset(f"cannot {verb} a feature matrix of shape {x.shape}, which is empty")
    if not np.isfinite(x).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    return x


def _ares_draw(n_rows: int, psi: int, t: int, seed: int, m: int) -> np.ndarray:
    """The row indices ARES draws for m columns, shape (m, t, psi): draw j of
    column c takes the seed (seed, c, j), and all m·t draws are one
    `subsample_indices` call. Both access patterns check an ARES fit's seed
    and t here alone; a negative t or psi acts as 0."""
    if seed is None:
        raise ValueError("ares requires a seed")
    if t < 1:
        raise ValueError(f"sub-sample count t must be >= 1, got {max(t, 0)}")
    seeds = subsample_seed(seed, np.arange(m)[:, None], np.arange(t))
    return subsample_indices(n_rows, max(psi, 0), seeds)


def _in_sample_counter(x: np.ndarray):
    """Rank and ARES counts of every row of a finite N×m matrix, for fits on
    any of its rows, from one sort of each column.

    A fit weights each row by how often it was sampled: rank by 1 per fitted
    row, ARES by how many of a column's t draws took it. A row's count is
    then the summed weight of the rows strictly below it, one cumulative sum
    read at the row's group start in sorted order, which a left search of
    the sorted column finds, as the model path searches its pool. The returned
    `counts(kind, rows, psi, t, seed)` equals
    `fit_transformer(x[rows], kind, psi, t, seed=seed).counts(x)` bitwise
    and raises as it does for a bad psi, t or seed."""
    n, m = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1)
    ranked = np.take_along_axis(xt, order, axis=1)
    below = np.empty_like(order)
    for c in range(m):  # numpy's search is 1-D
        below[c, order[c]] = np.searchsorted(ranked[c], ranked[c], side="left")
    # Flat positions, so that each fit does two 1-D takes: column c's weights
    # are w[c·n:(c + 1)·n] and its cumulative sums cum[c·(n + 1):(c + 1)·(n + 1)].
    order += n * np.arange(m)[:, None]
    below = np.ascontiguousarray(below.T + (n + 1) * np.arange(m))  # row r, column c

    def counts(kind, rows, subsample_size, n_subsamples, seed):
        rows = np.arange(n)[rows]
        if kind == "rank":
            weights = np.tile(np.bincount(rows, minlength=n), m)
        else:
            idx = _ares_draw(len(rows), subsample_size, n_subsamples, seed, m)
            taken = rows[idx] + n * np.arange(m)[:, None, None]
            weights = np.bincount(taken.ravel(), minlength=n * m)
        cum = np.zeros((m, n + 1), dtype=np.int64)
        np.cumsum(weights.take(order), axis=1, out=cum[:, 1:])
        return cum.take(below)

    return counts


@dataclass(frozen=True, eq=False)
class FittedTransformer:
    """A transform fitted on m feature columns: the kind tag, one read-only
    float64 parameter array, and the base seed of the ARES draws.

    `params` has shape (m, 2) for min-max, each column's min and max, and
    (m, t, psi) for rank and ARES, each column's t sorted sub-samples; rank
    is the ensemble t = 1, psi = N. `seed` is set for ARES only. Immutable;
    transform rejects matrices whose column count differs from fit time.
    """

    kind: str
    params: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transformer kind {self.kind!r}; expected one of {KINDS}")
        params = np.array(self.params, dtype=np.float64)
        if params.shape[:1] == (0,):
            raise ValueError("a fitted transformer needs at least one column")
        if self.kind == "minmax":
            if params.ndim != 2 or params.shape[1] != 2:
                raise ValueError("min-max parameters must have shape (m, 2)")
        elif params.ndim != 3:
            raise ValueError(f"{self.kind} parameters must have shape (m, t, psi)")
        elif 0 in params.shape:
            _, t, psi = params.shape
            raise ValueError(f"{self.kind} parameters need t >= 1, psi >= 1; got t={t}, psi={psi}")
        elif self.kind == "rank" and params.shape[1] != 1:
            raise ValueError("rank parameters must hold one sub-sample per column")
        if not np.isfinite(params).all():
            raise ValueError("model parameters must be finite")
        # a min-max column's (min, max) is a sorted pair, like a sub-sample
        if np.any(params[..., 1:] < params[..., :-1]):
            raise ValueError("a column's min exceeds its max, or a sub-sample is unsorted")
        if self.kind != "ares" and self.seed is not None:
            raise ValueError(f"{self.kind} takes no seed")
        if self.kind == "ares":
            if self.seed is None:
                raise ValueError("ares requires a seed")
            # an int, so that a numpy integer seed saves as a JSON number
            object.__setattr__(self, "seed", operator.index(self.seed))
        params.flags.writeable = False
        object.__setattr__(self, "params", params)
        if self.kind != "minmax":
            # Summed over the t sub-samples, the counts are one search of
            # the pooled t·psi sampled values of each column.
            m, t = params.shape[:2]
            pool = params[:, 0] if t == 1 else np.sort(params.reshape(m, -1), axis=1)
            object.__setattr__(self, "_pool", pool)

    @property
    def n_features(self) -> int:
        return len(self.params)

    @property
    def subsample_size(self) -> int | None:
        """The ARES psi; None for other kinds."""
        return self.params.shape[2] if self.kind == "ares" else None

    @property
    def n_subsamples(self) -> int | None:
        """The ARES t; None for other kinds."""
        return self.params.shape[1] if self.kind == "ares" else None

    def _checked(self, features) -> np.ndarray:
        """A feature matrix as float64, validated once for every column."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        if x.shape[1] != self.n_features:
            raise ColumnCountMismatch(
                f"transformer was fit on {self.n_features} columns, got {x.shape[1]}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteValue("query values contain NaN or infinite values")
        return x

    def counts(self, features: np.ndarray) -> np.ndarray:
        """Rank and ARES: per column, the strictly-below count summed over the
        t sub-samples, as an int64 matrix. `transform` is this divided by t."""
        if self.kind == "minmax":
            raise ValueError("min-max has no integer counts; use transform")
        x = self._checked(features)
        out = np.empty(x.shape, dtype=np.int64)
        for c, pool in enumerate(self._pool):  # numpy's search is 1-D
            out[:, c] = np.searchsorted(pool, x[:, c], side="left")
        return out

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Min-max: the affine map of `_unit`, unclamped. Rank and ARES: the
        mean strictly-below count over the t sub-samples, in [0, psi]."""
        if self.kind == "minmax":
            return _unit(self._checked(features), self.params[:, 0], self.params[:, 1])
        return self.counts(features) / self.params.shape[1]


def fit_transformer(
    features: np.ndarray,
    kind: str,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
    seed: int | None = None,
) -> FittedTransformer:
    """Fit the chosen transform independently on every column of a matrix.

    ARES draws, without replacement, t sub-samples of psi rows for each
    column, draw j of column c by `_ares_draw` from (seed, c, j), which
    raises for a missing seed; other kinds ignore psi, t and seed."""
    if kind not in KINDS:
        raise ValueError(f"unknown transformer kind {kind!r}; expected one of {KINDS}")
    xt = np.ascontiguousarray(_check_matrix(features, "fit on").T)  # one row per column
    if kind == "minmax":
        return FittedTransformer(kind, np.stack([xt.min(axis=1), xt.max(axis=1)], axis=1))
    if kind == "rank":
        return FittedTransformer(kind, np.sort(xt, axis=1)[:, None])
    idx = _ares_draw(xt.shape[1], subsample_size, n_subsamples, seed, len(xt))
    subsamples = np.take_along_axis(xt[:, None, :], idx, axis=2)
    subsamples.sort()
    return FittedTransformer(kind, subsamples, seed)
