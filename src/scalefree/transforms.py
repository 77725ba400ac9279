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
  (`_in_sample_counter(x, kind, psi, t)`, one sort per matrix, then
  `counts(rows, seed)` for any number of fits).

Both take the strict count from one `_count_below`, numpy's left binary
search of each sorted column, and their rows from `_draw`, where rank is
the draw of all N rows, so ARES at psi = N costs what rank does; `_draw`
takes ARES's psi, t and seed through `errors._as_count`, so a float among
them raises a TypeError naming it.
Each path stays, as the other does its job slower: fitted models made
`evaluate`'s in-process `classify-grid` about 1.7× slower, and the
in-sample sort a one-row `counts` call about 300× slower.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ColumnCountMismatch, EmptyDataset, NonFiniteValue, _as_count
from .sampling import subsample_indices, subsample_seed

DEFAULT_SUBSAMPLE_SIZE = 7
DEFAULT_N_SUBSAMPLES = 10

KINDS = ("minmax", "rank", "ares")


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown transformer kind {kind!r}; expected one of {KINDS}")


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


def _draw(kind: str, n_rows: int, psi: int, t: int, seed: int | None, m: int) -> np.ndarray:
    """The row indices a rank or ARES fit on n_rows rows takes for m columns,
    shape (m, t, psi). Rank is psi = N, t = 1, and psi = N is every row, as
    Floyd's algorithm returns it sorted. ARES checks its seed, psi and t here
    alone, each an integer through `_as_count` (a negative t or psi acts as
    0); draw j of column c takes seed (seed, c, j)."""
    if kind == "rank":
        psi, t = n_rows, 1
    elif seed is None:
        raise ValueError("ares requires a seed")
    else:
        seed, psi = _as_count(seed, "seed"), _as_count(psi, "sub-sample size")
        t = _as_count(t, "sub-sample count t")
        if t < 1:
            raise ValueError(f"sub-sample count t must be >= 1, got {max(t, 0)}")
    if psi == n_rows:
        return np.broadcast_to(np.arange(n_rows), (m, t, n_rows))
    seeds = subsample_seed(seed, np.arange(m)[:, None], np.arange(t))
    return subsample_indices(n_rows, max(psi, 0), seeds)


def _count_below(pools: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[r, c], the number of entries of the sorted `pools[c]` strictly
    below x[r, c], as a C-contiguous int64 matrix: numpy's left search,
    which is 1-D, fills one column of it at a time."""
    out = np.empty(x.shape, dtype=np.int64)
    for c, pool in enumerate(pools):
        out[:, c] = np.searchsorted(pool, x[:, c], side="left")
    return out


def _in_sample_counter(x: np.ndarray, kind: str, psi: int, t: int):
    """Rank or ARES counts of every row of a finite N×m matrix, for fits on
    any of its rows, from one sort of each column.

    A fit weights each row by how many of a column's t `_draw`s took it;
    rank's one draw takes every fitted row, as ARES's do at psi = N, at the
    same cost. A row's count is then the summed weight of the rows strictly
    below it, one cumulative sum read at the row's group start in sorted
    order: `_count_below` of each sorted column searched for its own values,
    as the model path searches its pool, scattered back through the sort
    order. The returned `counts(rows, seed)` equals
    `fit_transformer(x[rows], kind, psi, t, seed=seed).counts(x)` bitwise
    and raises as it does for no rows or a bad psi, t or seed."""
    n, m = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1)
    ranked = np.take_along_axis(xt, order, axis=1)
    below = np.empty((n, m), dtype=np.int64)  # row r, column c
    np.put_along_axis(below, order.T, _count_below(ranked, ranked.T), axis=0)
    # Flat positions, so that each fit does two 1-D takes: column c's weights
    # are w[c·n:(c + 1)·n] and its cumulative sums cum[c·(n + 1):(c + 1)·(n + 1)].
    order += n * np.arange(m)[:, None]
    below += (n + 1) * np.arange(m)

    def counts(rows, seed):
        rows = np.arange(n)[rows]
        if not len(rows):
            _check_matrix(x[:0], "fit on")  # raises EmptyDataset, as a fit on no rows does
        idx = _draw(kind, len(rows), psi, t, seed, m)
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
        _require_kind(self.kind)
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
            object.__setattr__(self, "seed", _as_count(self.seed, "seed"))
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
        return _count_below(self._pool, self._checked(features))

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

    Rank and ARES sort the rows `_draw` takes: ARES draws, without
    replacement, t sub-samples of psi rows for each column, draw j of column
    c from (seed, c, j), and raises for a missing seed; rank takes every row
    once. Other kinds ignore psi, t and seed."""
    _require_kind(kind)
    xt = np.ascontiguousarray(_check_matrix(features, "fit on").T)  # one row per column
    if kind == "minmax":
        return FittedTransformer(kind, np.stack([xt.min(axis=1), xt.max(axis=1)], axis=1))
    idx = _draw(kind, xt.shape[1], subsample_size, n_subsamples, seed, len(xt))
    subsamples = np.take_along_axis(xt[:, None, :], idx, axis=2)
    subsamples.sort()
    return FittedTransformer(kind, subsamples, seed if kind == "ares" else None)
