"""Rank and ARES through the pooled count-below path, against direct counts.

The transforms search one sorted pool of all t * psi sampled values. These
properties check that this is bitwise the paper-literal definition: for ARES
the mean over sub-samples of per-sub-sample strictly-below counts (the
reference kernel `ares_batch` in `tests/reference_kernels.py`), for rank the
strictly-below count over the column. Values are drawn from small adversarial sets, so ties, signed zeros,
subnormals, extreme magnitudes and queries equal to sampled values all occur.
The last property checks the in-sample access to the same identity, the
one-sort counter `evaluate` uses, against the model path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefree.transforms import FittedTransformer, _in_sample_counter, fit_transformer

from conftest import OneColumn, fit_column
from reference_kernels import ares_batch, sample_collisions

TINY = np.finfo(np.float64).smallest_normal
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2 * 5e-324, TINY, -TINY, 1.0, -1.0,
           float(np.nextafter(1.0, 2.0)), 1e308, -1e308]

ATOMS = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=12,
)
SEEDS = st.integers(0, 2**32 - 1)


def _queries(atoms, sampled):
    """The atoms, every sampled value, their float neighbours, and both zeros."""
    atoms = np.asarray(atoms, dtype=np.float64)
    with np.errstate(over="ignore"):
        up, down = np.nextafter(atoms, np.inf), np.nextafter(atoms, -np.inf)
    q = np.concatenate([atoms, np.ravel(sampled), up, down, [0.0, -0.0]])
    return q[np.isfinite(q)]


def _strictly_below(values, queries):
    return np.array([np.count_nonzero(values < q) for q in queries], dtype=np.float64)


@pytest.mark.parametrize("psi, t", [(1, 1), (1, 23), (3, 2), (6, 9), (4, 1000)])
@settings(max_examples=40, deadline=None)
@given(atoms=ATOMS, seed=SEEDS)
def test_ares_equals_paper_literal_kernel(psi, t, atoms, seed):
    rows = np.sort(np.random.default_rng(seed).choice(atoms, size=(t, psi)), axis=1)
    model = OneColumn(FittedTransformer("ares", rows[None], seed=0))
    q = _queries(atoms, rows)
    assert model.transform(q).tobytes() == ares_batch(model.subsamples, q).tobytes()
    collisions = [np.count_nonzero(rows == x) for x in q]
    assert np.array_equal(sample_collisions(model.subsamples, q), collisions)


@settings(max_examples=100, deadline=None)
@given(atoms=ATOMS, seed=SEEDS, n=st.integers(1, 60))
def test_rank_is_strictly_below_count(atoms, seed, n):
    col = np.random.default_rng(seed).choice(atoms, size=n)
    q = _queries(atoms, col)
    assert fit_column(col, "rank").transform(q).tobytes() == _strictly_below(col, q).tobytes()


@settings(max_examples=100, deadline=None)
@given(atoms=ATOMS, seed=SEEDS, n=st.integers(1, 60))
def test_full_size_single_subsample_is_rank(atoms, seed, n):
    """t = 1, psi = N: fitted ARES, the reference kernel and rank all agree."""
    col = np.random.default_rng(seed).choice(atoms, size=n)
    ares = fit_column(col, "ares", subsample_size=n, n_subsamples=1, seed=seed)
    q = _queries(atoms, col)
    expected = _strictly_below(col, q).tobytes()
    assert ares.transform(q).tobytes() == expected
    assert ares_batch(ares.subsamples, q).tobytes() == expected
    assert fit_column(col, "rank").transform(q).tobytes() == expected


def _column(rng, style, n, atoms):
    if style == "integer":  # many ties, as in perfbench's integer columns
        return np.floor(4.0 * rng.lognormal(size=n))
    if style == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size=n)
    return rng.choice(np.asarray(atoms, dtype=np.float64), size=n)


@settings(max_examples=150, deadline=None)
@given(
    atoms=ATOMS,
    seed=SEEDS,
    n=st.integers(1, 40),
    styles=st.lists(st.sampled_from(["integer", "signed zeros", "atoms"]), min_size=1, max_size=4),
    whole=st.booleans(),
    psi_choice=st.sampled_from(["one", "all", "some"]),
    t=st.sampled_from([1, 2, 10]),
)
def test_in_sample_counts_equal_the_fitted_model(atoms, seed, n, styles, whole, psi_choice, t):
    """The one-sort counter of `evaluate` is the model path bitwise: rank and
    ARES counts of every row, for a fit on all rows or on a subset."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([_column(rng, style, n, atoms) for style in styles])
    rows = slice(None) if whole else rng.choice(n, rng.integers(1, n + 1), replace=False)
    n_fit = len(np.arange(n)[rows])
    psi = {"one": 1, "all": n_fit, "some": int(rng.integers(1, n_fit + 1))}[psi_choice]
    for kind in ("rank", "ares"):
        got = _in_sample_counter(x, kind, psi, t)(rows, seed)
        want = fit_transformer(x[rows], kind, psi, t, seed=seed).counts(x)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes(), kind
