"""The exact integer distance path against a brute-force int64 oracle.

Rank and ARES reach the neighbour learners as integer counts. Their squared
distances come from a blocked Gram pass, ``|q|² + |r|² − 2·q·rᵀ`` in float64,
which must equal the int64 sum ``((q - r) ** 2).sum()`` exactly: same k-th
distances, same tie-inclusive neighbourhoods, same KNN votes and LOF
neighbourhood sizes, for every block size. Data come from small value sets,
so distance ties and duplicate rows are common, or reach up to the bound on
exact float64 distances.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefree import neighbors
from scalefree.errors import InexactDistances
from scalefree.neighbors import _k_nearest_with_ties, knn_classify, lof_scores

from conftest import ares_counts, block_budget
from reference_kernels import _lof_np, knn_reference


def _oracle_d2(q, r):
    return ((q[:, None, :] - r[None, :, :]) ** 2).sum(-1)


def _oracle_neighbourhoods(ref, queries, k, skip_self):
    """Per query: k-th squared distance and the ascending member rows."""
    d2 = _oracle_d2(queries, ref)
    out = []
    for i, row in enumerate(d2):
        others = np.delete(np.arange(len(row)), i) if skip_self else np.arange(len(row))
        kth = np.sort(row[others])[k - 1]
        members = others[row[others] <= kth]
        out.append((kth, members, row[members]))
    return out


def _block_sizes(n_ref):
    """One row per block, three rows, and the module default."""
    return (8, 3 * 8 * n_ref, neighbors._BLOCK_BYTES)


@st.composite
def int_matrices(draw, max_rows=40):
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["tied", "spread", "wide", "all-duplicate"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if shape == "tied":
        return rng.integers(0, 3, size=(n, m))
    if shape == "spread":
        return rng.integers(-500, 500, size=(n, m))
    if shape == "wide":
        # up to the exactness bound: 4 * 4 * (2**24)**2 = 2**52 < 2**53
        return rng.integers(-(2**24), 2**24, size=(n, m), endpoint=True)
    return np.tile(rng.integers(0, 70, size=m), (n, 1))


@settings(max_examples=80, deadline=None)
@given(x=int_matrices(), data=st.data())
def test_neighbourhoods_match_oracle(x, data):
    skip_self = data.draw(st.booleans())
    n = x.shape[0]
    k = data.draw(st.integers(1, n - 1 if skip_self else n))
    want = _oracle_neighbourhoods(x, x, k, skip_self)
    for n_bytes in _block_sizes(n):
        with block_budget(n_bytes):
            indptr, indices, dist2, kth2 = _k_nearest_with_ties(x, x, k, skip_self)
        for i, (kth, members, d2) in enumerate(want):
            lo, hi = indptr[i], indptr[i + 1]
            assert kth2[i] == kth
            assert np.array_equal(indices[lo:hi], members)
            assert np.array_equal(dist2[lo:hi], d2)


@settings(max_examples=60, deadline=None)
@given(x=int_matrices(max_rows=50), data=st.data())
def test_knn_matches_oracle(x, data):
    n_train = data.draw(st.integers(1, x.shape[0] - 1))
    k = data.draw(st.integers(1, n_train))
    labels = np.random.default_rng(n_train).integers(0, 3, size=n_train)
    train, test = x[:n_train], x[n_train:]
    want = knn_reference(train, labels, test, k)
    for n_bytes in _block_sizes(n_train):
        with block_budget(n_bytes):
            assert np.array_equal(knn_classify(train, labels, test, k=k), want)


@settings(max_examples=60, deadline=None)
@given(x=int_matrices(), data=st.data())
def test_lof_neighbourhood_sizes_match_oracle(x, data):
    """LOF's neighbourhoods are the oracle's, and its scores equal the dense
    reference kernel on the same integers, which sums them exactly too."""
    n = x.shape[0]
    k = data.draw(st.integers(1, n - 1))
    sizes = [len(members) for _, members, _ in _oracle_neighbourhoods(x, x, k, True)]
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _lof_np(x.astype(np.float64), k)
    for n_bytes in _block_sizes(n):
        with block_budget(n_bytes):
            indptr = _k_nearest_with_ties(x, x, k, skip_self=True)[0]
            got = lof_scores(x, k)
        assert np.diff(indptr).tolist() == sizes
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_int32_selection_equals_float64_selection(data):
    """Small tied counts select on int32. Forcing float64 selection, by an
    INT32_MAX of 0, changes no bit of the neighbourhoods, k-th distances,
    KNN votes or LOF scores."""
    n = data.draw(st.integers(3, 40))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
        0, data.draw(st.integers(2, 8)), size=(n, data.draw(st.integers(1, 6)))
    )
    skip_self = data.draw(st.booleans())
    k = data.draw(st.integers(1, n - 1))
    train = x[: data.draw(st.integers(k, n))]
    labels = np.arange(train.shape[0]) % 3
    n_bytes = data.draw(st.sampled_from(_block_sizes(n)))

    def outputs(width):
        with block_budget(n_bytes), mock.patch.object(np, "partition", wraps=np.partition) as spy:
            out = (
                *_k_nearest_with_ties(x, x, k, skip_self),
                knn_classify(train, labels, x, k=k),
                lof_scores(x, k),
            )
        assert {c.args[0].dtype for c in spy.call_args_list} == {np.dtype(width)}
        return out

    narrow = outputs(np.int32)
    with mock.patch.object(neighbors, "_INT32_MAX", 0):
        wide = outputs(np.float64)
    for got, want in zip(narrow, wide, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 7, 1199])
def test_ares_counts_span_several_blocks(k):
    """The default block over ARES counts at N = 1200: the same LOF scores
    as the dense reference and as one row per block."""
    x = ares_counts(1200, 6, seed=211)
    assert x.shape[0] > 2 * neighbors._block_rows(x.shape[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _lof_np(x.astype(np.float64), k)
    got = lof_scores(x, k)
    assert got.tobytes() == want.tobytes()
    with block_budget(8):
        assert lof_scores(x, k).tobytes() == got.tobytes()


def test_single_column_and_all_other_rows():
    x = np.random.default_rng(212).integers(0, 5, size=(90, 1))
    sizes = np.diff(_k_nearest_with_ties(x, x, 89, skip_self=True)[0])
    assert np.all(sizes == 89)
    labels = np.arange(60) % 4
    assert np.array_equal(
        knn_classify(x[:60], labels, x[60:], k=60), knn_reference(x[:60], labels, x[60:], 60)
    )


def _near_bound(n, m, shape, seed, peak):
    """n x m integers within ±peak: two rows at ±peak, a duplicate row, and
    the rest from five values at the ends and zero ("ends", many ties) or
    uniform over [-peak, peak]."""
    rng = np.random.default_rng(seed)
    if shape == "ends":
        x = rng.choice(np.array([-peak, 1 - peak, 0, peak - 1, peak]), size=(n, m))
    else:
        x = rng.integers(-peak, peak, size=(n, m), endpoint=True)
    x[0], x[1], x[-1] = peak, -peak, x[2]
    return x


def _largest_peak(m, limit):
    """The largest peak with ``m·peak²`` below ``limit``."""
    peak = math.isqrt((limit - 1) // m)
    assert m * peak**2 < limit <= m * (peak + 1) ** 2
    return peak


def _width(ref, queries):
    """The search's selection width for integer operands: int32 when every
    fill, |r|² − 2·q·r in [−|q|², 2·|r|² + |q|²], lies below INT32_MAX."""
    reach = 2 * (ref**2).sum(axis=1).max().item() + (queries**2).sum(axis=1).max().item()
    return np.dtype(np.int32 if reach < 2**31 - 1 else np.float64)


# (m, peak): the largest peaks with 4·m·peak² below 2**53, the exact range;
# and for m = 1 and 16 the largest with 3·m·peak², the largest fill, below
# INT32_MAX, which is selected on int32, and one more, which is not
_PEAKS = {
    **{str(m): (m, _largest_peak(4 * m, 2**53)) for m in (32, 64, 130)},
    **{f"{m}-int32": (m, _largest_peak(3 * m, 2**31 - 1)) for m in (1, 16)},
    **{f"{m}-past-int32": (m, _largest_peak(3 * m, 2**31 - 1) + 1) for m in (1, 16)},
}


@pytest.mark.parametrize("shape", ["ends", "uniform"])
@pytest.mark.parametrize("m, peak", _PEAKS.values(), ids=_PEAKS)
def test_wide_inputs_near_the_bound_match_oracle(m, peak, shape, monkeypatch):
    """BLAS takes 1-row blocks to gemv and wider ones to gemm, whose kernels
    may sum in any order and fuse multiply-adds; below the bound every
    partial sum is an exact integer, so all of them give the oracle's
    neighbourhoods, KNN votes and LOF scores. Rows 0 and 1 reach the largest
    fill over x, 3·m·peak²; each call selects on the width its own operands
    give (`_width`), with and without `skip_self`."""
    n, k = 48, 5
    x = _near_bound(n, m, shape, m, peak)
    assert 4 * m * peak**2 < 2**53
    selected = []
    partition = np.partition

    def spy(a, *args, **kwargs):
        selected.append(a.dtype)
        return partition(a, *args, **kwargs)

    def widths():
        got = set(selected)
        selected.clear()
        return got

    with np.errstate(invalid="ignore", divide="ignore"):
        want_lof = _lof_np(x.astype(np.float64), k)
    monkeypatch.setattr(np, "partition", spy)
    for skip_self in (True, False):
        want = _oracle_neighbourhoods(x, x, k, skip_self)
        for n_bytes in _block_sizes(n):
            with block_budget(n_bytes):
                indptr, indices, dist2, kth2 = _k_nearest_with_ties(x, x, k, skip_self)
                assert widths() == {_width(x, x)}
                got_lof = lof_scores(x, k)
                assert widths() == {_width(x, x)}
            for i, (kth, members, d2) in enumerate(want):
                lo, hi = indptr[i], indptr[i + 1]
                assert kth2[i] == kth
                assert np.array_equal(indices[lo:hi], members)
                assert np.array_equal(dist2[lo:hi], d2)
            assert got_lof.tobytes() == want_lof.tobytes()

    train, test = x[:36], x[36:]
    labels = np.arange(36) % 3
    want_knn = knn_reference(train, labels, test, k)
    for n_bytes in _block_sizes(train.shape[0]):
        with block_budget(n_bytes):
            assert np.array_equal(knn_classify(train, labels, test, k=k), want_knn)
            assert widths() == {_width(train, test)}


class TestExactnessBound:
    """4·m·max|x|² must stay below 2**53; at the bound the learners raise."""

    def test_below_bound_is_exact(self):
        # 4 * 1 * (2**25)**2 = 2**52
        x = np.array([[0], [2**25], [-(2**25)], [1]], dtype=np.int64)
        indptr, indices, dist2, kth2 = _k_nearest_with_ties(x, x, 1, skip_self=True)
        assert dist2.tolist() == [1.0, (2**25 - 1) ** 2, 2**50, 1.0]
        assert lof_scores(x, 1).shape == (4,)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([[0, 0], [2**25, 0], [1, 1]]),  # 4 * 2 * 2**50 = 2**53
            np.array([[0], [2**26], [1]]),
            np.array([[0], [-(2**63)], [1]]),
        ],
    )
    def test_at_or_beyond_bound_raises(self, x):
        with pytest.raises(InexactDistances):
            lof_scores(x, 1)
        with pytest.raises(InexactDistances):
            knn_classify(x[:1], [0], x, k=1)
        with pytest.raises(InexactDistances):
            knn_classify(x, [0, 1, 0], x[:1], k=1)

    def test_float_input_is_not_bounded(self):
        x = np.array([[0.0], [2.0**40], [1.0]])
        assert lof_scores(x, 1).shape == (3,)

    def test_only_dtypes_int64_holds_take_the_integer_path(self):
        train, test = neighbors._as_features(np.arange(4).reshape(2, 2), [[0.5, 1.0]])
        assert train.dtype == test.dtype == np.float64
        (wide,) = neighbors._as_features(np.array([[2**64 - 1]], dtype=np.uint64))
        assert wide.dtype == np.float64
        small = (np.array([[1]], dtype=np.uint32), np.array([[True]]), [[1]])
        assert all(a.dtype == np.int64 for a in neighbors._as_features(*small))
