"""Seed derivation and deterministic index sampling."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefree.errors import PsiNonPositive, PsiTooLarge
from scalefree.sampling import (
    cv_fit_seed,
    derive_seed,
    fold_seed,
    permutation,
    subsample_indices,
    subsample_seed,
)
from scalefree.transforms import fit_transformer

import reference_kernels as ref
from reference_kernels import draw_subsample


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_component_changes_change_output(self):
        seen = {derive_seed(42, c, j) for c in range(8) for j in range(64)}
        assert len(seen) == 8 * 64

    def test_base_seed_changes_output(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)

    def test_output_in_64_bit_range(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(base, 5) < 2**64

    def test_domains_disjoint(self):
        base = 987
        streams = {subsample_seed(base, 0, 0), fold_seed(base), cv_fit_seed(base, 0)}
        assert len(streams) == 3


class TestSubsampleIndices:
    def test_distinct_sorted_in_range(self):
        idx = subsample_indices(100, 30, stream_seed=5)
        assert idx.shape == (30,)
        assert np.all(np.diff(idx) > 0)
        assert idx[0] >= 0 and idx[-1] < 100

    def test_deterministic(self):
        a = subsample_indices(50, 7, stream_seed=123)
        b = subsample_indices(50, 7, stream_seed=123)
        assert np.array_equal(a, b)

    def test_seed_changes_selection(self):
        picks = {tuple(subsample_indices(50, 7, stream_seed=s)) for s in range(20)}
        assert len(picks) > 1

    def test_exhaustive_when_size_equals_length(self):
        assert np.array_equal(subsample_indices(4, 4, stream_seed=9), np.arange(4))

    def test_size_too_large(self):
        with pytest.raises(PsiTooLarge):
            subsample_indices(4, 5, stream_seed=0)

    def test_size_nonpositive(self):
        with pytest.raises(PsiNonPositive):
            subsample_indices(4, 0, stream_seed=0)

    def test_roughly_uniform_over_seeds(self):
        """Every index should be picked about size/n of the time."""
        counts = np.zeros(10)
        trials = 2000
        for s in range(trials):
            counts[subsample_indices(10, 3, stream_seed=s)] += 1
        expected = trials * 3 / 10
        sigma = np.sqrt(trials * 0.3 * 0.7)
        assert np.all(np.abs(counts - expected) < 6 * sigma)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class TestGoldenStream:
    """Pins the sub-sample stream: a changed draw changes every fitted ARES model."""

    def test_small_draws(self):
        assert subsample_indices(20, 5, stream_seed=2024).tolist() == [0, 5, 8, 9, 18]
        assert subsample_indices(10**6, 4, stream_seed=0).tolist() == [
            52768, 241298, 505825, 542444,
        ]

    @pytest.mark.parametrize(
        "n, size, seed, digest",
        [
            (1, 1, 0, "af5570f5a1810b7a"),
            (10, 10, 7, "23c379d6c0f22ef6"),
            (100, 7, 42, "1fc92a5d4ca37f09"),
            (1000, 256, 2**64 - 1, "a20feda0c2e8806b"),
            (50_000, 64, 0x9E3779B97F4A7C15, "5674481a8fcc5b5f"),
        ],
    )
    def test_subsample_indices(self, n, size, seed, digest):
        assert _digest(subsample_indices(n, size, seed)) == digest

    @pytest.mark.parametrize(
        "seed, column, psi, t, digest",
        [
            (0, 0, 7, 10, "eb14601486c20eb7"),
            (42, 3, 256, 50, "78c7263ebc4b0ed0"),
            (2**64 - 1, 15, 1, 3, "3de0b4ad6573b437"),
        ],
    )
    def test_fit_ares(self, seed, column, psi, t, digest):
        """Column `column` of a fit whose every column holds the same values."""
        col = np.random.default_rng(5).normal(size=500)
        x = np.repeat(col[:, None], column + 1, axis=1)
        model = fit_transformer(x, "ares", psi, t, seed=seed)
        assert _digest(model.params[column]) == digest


class TestDrawSubsample:
    def test_returns_sorted_values(self):
        col = np.array([9.0, 1.0, 5.0, 3.0, 7.0])
        out = draw_subsample(col, 3, stream_seed=11)
        assert np.all(np.diff(out) >= 0)

    def test_repeat_call_identical(self):
        col = np.array([10.0, 20.0, 30.0, 40.0])
        a = draw_subsample(col, 1, stream_seed=77)
        b = draw_subsample(col, 1, stream_seed=77)
        assert np.array_equal(a, b)

    def test_selection_is_by_index_not_value(self):
        """Same (length, size, seed) picks the same rows whatever the values."""
        col = np.array([10.0, 20.0, 30.0, 40.0])
        seed = 2024
        idx = subsample_indices(col.shape[0], 2, stream_seed=seed)
        assert np.array_equal(draw_subsample(col, 2, seed), np.sort(col[idx]))
        squares = col**2
        assert np.array_equal(draw_subsample(squares, 2, seed), np.sort(squares[idx]))

    def test_duplicate_values_preserved(self):
        col = np.array([3.0, 3.0, 3.0, 3.0, 1.0])
        out = draw_subsample(col, 4, stream_seed=5)
        assert out.shape == (4,)
        assert set(out.tolist()) <= {1.0, 3.0}

    def test_full_draw_is_sorted_column(self):
        col = np.array([4.0, 2.0, 8.0, 6.0])
        assert np.array_equal(draw_subsample(col, 4, stream_seed=3), np.sort(col))


_U64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
# Integers that need the mod-2**64 reduction: negative, >= 2**63, >= 2**64.
_WIDE = st.one_of(
    st.integers(-(2**70), -1), st.integers(2**63, 2**64 - 1), st.integers(2**64, 2**70),
    st.integers(0, 2**63 - 1),
)


@st.composite
def _draws(draw):
    """(n_rows, size, seeds), with lanes * size capped so the scalar
    reference stays fast; small n_rows let size reach n_rows. The seeds
    start with 0 and 2**64 - 1, and the rest are uniform 64-bit words."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 10**6)))
    lanes = draw(st.integers(1, 800))
    size = draw(st.integers(1, min(n, max(1, 4000 // lanes))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    words = rng.integers(0, 2**64, lanes, dtype=np.uint64)
    return n, size, ([0, 2**64 - 1] + words.tolist())[:lanes]


class TestVectorisedDrawMatchesScalarStream:
    """The uint64 array draw equals the scalar splitmix64 / set-based Floyd
    reference (tests/reference_kernels.py) lane by lane."""

    @settings(max_examples=60, deadline=None)
    @given(_draws())
    @example((1, 1, [0, 2**64 - 1]))
    @example((300, 300, [0, 2**64 - 1, 5]))
    @example((10**6, 5, list(range(800))))
    @example((10**6, 2000, [2**64 - 1]))
    def test_lanes_equal_reference(self, case):
        n, size, seeds = case
        got = subsample_indices(n, size, np.array(seeds, dtype=np.uint64))
        assert got.shape == (len(seeds), size)
        for lane, seed in zip(got, seeds):
            assert np.array_equal(lane, ref.subsample_indices(n, size, seed))

    @settings(max_examples=100, deadline=None)
    @given(_U64, st.integers(1, 500), st.data())
    def test_one_seed_equals_reference(self, seed, n, data):
        size = data.draw(st.integers(1, n))
        assert np.array_equal(
            subsample_indices(n, size, seed), ref.subsample_indices(n, size, seed)
        )

    def test_seed_array_shape_is_kept(self):
        seeds = np.arange(12, dtype=np.uint64).reshape(3, 4)
        got = subsample_indices(50, 6, seeds)
        assert got.shape == (3, 4, 6)
        for c in range(3):
            for j in range(4):
                assert np.array_equal(got[c, j], ref.subsample_indices(50, 6, int(seeds[c, j])))

    @settings(max_examples=200, deadline=None)
    @given(_WIDE, st.lists(_WIDE, max_size=4))
    def test_derive_seed_equals_reference(self, base, components):
        assert derive_seed(base, *components) == ref.derive_seed(base, *components)

    @settings(max_examples=50, deadline=None)
    @given(_WIDE, st.integers(-(2**62), 2**62), st.integers(0, 20), st.integers(0, 20))
    def test_broadcast_subsample_seeds_equal_reference(self, base, first, m, t):
        columns = np.arange(first, first + m)[:, None]
        got = subsample_seed(base, columns, np.arange(t))
        assert got.shape == (m, t) and got.dtype == np.uint64
        want = [[ref.derive_seed(base, 0xA5, c, j) for j in range(t)] for c in range(first, first + m)]
        assert got.tolist() == want


class TestPermutation:
    """The fold permutation: every row once, from the seed alone."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 500), _WIDE)
    def test_is_a_permutation_and_deterministic(self, n, seed):
        got = permutation(n, seed)
        assert got.shape == (n,) and got.dtype == np.intp
        assert np.array_equal(np.sort(got), np.arange(n))
        assert np.array_equal(permutation(n, seed), got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(20, 500), _U64, _U64)
    def test_seed_changes_the_order(self, n, a, b):
        # two uniform orders of 20 rows agree with probability 1/20! < 2**-61
        if a != b:
            assert not np.array_equal(permutation(n, a), permutation(n, b))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), _WIDE)
    def test_equals_the_scalar_stream(self, n, seed):
        assert np.array_equal(permutation(n, seed), ref.permutation(n, seed))

    def test_seed_reduced_mod_2_64(self):
        assert np.array_equal(permutation(50, -1), permutation(50, 2**64 - 1))
        assert np.array_equal(permutation(50, 2**64 + 3), permutation(50, 3))


def test_many_lane_draw_memory_is_independent_of_n_rows():
    """800 draws of 64 out of 10**6 rows hold O(lanes·size) words, not an
    N-sized taken mask per lane (800·10**6 bytes) or even one N-sized int64
    array."""
    seeds = np.arange(800, dtype=np.uint64)
    tracemalloc.start()
    try:
        subsample_indices(10**6, 64, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10**6, f"peak {peak / 1e6:.1f} MB"
