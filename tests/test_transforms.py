"""Column transforms: fitting, querying, ties, and the invariance laws."""

import dataclasses
import sys

import numpy as np
import pytest

from scalefree.data import Dataset
from scalefree.errors import (
    ColumnCountMismatch,
    EmptyDataset,
    NonFiniteValue,
    PsiNonPositive,
    PsiTooLarge,
)
from scalefree.transforms import FittedTransformer, _in_sample_counter, fit_transformer

from conftest import OneColumn, distinct_column, fit_column
from reference_kernels import rank_in_subsample


def fit_minmax(values) -> OneColumn:
    return fit_column(values, "minmax")


def fit_rank(values) -> OneColumn:
    return fit_column(values, "rank")


def fit_ares(values, subsample_size=7, n_subsamples=10, *, seed) -> OneColumn:
    return fit_column(values, "ares", subsample_size, n_subsamples, seed=seed)


def _model(kind, params, seed=None) -> OneColumn:
    """One column's model, built from its parameter block."""
    return OneColumn(FittedTransformer(kind, [params], seed))


def _extrema(model: OneColumn) -> tuple:
    return tuple(model.transformer.params[0].tolist())


class TestMinMax:
    def test_fit_extrema(self):
        assert _extrema(fit_minmax([2.0, 10.0, 6.0])) == (2.0, 10.0)
        assert _extrema(fit_minmax([-1.0, 0.0, 3.0])) == (-1.0, 3.0)

    def test_fit_constant_column(self):
        assert _extrema(fit_minmax([5.0, 5.0, 5.0])) == (5.0, 5.0)

    def test_fit_empty_column(self):
        with pytest.raises(EmptyDataset):
            fit_minmax([])

    def test_fit_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            fit_minmax([1.0, np.nan])

    @pytest.mark.parametrize(
        "fit", [fit_minmax, fit_rank, lambda v: fit_ares(v, 1, 1, seed=0)]
    )
    def test_fit_rejects_bare_scalar(self, fit):
        with pytest.raises(ValueError, match="2-D feature matrix"):
            fit(5.0)

    def test_transform_endpoints(self):
        p = _model("minmax", [2.0, 10.0])
        assert p.transform(2.0) == 0.0
        assert p.transform(10.0) == 1.0

    def test_transform_does_not_clamp(self):
        p = _model("minmax", [2.0, 10.0])
        assert p.transform(12.0) == (12.0 - 2.0) / (10.0 - 2.0)
        assert p.transform(0.0) < 0.0

    def test_degenerate_range_maps_to_zero(self):
        p = _model("minmax", [5.0, 5.0])
        assert np.array_equal(p.transform([4.0, 5.0, 99.0]), np.zeros(3))

    def test_monotone(self):
        p = _model("minmax", [-3.0, 7.0])
        queries = np.sort(np.random.default_rng(0).uniform(-10, 10, size=200))
        assert np.all(np.diff(p.transform(queries)) >= 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FittedTransformer("minmax", [[2.0, 1.0]])

    def test_range_beyond_float_max(self):
        col = [-1e308, 0.0, 1e308]
        out = fit_minmax(col).transform(col)
        assert out.tolist() == [0.0, 0.5, 1.0]
        top = sys.float_info.max
        p = _model("minmax", [-top, top])
        assert p.transform([-top, 0.0, top]).tolist() == [0.0, 0.5, 1.0]

    def test_query_far_beyond_finite_range(self):
        p = _model("minmax", [-1e308, 0.0])
        assert p.transform(1e308) == 2.0
        assert p.transform([-1e308, 5e-324, 1e308]).tolist() == [0.0, 1.0, 2.0]
        assert _model("minmax", [1e308, 1.5e308]).transform(-1e308) == -4.0

    def test_each_value_maps_on_its_own(self):
        """Whether one value's shift overflows never changes another value's
        result, so transforming all rows at once equals transforming any
        subset of them, bit for bit."""
        p = _model("minmax", [-1e308, -1e307])
        queries = np.array([1e308, 0.3, 5e-324, -1e308, 1.7e308, 2.5e-320, -0.0, -5e307])
        each = np.array([p.transform(q) for q in queries])
        assert p.transform(queries).tobytes() == each.tobytes()

    def test_matrix_maps_each_column_as_alone(self):
        """Each column decides its own overflow fallback: halving the whole
        matrix for its first column would map the third's 5e-324 to 0.0."""
        x = np.array([
            [-1e308, 3.0, 0.0],
            [1e308, 3.0, 5e-324],
            [5e307, 3.0, 1.0],
            [0.0, 3.0, 0.25],
        ])  # fmt: skip
        out = fit_transformer(x, "minmax").transform(x)
        alone = np.column_stack([fit_minmax(col).transform(col) for col in x.T])
        assert out.tobytes() == alone.tobytes()
        assert out[:, 1].tolist() == [0.0] * 4
        assert out[1, 2] == 5e-324

    def test_finite_range_unchanged_bitwise(self):
        rng = np.random.default_rng(7)
        for scale in (1e-300, 1e-5, 1.0, 1e5, 1e300):
            col = rng.normal(scale=scale, size=300)
            p = fit_minmax(col)
            lo, hi = _extrema(p)
            queries = np.concatenate([col, rng.normal(scale=2 * scale, size=100), [-0.0]])
            expected = (queries - lo) / (hi - lo)
            assert p.transform(queries).tobytes() == expected.tobytes()


class TestRank:
    def test_fit_sorts(self):
        m = fit_rank([5.0, 1.0, 3.0])
        assert np.array_equal(m.subsamples, [[1.0, 3.0, 5.0]])

    def test_fit_keeps_duplicates(self):
        m = fit_rank([2.0, 2.0, 2.0])
        assert np.array_equal(m.subsamples, [[2.0, 2.0, 2.0]])

    def test_fit_singleton(self):
        m = fit_rank([7.0])
        assert np.array_equal(m.subsamples, [[7.0]])

    def test_strictly_less_counting(self):
        m = _model("rank", [[1.0, 3.0, 5.0]])
        assert m.transform(0.0) == 0.0
        assert m.transform(3.0) == 1.0  # counts only {1}, strict <
        assert m.transform(9.0) == 3.0

    def test_range_bounds(self):
        rng = np.random.default_rng(1)
        m = fit_rank(rng.normal(size=100))
        out = m.transform(rng.uniform(-10, 10, size=500))
        assert out.min() >= 0.0 and out.max() <= 100.0

    def test_monotone(self):
        rng = np.random.default_rng(2)
        m = fit_rank(rng.normal(size=60))
        queries = np.sort(rng.uniform(-4, 4, size=300))
        assert np.all(np.diff(m.transform(queries)) >= 0)


class TestRankInSubsample:
    def test_piecewise_cases(self):
        sample = np.array([2.0, 5.0, 7.0])
        assert rank_in_subsample(sample, 1.0) == 0  # below every value
        assert rank_in_subsample(sample, 5.0) == 1  # strict <, counts {2}
        assert rank_in_subsample(sample, 9.0) == 3  # at/above the top
        assert rank_in_subsample(sample, 2.0) == 0
        assert rank_in_subsample(sample, 7.0) == 2
        assert rank_in_subsample(sample, 7.5) == 3

    def test_matches_linear_scan(self):
        """Binary-search rank equals a brute-force strict-less count."""
        rng = np.random.default_rng(99)
        for _ in range(2_000):
            size = int(rng.integers(1, 20))
            sample = np.sort(rng.integers(-5, 6, size=size).astype(np.float64))
            for query in (
                float(rng.uniform(-7, 7)),
                float(rng.choice(sample)),
                float(sample[0] - 1),
                float(sample[-1] + 1),
                float(rng.integers(-5, 6)),
            ):
                expected = int((sample < query).sum())
                assert rank_in_subsample(sample, query) == expected


class TestAresFit:
    def test_default_shape_and_sortedness(self):
        col = np.random.default_rng(3).normal(size=214)
        m = fit_ares(col, seed=11)
        assert m.subsamples.shape == (10, 7)
        assert np.all(np.diff(m.subsamples, axis=1) >= 0)

    def test_full_subsample_once_is_sorted_column(self):
        col = np.array([4.0, 1.0, 3.0, 2.0])
        m = fit_ares(col, subsample_size=4, n_subsamples=1, seed=5)
        assert np.array_equal(m.subsamples, np.sort(col)[None, :])

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_all_row_draws_are_copies_of_rank(self, t, seed):
        """ARES at psi = N takes every row in each of its t draws, as rank's one
        draw does, whatever the seed: its params are t copies of rank's and its
        counts t times rank's, and the in-sample counter gives those counts for
        a fit on all rows or on a subset."""
        rng = np.random.default_rng(seed % 2**32)
        x = np.column_stack(
            [np.floor(4.0 * rng.lognormal(size=40)), rng.normal(size=40), [0.0, -0.0] * 20]
        )
        for rows in (slice(None), rng.choice(40, 25, replace=False)):
            n = len(x[rows])
            rank = fit_transformer(x[rows], "rank")
            ares = fit_transformer(x[rows], "ares", subsample_size=n, n_subsamples=t, seed=seed)
            assert ares.seed == seed and rank.seed is None
            assert ares.params.tobytes() == np.repeat(rank.params, t, axis=1).tobytes()
            want = ares.counts(x)
            assert np.array_equal(want, t * rank.counts(x))
            got = _in_sample_counter(x, "ares", n, t)(rows, seed)
            assert got.tobytes() == want.tobytes()
            got = _in_sample_counter(x, "rank", n, t)(rows, seed)
            assert got.tobytes() == rank.counts(x).tobytes()

    @pytest.mark.parametrize("empty", [np.array([], dtype=int), np.zeros(6, dtype=bool)])
    @pytest.mark.parametrize("kind, psi", [("rank", 7), ("ares", 0), ("ares", 3)])
    def test_in_sample_counts_on_no_rows_raise_the_fit_error(self, empty, kind, psi):
        x = np.arange(12.0).reshape(6, 2)
        with pytest.raises(EmptyDataset) as from_fit:
            fit_transformer(x[empty], kind, psi, 10, seed=5)
        with pytest.raises(EmptyDataset) as from_counter:
            _in_sample_counter(x, kind, psi, 10)(empty, seed=5)
        got, want = from_counter.value, from_fit.value
        assert (type(got), str(got)) == (type(want), str(want))

    def test_singleton_subsamples(self):
        col = np.random.default_rng(4).normal(size=30)
        m = fit_ares(col, subsample_size=1, n_subsamples=10, seed=5)
        assert m.subsamples.shape == (10, 1)

    def test_size_errors(self):
        col = np.arange(4.0)
        with pytest.raises(PsiTooLarge):
            fit_ares(col, subsample_size=5, seed=0)
        with pytest.raises(PsiNonPositive):
            fit_ares(col, subsample_size=0, seed=0)
        with pytest.raises(ValueError):
            fit_ares(col, n_subsamples=0, seed=0)

    @pytest.mark.parametrize(
        "psi, t, seed, name",
        [
            (3, 2.5, 1, "sub-sample count t"),
            (3.0, 2, 1, "sub-sample size"),
            (3, 2, 1.0, "seed"),
            (6, 2, 1.5, "seed"),  # psi = N, which draws every row and needs no seed word
        ],
    )
    def test_float_psi_t_or_seed_is_a_named_type_error(self, psi, t, seed, name):
        """t = 2.5 once fitted 3 sub-samples; on both count paths a float is
        now a TypeError naming it, and numpy integers still count."""
        x = np.arange(12.0).reshape(6, 2)
        message = f"^{name} must be an integer, got float$"
        with pytest.raises(TypeError, match=message):
            fit_transformer(x, "ares", psi, t, seed=seed)
        with pytest.raises(TypeError, match=message):
            _in_sample_counter(x, "ares", psi, t)(slice(None), seed)
        psi, t, seed = int(psi), int(t), int(seed)
        want = fit_transformer(x, "ares", psi, t, seed=seed)
        got = fit_transformer(x, "ares", np.int64(psi), np.int32(t), seed=np.uint8(seed))
        assert got.params.tobytes() == want.params.tobytes() and type(got.seed) is int
        counts = _in_sample_counter(x, "ares", np.int16(psi), np.int64(t))(slice(None), seed)
        assert counts.tobytes() == want.counts(x).tobytes()

    @pytest.mark.parametrize("psi, t", [(-1, 10), (-7, 10), (3, -1), (-1, -1), (-2, 0), (0, -3)])
    def test_negative_sizes_act_as_zero(self, psi, t):
        """A negative psi or t fails exactly as psi = 0 or t = 0 does."""
        col, x = np.arange(4.0), np.arange(8.0).reshape(4, 2)
        fits = [
            lambda s, n: fit_ares(col, subsample_size=s, n_subsamples=n, seed=0),
            lambda s, n: fit_transformer(x, "ares", subsample_size=s, n_subsamples=n, seed=1),
        ]
        for fit in fits:
            with pytest.raises((PsiNonPositive, ValueError)) as want:
                fit(max(psi, 0), max(t, 0))
            with pytest.raises(want.type) as got:
                fit(psi, t)
            assert got.type is want.type
            assert str(got.value) == str(want.value)

    def test_deterministic_bitwise(self):
        col = np.random.default_rng(5).normal(size=120)
        a = fit_ares(col, seed=77)
        b = fit_ares(col, seed=77)
        assert a.subsamples.tobytes() == b.subsamples.tobytes()

    def test_column_index_changes_draws(self):
        col = np.random.default_rng(6).normal(size=120)
        ft = fit_transformer(np.column_stack([col, col]), "ares", seed=77)
        assert np.array_equal(ft.params[0], fit_ares(col, seed=77).subsamples)
        assert not np.array_equal(ft.params[0], ft.params[1])


class TestAresTransform:
    def test_hand_example(self):
        # x=4: one of [1,5] below it, one of [3,9] below it -> (1+1)/2
        m = _model("ares", [[1.0, 5.0], [3.0, 9.0]], seed=0)
        assert m.transform(4.0) == 1.0
        assert m.transform(0.0) == 0.0
        assert m.transform(10.0) == 2.0  # equals the sub-sample size

    def test_mean_of_per_subsample_ranks(self):
        """Batch output equals the scalar rank queries averaged directly."""
        rng = np.random.default_rng(7)
        col = rng.normal(size=80)
        m = fit_ares(col, subsample_size=6, n_subsamples=9, seed=13)
        queries = rng.uniform(col.min() - 1, col.max() + 1, size=50)
        out = m.transform(queries)
        for q, got in zip(queries, out):
            total = sum(rank_in_subsample(row, q) for row in m.subsamples)
            assert got == total / 9

    def test_range_bounds(self):
        rng = np.random.default_rng(8)
        m = fit_ares(rng.normal(size=100), subsample_size=7, n_subsamples=10, seed=1)
        out = m.transform(rng.uniform(-10, 10, size=1000))
        assert out.min() >= 0.0 and out.max() <= 7.0

    def test_monotone(self):
        rng = np.random.default_rng(9)
        m = fit_ares(rng.normal(size=100), seed=2)
        queries = np.sort(rng.uniform(-5, 5, size=500))
        assert np.all(np.diff(m.transform(queries)) >= 0)


class TestScaleInvariance:
    increasing_maps = [
        lambda x: 3.5 * x + 2.0,
        lambda x: np.exp(x / 10.0),
        lambda x: x**3,
    ]

    def test_rank_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(10)
        col = distinct_column(rng, 150)
        queries = np.sort(col)[:-1] + np.diff(np.sort(col)) / 2
        base = fit_rank(col).transform(queries)
        for g in self.increasing_maps:
            mapped = fit_rank(g(col)).transform(g(queries))
            assert np.array_equal(mapped, base)

    def test_ares_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(11)
        col = distinct_column(rng, 150)
        queries = np.concatenate([col, np.sort(col)[:-1] + np.diff(np.sort(col)) / 2])
        base = fit_ares(col, seed=21).transform(queries)
        for g in self.increasing_maps:
            mapped = fit_ares(g(col), seed=21).transform(g(queries))
            assert np.array_equal(mapped, base)

    def test_reversal_under_negation_no_collisions(self):
        """For queries distinct from every sampled value, negation flips the
        average rank to (size - value), exactly in integer rank arithmetic."""
        rng = np.random.default_rng(12)
        col = distinct_column(rng, 100)
        psi, t = 7, 10
        m = fit_ares(col, subsample_size=psi, n_subsamples=t, seed=31)
        m_neg = fit_ares(-col, subsample_size=psi, n_subsamples=t, seed=31)
        queries = np.sort(col)[:-1] + np.diff(np.sort(col)) / 2
        for q in queries:
            rank_sum = round(m.transform(float(q)) * t)
            expected = (psi * t - rank_sum) / t
            assert m_neg.transform(float(-q)) == expected

    def test_reversal_collision_deviation_bounded(self):
        """Queries equal to sampled values deviate by exactly collisions/t."""
        rng = np.random.default_rng(13)
        col = distinct_column(rng, 100)
        psi, t = 5, 8
        m = fit_ares(col, subsample_size=psi, n_subsamples=t, seed=41)
        m_neg = fit_ares(-col, subsample_size=psi, n_subsamples=t, seed=41)
        for q in np.unique(m.subsamples):
            collisions = int((m.subsamples == q).sum())
            assert collisions >= 1
            forward = m.transform(float(q))
            backward = m_neg.transform(float(-q))
            deviation = abs((psi - forward) - backward)
            assert deviation <= collisions / t + 1e-12

    def test_degenerate_ensemble_equals_rank(self):
        rng = np.random.default_rng(14)
        for n in (1, 2, 17, 100):
            col = rng.choice([-2.0, 0.5, 1.0, 3.25, 9.0], size=n)
            queries = np.concatenate([col, col - 0.1, col + 0.1])
            ares = fit_ares(col, subsample_size=n, n_subsamples=1, seed=3)
            rank = fit_rank(col)
            assert np.array_equal(ares.transform(queries), rank.transform(queries))


class TestFittedTransformer:
    def test_minmax_per_column(self):
        x = np.array([[0.0, 100.0], [5.0, 300.0], [10.0, 200.0]])
        ft = fit_transformer(x, "minmax")
        out = ft.transform(x)
        assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])
        assert np.array_equal(out[:, 1], [0.0, 1.0, 0.5])

    def test_column_count_mismatch(self):
        ft = fit_transformer(np.zeros((4, 3)) + np.arange(4)[:, None], "minmax")
        with pytest.raises(ColumnCountMismatch):
            ft.transform(np.zeros((2, 4)))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_transformer(np.empty((0, 3)), "rank")

    def test_non_finite_rejected(self):
        x = np.ones((3, 2))
        x[1, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            fit_transformer(x, "minmax")

    @pytest.mark.parametrize("kind", ["minmax", "rank", "ares"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, kind, bad):
        x = np.random.default_rng(18).normal(size=(20, 2))
        ft = fit_transformer(x, kind, seed=3)
        x[5, 1] = bad
        with pytest.raises(NonFiniteValue):
            ft.transform(x)
        with pytest.raises(NonFiniteValue):
            ft.transform([[bad, 0.0]])

    def test_ares_requires_seed(self):
        with pytest.raises(ValueError):
            fit_transformer(np.random.default_rng(0).normal(size=(10, 2)), "ares")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_transformer(np.ones((3, 1)), "zscore")

    def test_unknown_kind_rejected_on_construction(self):
        with pytest.raises(ValueError, match="unknown transformer kind 'zscore'"):
            FittedTransformer("zscore", np.zeros((1, 2)))

    @pytest.mark.parametrize("kind", ["minmax", "rank", "ares"])
    def test_one_dimensional_query_rejected(self, kind):
        ft = fit_transformer(np.arange(6.0).reshape(3, 2), kind, subsample_size=2, seed=3)
        with pytest.raises(ValueError, match="expected a 2-D feature matrix"):
            ft.transform(np.arange(2.0))

    def test_ares_end_to_end_deterministic(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(60, 4))
        a = fit_transformer(x, "ares", seed=9).transform(x)
        b = fit_transformer(x, "ares", seed=9).transform(x)
        assert a.tobytes() == b.tobytes()

    def test_columns_fit_independently(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(50, 3))
        ft = fit_transformer(x, "ares", seed=4)
        other = np.column_stack([rng.lognormal(size=(50, 2)), x[:, 2]])
        assert np.array_equal(ft.params[2], fit_transformer(other, "ares", seed=4).params[2])

    def test_labels_pass_through(self):
        # The CLI's transform step: swap in the transformed features, keep the rest.
        rng = np.random.default_rng(17)
        ds = Dataset("d", rng.normal(size=(20, 2)), labels=np.arange(20))
        ft = fit_transformer(ds.features, "rank")
        out = ds.with_features(ft.transform(ds.features))
        assert np.array_equal(out.features, ft.transform(ds.features))
        assert np.array_equal(out.labels, ds.labels)
        assert out.feature_names == ds.feature_names


class TestFittedTransformerColumns:
    """One float64 array holds every column's parameters: (m, 2) for min-max
    and (m, t, psi) for rank (t = 1) and ARES, which alone carries a seed."""

    col = np.arange(30.0)

    def test_ensemble_read_from_columns(self):
        ft = fit_transformer(np.column_stack([self.col] * 3), "ares", 6, 4, seed=8)
        assert (ft.params.shape, ft.seed) == ((3, 4, 6), 8)
        rank = fit_transformer(self.col[:, None], "rank", seed=8)
        assert (rank.params.shape, rank.seed) == ((1, 1, 30), None)

    @pytest.mark.parametrize(
        "kind, fit", [("rank", lambda col: fit_ares(col, seed=1)), ("minmax", fit_rank)]
    )
    def test_kind_rejects_other_columns(self, kind, fit):
        with pytest.raises(ValueError):
            FittedTransformer(kind, fit(self.col).transformer.params)

    @pytest.mark.parametrize(
        "kind, params, seed",
        [
            ("minmax", [[0.0, 1.0, 2.0]], None),
            ("minmax", [0.0, 1.0], None),
            ("minmax", [[0.0, np.inf]], None),
            ("rank", [[1.0, 2.0]], None),
            ("rank", [[[1.0, np.nan]]], None),
            ("rank", [[[2.0, 1.0]]], None),
            ("rank", [[[]]], None),
            ("ares", [[[1.0, 2.0], [0.0, -1.0]]], 0),
            ("ares", [[[1.0, 2.0]]], None),
            ("rank", [[[1.0, 2.0]]], 0),
            ("minmax", [[0.0, 1.0]], 0),
            ("ares", np.zeros((0, 1, 1)), 0),
        ],
    )
    def test_invalid_params_rejected(self, kind, params, seed):
        with pytest.raises(ValueError):
            FittedTransformer(kind, params, seed)

    def test_params_are_a_read_only_copy(self):
        params = np.array([[[1.0, 2.0, 4.0]]])
        ft = FittedTransformer("rank", params)
        params[0, 0, 0] = 3.0
        assert ft.params.tolist() == [[[1.0, 2.0, 4.0]]]
        with pytest.raises(ValueError):
            ft.params[0, 0, 0] = 0.0


class TestFittedTransformerFrozen:
    def test_fields_cannot_be_reassigned(self):
        ft = fit_transformer(np.arange(12.0).reshape(6, 2), "rank")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ft.kind = "minmax"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ft.params = np.zeros((2, 1, 6))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ft.seed = 1
        assert ft.params.dtype == np.float64 and not ft.params.flags.writeable
        assert ft.kind == "rank"


class TestCounts:
    """`counts` is the integer numerator of the rank and ARES transforms."""

    x = np.random.default_rng(19).lognormal(size=(400, 3))

    @pytest.mark.parametrize(
        "kind, psi, t", [("rank", None, None), ("ares", 7, 10), ("ares", 256, 50)]
    )
    def test_counts_over_t_is_transform(self, kind, psi, t):
        kw = {} if kind == "rank" else {"subsample_size": psi, "n_subsamples": t}
        ft = fit_transformer(self.x[:300], kind, seed=5, **kw)
        queries = np.vstack([self.x, -self.x[:20], self.x[:20] * 2.0])
        counts = ft.counts(queries)
        assert counts.dtype == np.int64
        t = ft.params.shape[1]
        assert (counts / t).tobytes() == ft.transform(queries).tobytes()
        per_column = np.column_stack(
            [_model(kind, p, ft.seed).transform(queries[:, c]) for c, p in enumerate(ft.params)]
        )
        assert per_column.tobytes() == ft.transform(queries).tobytes()

    @pytest.mark.parametrize("kind", ["minmax", "rank", "ares"])
    def test_zero_row_queries(self, kind):
        """A query of no rows maps to a C-contiguous (0, m) array."""
        ft = fit_transformer(self.x, kind, seed=5)
        maps = [ft.transform] if kind == "minmax" else [ft.transform, ft.counts]
        for mapped in maps:
            out = mapped(np.empty((0, 3)))
            assert out.shape == (0, 3) and out.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["rank", "ares"])
    def test_queries_in_any_layout_map_to_c_order(self, kind):
        """A Fortran-ordered query matrix and a column-sliced view map to the
        C-contiguous int64 counts and float64 transform of the same queries
        in C order, bitwise."""
        ft = fit_transformer(self.x[:300], kind, seed=5)
        queries = np.vstack([self.x, -self.x[:20]])
        wide = np.zeros((len(queries), 5))
        wide[:, 1:4] = queries
        layouts = [np.asfortranarray(queries), wide[:, 1:4]]
        assert not any(q.flags.c_contiguous for q in layouts)
        for mapped, dtype in [(ft.counts, np.int64), (ft.transform, np.float64)]:
            want = mapped(queries)
            for q in layouts:
                out = mapped(q)
                assert out.dtype == dtype and out.flags.c_contiguous
                assert out.tobytes() == want.tobytes()

    def test_minmax_has_no_counts(self):
        ft = fit_transformer(self.x, "minmax")
        with pytest.raises(ValueError):
            ft.counts(self.x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        ft = fit_transformer(self.x, "ares", seed=5)
        q = self.x.copy()
        q[3, 2] = bad
        with pytest.raises(NonFiniteValue):
            ft.counts(q)
