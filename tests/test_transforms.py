"""Column transforms: fitting, querying, ties, and the invariance laws."""

import sys

import numpy as np
import pytest

from scalefree.data import Dataset
from scalefree.errors import (
    ColumnCountMismatch,
    EmptyColumn,
    EmptyDataset,
    NonFiniteValue,
    PsiNonPositive,
    PsiTooLarge,
)
from scalefree.transforms import (
    AresModel,
    FittedTransformer,
    MinMaxParams,
    RankModel,
    fit_ares,
    fit_minmax,
    fit_rank,
    fit_transformer,
    rank_in_subsample,
)


class TestMinMax:
    def test_fit_extrema(self):
        p = fit_minmax([2.0, 10.0, 6.0])
        assert (p.min, p.max) == (2.0, 10.0)
        p = fit_minmax([-1.0, 0.0, 3.0])
        assert (p.min, p.max) == (-1.0, 3.0)

    def test_fit_constant_column(self):
        p = fit_minmax([5.0, 5.0, 5.0])
        assert (p.min, p.max) == (5.0, 5.0)

    def test_fit_empty_column(self):
        with pytest.raises(EmptyColumn):
            fit_minmax([])

    def test_fit_rejects_nan(self):
        with pytest.raises(NonFiniteValue):
            fit_minmax([1.0, np.nan])

    def test_transform_endpoints(self):
        p = MinMaxParams(2.0, 10.0)
        assert p.transform(2.0) == 0.0
        assert p.transform(10.0) == 1.0

    def test_transform_does_not_clamp(self):
        p = MinMaxParams(2.0, 10.0)
        assert p.transform(12.0) == (12.0 - 2.0) / (10.0 - 2.0)
        assert p.transform(0.0) < 0.0

    def test_degenerate_range_maps_to_zero(self):
        p = MinMaxParams(5.0, 5.0)
        assert np.array_equal(p.transform([4.0, 5.0, 99.0]), np.zeros(3))

    def test_monotone(self):
        p = MinMaxParams(-3.0, 7.0)
        queries = np.sort(np.random.default_rng(0).uniform(-10, 10, size=200))
        assert np.all(np.diff(p.transform(queries)) >= 0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MinMaxParams(2.0, 1.0)

    def test_range_beyond_float_max(self):
        col = [-1e308, 0.0, 1e308]
        out = fit_minmax(col).transform(col)
        assert out.tolist() == [0.0, 0.5, 1.0]
        p = MinMaxParams(-sys.float_info.max, sys.float_info.max)
        assert p.transform([p.min, 0.0, p.max]).tolist() == [0.0, 0.5, 1.0]

    def test_query_far_beyond_finite_range(self):
        p = MinMaxParams(-1e308, 0.0)
        assert p.transform(1e308) == 2.0
        assert p.transform([-1e308, 5e-324, 1e308]).tolist() == [0.0, 1.0, 2.0]
        assert MinMaxParams(1e308, 1.5e308).transform(-1e308) == -4.0

    def test_finite_range_unchanged_bitwise(self):
        rng = np.random.default_rng(7)
        for scale in (1e-300, 1e-5, 1.0, 1e5, 1e300):
            col = rng.normal(scale=scale, size=300)
            p = fit_minmax(col)
            queries = np.concatenate([col, rng.normal(scale=2 * scale, size=100), [-0.0]])
            expected = (queries - p.min) / (p.max - p.min)
            assert p.transform(queries).tobytes() == expected.tobytes()


class TestRank:
    def test_fit_sorts(self):
        m = fit_rank([5.0, 1.0, 3.0])
        assert np.array_equal(m.sorted_train, [1.0, 3.0, 5.0])

    def test_fit_keeps_duplicates(self):
        m = fit_rank([2.0, 2.0, 2.0])
        assert np.array_equal(m.sorted_train, [2.0, 2.0, 2.0])

    def test_fit_singleton(self):
        m = fit_rank([7.0])
        assert np.array_equal(m.sorted_train, [7.0])

    def test_strictly_less_counting(self):
        m = RankModel(np.array([1.0, 3.0, 5.0]))
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

    def test_deterministic_bitwise(self):
        col = np.random.default_rng(5).normal(size=120)
        a = fit_ares(col, seed=77)
        b = fit_ares(col, seed=77)
        assert a.subsamples.tobytes() == b.subsamples.tobytes()

    def test_column_index_changes_draws(self):
        col = np.random.default_rng(6).normal(size=120)
        a = fit_ares(col, seed=77, column_index=0)
        b = fit_ares(col, seed=77, column_index=1)
        assert not np.array_equal(a.subsamples, b.subsamples)


class TestAresTransform:
    def test_hand_example(self):
        # x=4: one of [1,5] below it, one of [3,9] below it -> (1+1)/2
        m = AresModel(np.array([[1.0, 5.0], [3.0, 9.0]]), seed=0)
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


def _distinct_column(rng, n):
    """Strictly increasing values with comfortable gaps, then shuffled."""
    values = np.cumsum(rng.uniform(0.01, 1.0, size=n))
    return rng.permutation(values)


class TestScaleInvariance:
    increasing_maps = [
        lambda x: 3.5 * x + 2.0,
        lambda x: np.exp(x / 10.0),
        lambda x: x**3,
    ]

    def test_rank_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(10)
        col = _distinct_column(rng, 150)
        queries = np.sort(col)[:-1] + np.diff(np.sort(col)) / 2
        base = fit_rank(col).transform(queries)
        for g in self.increasing_maps:
            mapped = fit_rank(g(col)).transform(g(queries))
            assert np.array_equal(mapped, base)

    def test_ares_invariant_under_increasing_maps(self):
        rng = np.random.default_rng(11)
        col = _distinct_column(rng, 150)
        queries = np.concatenate([col, np.sort(col)[:-1] + np.diff(np.sort(col)) / 2])
        base = fit_ares(col, seed=21).transform(queries)
        for g in self.increasing_maps:
            mapped = fit_ares(g(col), seed=21).transform(g(queries))
            assert np.array_equal(mapped, base)

    def test_reversal_under_negation_no_collisions(self):
        """For queries distinct from every sampled value, negation flips the
        average rank to (size - value), exactly in integer rank arithmetic."""
        rng = np.random.default_rng(12)
        col = _distinct_column(rng, 100)
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
        col = _distinct_column(rng, 100)
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
            ft.columns[0].transform(bad)

    def test_ares_requires_seed(self):
        with pytest.raises(ValueError):
            fit_transformer(np.random.default_rng(0).normal(size=(10, 2)), "ares")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_transformer(np.ones((3, 1)), "zscore")

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
        solo = fit_ares(x[:, 2], seed=4, column_index=2)
        assert np.array_equal(ft.columns[2].subsamples, solo.subsamples)

    def test_labels_pass_through(self):
        rng = np.random.default_rng(17)
        ds = Dataset("d", rng.normal(size=(20, 2)), labels=np.arange(20))
        ft = fit_transformer(ds.features, "rank")
        out = ft.transform_dataset(ds)
        assert np.array_equal(out.labels, ds.labels)
        assert out.feature_names == ds.feature_names


class TestFittedTransformerColumns:
    """Columns carry the model: their class must match the kind, and ARES
    columns must share one psi, t and seed."""

    col = np.arange(30.0)

    def test_ensemble_read_from_columns(self):
        columns = [fit_ares(self.col, 6, 4, seed=8, column_index=c) for c in range(3)]
        ft = FittedTransformer("ares", columns)
        assert (ft.subsample_size, ft.n_subsamples, ft.seed) == (6, 4, 8)
        rank = FittedTransformer("rank", [fit_rank(self.col)])
        assert (rank.subsample_size, rank.n_subsamples, rank.seed) == (None, None, None)

    @pytest.mark.parametrize(
        "kind, fit", [("rank", lambda col: fit_ares(col, seed=1)), ("minmax", fit_rank)]
    )
    def test_kind_rejects_other_columns(self, kind, fit):
        with pytest.raises(ValueError):
            FittedTransformer(kind, [fit(self.col)])

    @pytest.mark.parametrize(
        "other", [{"subsample_size": 5}, {"n_subsamples": 3}, {"seed": 2}]
    )
    def test_ares_columns_must_share_ensemble(self, other):
        first = fit_ares(self.col, seed=1)
        second = fit_ares(self.col, **{"seed": 1, **other}, column_index=1)
        with pytest.raises(ValueError):
            FittedTransformer("ares", [first, second])
