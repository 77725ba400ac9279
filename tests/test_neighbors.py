"""KNN classification and LOF scoring against brute-force oracles."""

import math

import numpy as np
import pytest

from scalefree.errors import (
    DimensionMismatch,
    KExceedsTrainSize,
    NonFiniteValue,
    TooFewRows,
)
from scalefree.neighbors import knn_classify, lof_scores


def _knn_bruteforce(train_x, train_y, test_x, k):
    """Independent oracle: full sort on (distance, index), counted votes."""
    classes = sorted(set(np.asarray(train_y).tolist()))
    preds = []
    for q in np.asarray(test_x, dtype=float):
        ranked = sorted(
            (float(((row - q) ** 2).sum()), i)
            for i, row in enumerate(np.asarray(train_x, dtype=float))
        )
        votes = {c: 0 for c in classes}
        for _, i in ranked[:k]:
            votes[train_y[i]] += 1
        preds.append(max(votes.items(), key=lambda kv: kv[1])[0])
    return np.array(preds)


def _lof_bruteforce(x, k):
    """Independent oracle: the textbook definition, plain loops."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    dist = [[math.dist(x[i], x[j]) for j in range(n)] for i in range(n)]

    def kdist(i):
        return sorted(dist[i][j] for j in range(n) if j != i)[k - 1]

    def neighborhood(i):
        kd = kdist(i)
        return [j for j in range(n) if j != i and dist[i][j] <= kd]

    def lrd(i):
        nb = neighborhood(i)
        total = sum(max(kdist(j), dist[i][j]) for j in nb)
        return math.inf if total == 0 else len(nb) / total

    scores = []
    for i in range(n):
        own = lrd(i)
        if math.isinf(own):
            scores.append(1.0)
        else:
            nb = neighborhood(i)
            scores.append(sum(lrd(j) for j in nb) / (len(nb) * own))
    return np.array(scores)


class TestKnnExamples:
    def test_nearest_point(self):
        pred = knn_classify([[0.0], [10.0]], ["A", "B"], [[1.0]], k=1)
        assert pred.tolist() == ["A"]

    def test_majority_overrules_nearest(self):
        # test point 9: distances 81, 49, 1 -> neighbors B,A,A with k=3 -> A
        pred = knn_classify([[0.0], [2.0], [10.0]], ["A", "A", "B"], [[9.0]], k=3)
        assert pred.tolist() == ["A"]

    def test_single_training_point(self):
        pred = knn_classify([[3.0, 4.0]], ["only"], [[100.0, -2.0]], k=1)
        assert pred.tolist() == ["only"]

    def test_training_point_maps_to_own_label(self):
        rng = np.random.default_rng(61)
        train = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        pred = knn_classify(train, labels, train[[5, 17, 33]], k=1)
        assert pred.tolist() == labels[[5, 17, 33]].tolist()

    def test_distance_tie_goes_to_lower_index(self):
        # both training points sit at distance 1 from the query
        pred = knn_classify([[1.0], [-1.0]], ["hi", "lo"], [[0.0]], k=1)
        assert pred.tolist() == ["hi"]

    def test_vote_tie_goes_to_smallest_label(self):
        train = [[0.0], [0.0], [0.0], [0.0]]
        pred = knn_classify(train, ["b", "a", "b", "a"], [[0.0]], k=4)
        assert pred.tolist() == ["a"]


class TestKnnContracts:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            knn_classify(np.zeros((3, 2)), [0, 1, 0], np.zeros((1, 3)), k=1)

    def test_k_exceeds_train(self):
        with pytest.raises(KExceedsTrainSize):
            knn_classify(np.zeros((2, 1)), [0, 1], np.zeros((1, 1)), k=3)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            knn_classify(np.zeros((2, 1)), [0, 1], np.zeros((1, 1)), k=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        train = np.zeros((4, 2))
        test = np.ones((2, 2))
        test[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            knn_classify(train, [0, 1, 0, 1], test, k=1)
        with pytest.raises(NonFiniteValue):
            knn_classify(test, [0, 1], train, k=1)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(62)
        for trial in range(30):
            n, m = int(rng.integers(5, 40)), int(rng.integers(1, 5))
            train = rng.normal(size=(n, m))
            labels = rng.integers(0, 3, size=n)
            test = rng.normal(size=(8, m))
            k = int(rng.integers(1, n + 1))
            got = knn_classify(train, labels, test, k=k)
            want = _knn_bruteforce(train, labels, test, k)
            assert np.array_equal(got, want), f"trial {trial}"


class TestLofExamples:
    def test_unit_square_corners_all_one(self):
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(lof_scores(corners, 2), np.ones(4))

    def test_far_point_has_max_score(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
        got = lof_scores(x, 2)
        assert got[4] > got[:4].max()
        assert np.allclose(got, _lof_bruteforce(x, 2), rtol=1e-9)

    def test_all_identical_rows_score_one(self):
        x = np.tile([2.5, -1.0], (6, 1))
        assert np.array_equal(lof_scores(x, 2), np.ones(6))
        assert np.array_equal(_lof_bruteforce(x, 2), np.ones(6))


class TestLofProperties:
    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(63)
        for trial in range(10):
            n = int(rng.integers(10, 45))
            x = rng.normal(size=(n, 3))
            k = int(rng.integers(1, min(8, n - 1) + 1))
            assert np.allclose(
                lof_scores(x, k), _lof_bruteforce(x, k), rtol=1e-9
            ), f"trial {trial}"

    def test_matches_bruteforce_with_duplicates_and_ties(self):
        # grid coordinates force exact distance ties and repeated rows
        rng = np.random.default_rng(64)
        x = rng.integers(0, 3, size=(30, 2)).astype(float)
        for k in (1, 2, 4):
            assert np.allclose(lof_scores(x, k), _lof_bruteforce(x, k), rtol=1e-9)

    def test_affine_invariance(self):
        """Scaling and shifting all coordinates uniformly cancels in the ratios."""
        rng = np.random.default_rng(65)
        x = rng.normal(size=(60, 4))
        base = lof_scores(x, 7)
        assert np.allclose(lof_scores(2.0 * x, 7), base, rtol=1e-12)
        assert np.allclose(lof_scores(0.37 * x + 11.0, 7), base, rtol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            lof_scores(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.arange(12.0).reshape(6, 2)
        x[3, 1] = bad
        with pytest.raises(NonFiniteValue):
            lof_scores(x, 2)

    def test_neighbor_count_below_one(self):
        with pytest.raises(ValueError):
            lof_scores(np.zeros((3, 2)), 0)
