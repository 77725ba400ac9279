"""KNN classification and LOF scoring against brute-force oracles."""

import math

import numpy as np
import pytest

from scalefree.errors import (
    DimensionMismatch,
    EmptyDataset,
    InexactDistances,
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

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_no_test_rows_predict_nothing(self, dtype):
        train = np.array([[0, 1], [2, 3], [4, 5]], dtype=dtype)
        pred = knn_classify(train, ["a", "b", "a"], np.empty((0, 2), dtype=dtype), k=2)
        assert pred.shape == (0,) and pred.dtype == np.array(["a"]).dtype


class TestKnnContracts:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            knn_classify(np.zeros((3, 2)), [0, 1, 0], np.zeros((1, 3)), k=1)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_no_feature_columns(self, dtype):
        with pytest.raises(EmptyDataset, match="no columns"):
            knn_classify(np.empty((3, 0), dtype), [0, 1, 0], np.empty((2, 0), dtype), k=1)

    def test_train_label_count_mismatch(self):
        with pytest.raises(ValueError, match="train labels length does not match train rows"):
            knn_classify(np.zeros((3, 1)), [0, 1], np.zeros((1, 1)), k=1)

    def test_k_exceeds_train(self):
        with pytest.raises(KExceedsTrainSize):
            knn_classify(np.zeros((2, 1)), [0, 1], np.zeros((1, 1)), k=3)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            knn_classify(np.zeros((2, 1)), [0, 1], np.zeros((1, 1)), k=0)

    def test_matrix_fault_is_reported_before_k(self):
        with pytest.raises(NonFiniteValue):
            knn_classify(np.array([[0.0], [np.nan]]), [0, 1], np.zeros((1, 1)), k=0)

    def test_float_k_is_a_type_error_before_any_check(self):
        """Named, and raised before the NaN matrix is looked at; it once
        failed inside the search with numpy's own TypeError."""
        with pytest.raises(TypeError, match="^k must be an integer, got float$"):
            knn_classify(np.array([[0.0], [np.nan]]), [0, 1], np.zeros((1, 1)), k=2.5)
        with pytest.raises(TypeError, match="^k must be an integer"):
            knn_classify(np.zeros((3, 1)), [0, 1, 0], np.zeros((1, 1)), k=np.float64(1.0))

    def test_numpy_integer_k(self):
        train, labels = np.array([[0.0], [1.0], [5.0], [6.0]]), ["a", "a", "b", "b"]
        for k in (np.int8(3), np.int64(3), np.uint16(3)):
            assert knn_classify(train, labels, [[0.5], [5.5]], k).tolist() == ["a", "b"]

    def test_2d_train_labels_rejected(self):
        """Stacked labels pass the length check but once tallied a
        mis-broadcast vote."""
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(12, 2)), np.arange(12) % 3
        with pytest.raises(ValueError, match="1-D train labels"):
            knn_classify(x, np.stack([y, y], 1), x[:3], 3)
        with pytest.raises(ValueError, match="1-D train labels"):
            knn_classify(x[:1], 0, x[:1], 1)

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

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_infinite_density_neighbours_give_infinite_score(self, dtype):
        # the far row's neighbours all have infinite density, and inf enters its sum
        x = np.array([[0, 0], [0, 0], [0, 0], [1, 0]], dtype=dtype)
        want = np.array([1.0, 1.0, 1.0, np.inf])
        assert np.array_equal(lof_scores(x, 2), want)
        assert np.array_equal(_lof_bruteforce(x, 2), want)


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

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_no_feature_columns(self, dtype):
        with pytest.raises(EmptyDataset, match="no columns"):
            lof_scores(np.empty((5, 0), dtype), 2)

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

    def test_matrix_fault_is_reported_before_n_neighbors(self):
        with pytest.raises(NonFiniteValue):
            lof_scores(np.array([[0.0], [np.nan], [1.0]]), 0)

    def test_float_n_neighbors_is_a_type_error_before_any_check(self):
        with pytest.raises(TypeError, match="^n_neighbors must be an integer, got float$"):
            lof_scores(np.array([[0.0], [np.nan], [1.0]]), 3.0)

    def test_numpy_integer_n_neighbors(self):
        x = np.random.default_rng(8).normal(size=(20, 3))
        want = lof_scores(x, 4)
        for k in (np.int8(4), np.int64(4), np.uint32(4)):
            assert lof_scores(x, k).tobytes() == want.tobytes()


_TRAIN, _TEST, _LOF = "knn-train", "knn-test", "lof"
_ANY = (_TRAIN, _TEST, _LOF)


def _with(value, dtype=np.float64):
    """Four rows of two features, one of them ``value``."""
    x = np.array([[0, 0], [1, 2], [2, 1], [3, 3]], dtype=dtype)
    x[1, 0] = value
    return x


_NOT_FINITE = "feature matrix contains NaN or infinite values"
# (fault, the learner inputs it is put in, the faulty matrix, a healthy one
# for KNN's other input, the error, its message)
_INPUT_FAULTS = [
    ("1-D", _ANY, np.zeros(4), np.zeros((3, 1)), ValueError, "expected a 2-D feature matrix"),
    ("no-columns", _ANY, np.empty((4, 0)), np.empty((3, 0)), EmptyDataset,
     "feature matrix has no columns"),
    ("nan", _ANY, _with(np.nan), np.zeros((3, 2)), NonFiniteValue, _NOT_FINITE),
    ("+inf", _ANY, _with(np.inf), np.zeros((3, 2)), NonFiniteValue, _NOT_FINITE),
    ("-inf", _ANY, _with(-np.inf), np.zeros((3, 2)), NonFiniteValue, _NOT_FINITE),
    # 4·2·(2**25)² = 2**53, the least integer bound that fails
    ("int64-bound", _ANY, _with(-(2**25), np.int64), np.zeros((3, 2), np.int64),
     InexactDistances, "integer features up to 33554432 in 2 columns exceed the exact "
     "float64 range of squared distances (4·m·max|x|² must be below 2**53)"),
    # 4·2·(1e154)² = 8e308 overflows
    ("float-overflow", _ANY, _with(1e154), np.zeros((3, 2)), InexactDistances,
     "float features up to 1e+154 in 2 columns overflow the float64 range of squared "
     "distances (4·m·max|x|² must be finite)"),
    ("unequal-columns", (_TRAIN,), np.zeros((4, 3)), np.zeros((3, 2)), DimensionMismatch,
     "train has 3 columns, test has 2"),
    ("unequal-columns", (_TEST,), np.zeros((4, 3)), np.zeros((3, 2)), DimensionMismatch,
     "train has 2 columns, test has 3"),
]  # fmt: skip


@pytest.mark.parametrize(
    "position, bad, other, error, message",
    [
        pytest.param(position, *case, id=f"{position}-{fault}")
        for fault, positions, *case in _INPUT_FAULTS
        for position in positions
    ],
)
def test_each_input_fault_raises_its_error_and_message(position, bad, other, error, message):
    with pytest.raises(error) as raised:
        if position == _TRAIN:
            knn_classify(bad, np.arange(len(bad)) % 2, other, k=1)
        elif position == _TEST:
            knn_classify(other, np.arange(len(other)) % 2, bad, k=1)
        else:
            lof_scores(bad, 1)
    assert type(raised.value) is error
    assert str(raised.value) == message
