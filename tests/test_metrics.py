"""Accuracy and rank-based AUC."""

import numpy as np
import pytest

from scalefree.errors import EmptyInput, LengthMismatch, SingleClass
from scalefree.metrics import accuracy, auc, average_ranks


def _auc_bruteforce(scores, flags):
    """Independent oracle: enumerate every positive/negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    pos = scores[flags]
    neg = scores[~flags]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestAccuracy:
    def test_identical(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 2, 3], [4, 5, 6]) == 0.0

    def test_partial(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            accuracy([], [])

    def test_only_1d_inputs(self):
        """A column of truths once broadcast to 4 x 4 and read 0.5, not 1.0."""
        with pytest.raises(ValueError, match="1-D predicted and truth"):
            accuracy([0, 1, 0, 1], [[0], [1], [0], [1]])
        with pytest.raises(ValueError, match="1-D predicted and truth"):
            accuracy([[0, 1]], [[0, 1]])
        with pytest.raises(ValueError, match="1-D predicted and truth"):
            accuracy(1, 1)


class TestAverageRanks:
    def test_matches_naive_definition(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            values = rng.integers(0, 6, size=int(rng.integers(2, 30))).astype(float)
            got = average_ranks(values)
            # naive: mean of the 1-based positions each tied value occupies
            order = np.argsort(values, kind="stable")
            naive = np.empty_like(values)
            sorted_vals = values[order]
            positions = np.arange(1, values.size + 1, dtype=float)
            for i, v in enumerate(values):
                naive[i] = positions[sorted_vals == v].mean()
            assert np.allclose(got, naive)

    def test_handles_inf(self):
        got = average_ranks([1.0, np.inf, np.inf, 0.0])
        assert np.array_equal(got, [2.0, 3.5, 3.5, 1.0])


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([3.0, 3.0, 3.0, 3.0], [0, 1, 0, 1]) == 0.5

    def test_pairwise_example(self):
        # wins: 0.9>0.5, 0.9>0.1, 0.4>0.1; loss: 0.4<0.5 -> 3/4
        scores = [0.9, 0.4, 0.5, 0.1]
        flags = [1, 1, 0, 0]
        assert auc(scores, flags) == 0.75
        assert _auc_bruteforce(scores, flags) == 0.75

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 8, size=n).astype(float)  # plenty of ties
            flags = rng.integers(0, 2, size=n).astype(bool)
            if flags.all() or not flags.any():
                continue
            assert auc(scores, flags) == pytest.approx(
                _auc_bruteforce(scores, flags), abs=1e-12
            )

    def test_complement_under_negation(self):
        """auc(s) + auc(-s) = 1 when no scores tie."""
        rng = np.random.default_rng(53)
        scores = rng.permutation(np.arange(30, dtype=float))
        flags = rng.integers(0, 2, size=30).astype(bool)
        flags[0], flags[1] = True, False
        assert auc(scores, flags) + auc(-scores, flags) == pytest.approx(1.0, abs=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            auc([1.0, 2.0], [1, 1])
        with pytest.raises(SingleClass):
            auc([1.0, 2.0], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            auc([1.0], [1, 0])

    def test_only_1d_scores_and_flags(self):
        """A 4 x 2 score matrix once returned 4.75, which is no probability."""
        with pytest.raises(ValueError, match="1-D scores and flags"):
            auc(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="1-D scores and flags"):
            auc([0.1, 0.2, 0.3, 0.4], [[0], [1], [0], [1]])
        with pytest.raises(ValueError, match="1-D scores and flags"):
            auc(0.5, 1)

    def test_infinite_scores_rank_highest(self):
        assert auc([0.5, np.inf, 0.2], [0, 1, 0]) == 1.0
