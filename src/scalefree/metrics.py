"""Evaluation metrics: exact-match accuracy and rank-based AUC."""

import numpy as np

from .errors import EmptyInput, LengthMismatch, SingleClass


def _check_pair(a: np.ndarray, b: np.ndarray, a_name: str, b_name: str) -> None:
    """Both arrays 1-D and of one length, each named in the error."""
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"expected 1-D {a_name} and {b_name}, got shapes {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise LengthMismatch(f"{a_name} has {a.shape[0]} items, {b_name} has {b.shape[0]}")


def accuracy(predicted, truth) -> float:
    """Fraction of positions where predicted equals truth."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    _check_pair(predicted, truth, "predicted", "truth")
    if predicted.shape[0] == 0:
        raise EmptyInput("cannot compute accuracy of empty sequences")
    return float(np.mean(predicted == truth))


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return upper[inverse] - (counts[inverse] - 1) / 2.0


def auc(scores, is_anomaly) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Mann-Whitney rank-sum form: average ranks over the pooled scores, then
    AUC = (sum of positive ranks - n_pos(n_pos+1)/2) / (n_pos * n_neg).
    """
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(is_anomaly).astype(bool)
    _check_pair(scores, flags, "scores", "flags")
    n_pos = int(flags.sum())
    n_neg = flags.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs at least one positive and one negative")
    ranks = average_ranks(scores)
    return float((ranks[flags].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
