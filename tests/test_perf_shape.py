"""Cost-shape trends of a fitted ensemble-rank model's counts.

Doubling the query count or the ensemble size should roughly double the
batch time (checked with exact ratio bounds in the acceptance suite);
here we check the remaining axis: growing the sub-sample size only adds a
logarithmic search factor, so quadrupling it must increase the time of
`FittedTransformer.counts` sublinearly.
"""

import numpy as np

from conftest import fit_column
from timing_utils import best_call_time


def test_subsample_size_cost_grows_sublinearly():
    rng = np.random.default_rng(131)
    train = rng.normal(size=20_000)
    queries = rng.normal(size=(100_000, 1))

    times = []
    for size in (64, 256, 1024):
        model = fit_column(train, "ares", subsample_size=size, n_subsamples=4, seed=1)
        counts = model.transformer.counts
        times.append(best_call_time(lambda: counts(queries)))

    for smaller, larger in zip(times, times[1:]):
        ratio = larger / smaller
        assert ratio < 1.8, f"quadrupling sub-sample size cost ratio {ratio:.2f}"
        assert ratio > 0.85, f"cost unexpectedly shrank, ratio {ratio:.2f}"
