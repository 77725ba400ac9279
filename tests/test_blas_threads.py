"""The learners' outputs do not depend on the OpenBLAS thread count.

The package never sets the count. At N = 2000 and m = 64 the neighbour
search's Gram fill runs on two threads when the count allows it, so these
inputs exercise real threading: integer partial sums are exact in any order,
and the float filter's bound holds for any summation order.
"""

import numpy as np
import pytest

from scalefree.neighbors import knn_classify, lof_scores

from openblas import OPENBLAS_THREADS, needs_openblas


def _outputs(counts, features, labels):
    """KNN predictions and LOF scores on int64 counts and float64 features."""
    out = []
    for x in (counts, features):
        out.append(knn_classify(x[:1500], labels, x[1500:], k=5).tobytes())
        out.append(lof_scores(x, 20).tobytes())
    return out


@needs_openblas
def test_outputs_are_bitwise_equal_on_one_and_two_threads():
    rng = np.random.default_rng(33)
    counts = rng.integers(0, 50, size=(2000, 64))
    features = rng.random((2000, 64)) * 10.0 ** rng.uniform(-2.0, 3.0, size=64)
    labels = rng.integers(0, 3, size=1500)
    get, put = OPENBLAS_THREADS
    saved = get()
    runs = []
    try:
        for threads in (1, 2):
            put(threads)
            if get() != threads:
                pytest.skip("OpenBLAS caps its thread count below 2 here")
            runs.append(_outputs(counts, features, labels))
    finally:
        put(saved)
    assert runs[0] == runs[1]
