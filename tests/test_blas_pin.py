"""The neighbour search runs its BLAS fill on one OpenBLAS thread.

`neighbors._one_blas_thread` sets numpy's bundled OpenBLAS to one thread and
restores the count it found, also after an exception and when searches on
several threads overlap. Without those OpenBLAS symbols it does nothing, and
the learners give the same results.
"""

import threading

import numpy as np
import pytest

from scalefree import neighbors
from scalefree.neighbors import _one_blas_thread, knn_classify, lof_scores

needs_openblas = pytest.mark.skipif(
    neighbors._BLAS_THREADS is None, reason="numpy does not link its bundled OpenBLAS"
)


@pytest.fixture
def two_threads():
    """The OpenBLAS count set to 2 for the test, and the count found before
    restored after it."""
    get, put = neighbors._BLAS_THREADS
    saved = get()
    put(2)
    if get() != 2:
        put(saved)
        pytest.skip("OpenBLAS caps its thread count below 2 here")
    yield get
    put(saved)


@needs_openblas
def test_one_thread_inside_and_previous_count_after(two_threads):
    with _one_blas_thread():
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_previous_count_restored_after_an_exception(two_threads):
    with pytest.raises(RuntimeError, match="mid-search"):
        with _one_blas_thread():
            raise RuntimeError("mid-search")
    assert two_threads() == 2


@needs_openblas
def test_overlapping_searches_restore_the_first_count(two_threads):
    """Thread A pins, the main thread pins, A leaves, then the main thread
    leaves: the count is 1 until the last one leaves, and 2 after."""
    entered, leave = threading.Event(), threading.Event()

    def search():
        with _one_blas_thread():
            entered.set()
            leave.wait(timeout=10)

    worker = threading.Thread(target=search)
    worker.start()
    assert entered.wait(timeout=10)
    with _one_blas_thread():
        leave.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_every_block_fill_runs_on_one_thread(two_threads, monkeypatch):
    counts = []
    distance_rows = neighbors._distance_rows

    def spy(ref, queries):
        fill, qn, slack = distance_rows(ref, queries)

        def counted(start, stop, out):
            counts.append(two_threads())
            fill(start, stop, out)

        return counted, qn, slack

    monkeypatch.setattr(neighbors, "_distance_rows", spy)
    monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 8 * 3 * 40)
    monkeypatch.setattr(neighbors, "_MIN_BLOCK_ROWS", 1)
    x = np.random.default_rng(31).integers(0, 9, size=(40, 6))
    lof_scores(x, 4)
    lof_scores(x.astype(np.float64), 4)
    assert len(counts) == 2 * 14 and set(counts) == {1}
    assert two_threads() == 2


@needs_openblas
def test_without_the_symbols_the_pin_does_nothing(two_threads, monkeypatch):
    rng = np.random.default_rng(32)
    x = rng.integers(0, 9, size=(60, 5))
    labels = np.arange(40) % 3
    want_lof = lof_scores(x, 4)
    want_knn = knn_classify(x[:40], labels, x[40:].astype(np.float64), k=3)

    monkeypatch.setattr(neighbors.ctypes, "CDLL", lambda path: object())
    assert neighbors._openblas_threads() is None
    monkeypatch.setattr(neighbors, "_BLAS_THREADS", None)
    with _one_blas_thread():
        assert two_threads() == 2
    assert lof_scores(x, 4).tobytes() == want_lof.tobytes()
    assert np.array_equal(knn_classify(x[:40], labels, x[40:].astype(np.float64), k=3), want_knn)
