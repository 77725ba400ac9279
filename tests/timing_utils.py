"""Timing helpers for the performance-shape tests."""

import time


def best_call_time(fn, repeats=5, min_window=0.05):
    """Per-call seconds for fn, as min over `repeats` measurement windows.

    The inner repetition count is calibrated so every window lasts at least
    min_window seconds, which keeps timer resolution and scheduler noise out
    of the ratios.
    """
    fn()
    inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        window = time.perf_counter() - start
        if window >= min_window:
            break
        grown = int(inner * min_window / max(window, 1e-9)) + 1
        inner = max(inner + 1, grown)
    best = window / inner
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        window = time.perf_counter() - start
        best = min(best, window / inner)
    return best
