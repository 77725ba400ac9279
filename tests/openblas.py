"""The thread count of numpy's bundled OpenBLAS, read and set through ctypes.

The package never sets the count. The tests read it to check that, and set
it to check that the learners' outputs do not depend on it.
"""

import ctypes

import numpy as np
import pytest


def _lookup():
    """``(get, put)``, which read and set the count, or None when numpy links
    another BLAS or names them otherwise (numpy 1.x). The extension module's
    handle resolves the symbols through its own dependencies, so no library
    path is needed."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


OPENBLAS_THREADS = _lookup()

needs_openblas = pytest.mark.skipif(
    OPENBLAS_THREADS is None, reason="numpy does not link its bundled OpenBLAS"
)
