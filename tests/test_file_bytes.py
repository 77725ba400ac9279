"""The streamed CSV and model writers against the one-cell-at-a-time ones.

`tests/reference_io.py` keeps the writers as they were before rows went
through the C csv writer as floats and model blocks through json's C
encoder. Files must come out byte for byte the same. Values are
drawn from small adversarial sets, so heavy ties, signed zeros, subnormals
and magnitudes near the float64 maximum all occur.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_io
from scalefree.data import Dataset, save_csv
from scalefree.model_io import save_model
from scalefree.transforms import fit_transformer

TINY = np.finfo(np.float64).smallest_normal
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1.0, -1.0, 0.1, 1e308, -1e308,
           float(np.finfo(np.float64).max), -float(np.finfo(np.float64).max)]

ATOMS = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=8,
)


def _matrix(atoms, seed, n, m):
    return np.random.default_rng(seed).choice(np.asarray(atoms, dtype=np.float64), size=(n, m))


def _same_bytes(tmp_path_factory, write, reference, obj):
    out = tmp_path_factory.mktemp("bytes")
    write(obj, out / "new")
    reference(obj, out / "ref")
    return (out / "new").read_bytes() == (out / "ref").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    atoms=ATOMS,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    m=st.integers(1, 4),
    labels=st.sampled_from([None, "int", "text"]),
)
@example(atoms=[0.0, -0.0, 5e-324, -5e-324], seed=0, n=12, m=3, labels=None)
def test_save_csv_bytes(tmp_path_factory, atoms, seed, n, m, labels):
    x = _matrix(atoms, seed, n, m)
    if labels == "int":
        labels = np.arange(n) % 3
    elif labels == "text":
        labels = np.array([['a,b', 'say "hi"', " x ", "ü"][r % 4] for r in range(n)])
    ds = Dataset("d", x, labels=labels)
    assert _same_bytes(tmp_path_factory, save_csv, reference_io.save_csv, ds)


@settings(max_examples=40, deadline=None)
@given(
    atoms=ATOMS,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    m=st.integers(1, 3),
    kind=st.sampled_from(["minmax", "rank", "ares"]),
    shape=st.tuples(st.integers(1, 30), st.integers(1, 12)),
)
def test_save_model_bytes(tmp_path_factory, atoms, seed, n, m, kind, shape):
    x = _matrix(atoms, seed, n, m)
    psi, t = min(shape[0], n), shape[1]
    ft = fit_transformer(x, kind, subsample_size=psi, n_subsamples=t, seed=seed)
    assert _same_bytes(tmp_path_factory, save_model, reference_io.save_model, ft)
