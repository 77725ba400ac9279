"""The block writers against the one-cell-at-a-time ones.

`tests/reference_io.py` keeps the writers as they were before each
distinct float was formatted once and rows and model blocks were joined as
text: csv's writer per row, one `json.dump` per model. Files must come out
byte for byte the same. Values are drawn from small adversarial sets, so
heavy ties, signed zeros, subnormals and magnitudes near the float64
maximum all occur; labels and feature names include fields csv must quote,
and a file can span more than one write block.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_io
from scalefree.data import _WRITE_BLOCK_ROWS, Dataset, save_csv
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


LABEL_TEXTS = ['a,b', 'say "hi"', " x ", "ü", "", "a\r\nb", "\n", "1.5"]
NAMES = ["a,b", 'say "hi"', "x\ny", " z "]


@settings(max_examples=60, deadline=None)
@given(
    atoms=ATOMS,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(0, 30), st.integers(_WRITE_BLOCK_ROWS - 2, _WRITE_BLOCK_ROWS + 3)),
    m=st.integers(0, 4),
    labels=st.sampled_from([None, "int", "text"]),
    quoted_names=st.booleans(),
)
@example(atoms=[0.0, -0.0, 5e-324, -5e-324], seed=0, n=12, m=3, labels=None, quoted_names=False)
@example(atoms=[1.0, 0.1], seed=0, n=_WRITE_BLOCK_ROWS + 5, m=2, labels="text", quoted_names=True)
@example(atoms=[1.0], seed=0, n=len(LABEL_TEXTS), m=0, labels="text", quoted_names=False)
def test_save_csv_bytes(tmp_path_factory, atoms, seed, n, m, labels, quoted_names):
    x = _matrix(atoms, seed, n, m)
    rng = np.random.default_rng(seed + 1)
    if labels == "int":
        labels = rng.integers(0, 3, size=n)
    elif labels == "text":
        labels = rng.choice(LABEL_TEXTS, size=n)
    ds = Dataset("d", x, feature_names=NAMES[:m] if quoted_names else [], labels=labels)
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
