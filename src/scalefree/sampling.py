"""Deterministic seeded sampling for the sub-sample ensemble.

All randomness in the package flows from one 64-bit seed, expanded with a
splitmix64-style mixer. Sub-sample selection works on ROW INDICES, never on
values, so replacing a column's values by any monotone rescaling leaves the
selected rows unchanged. That index stability is what makes the rank-based
transforms exactly invariant under increasing changes of scale.

Seed expansion map (documented so results are reproducible from one knob):
    sub-sample draw j of column c:  derive_seed(base, 0xA5, c, j)
    fold permutation:               derive_seed(base, 0xF0)
    per-fold fit seed (CV):         derive_seed(base, 0xC5, fold_index)
"""

import numpy as np

from .errors import PsiNonPositive, PsiTooLarge

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

DOMAIN_SUBSAMPLE = 0xA5
DOMAIN_FOLD = 0xF0
DOMAIN_CV_FIT = 0xC5


def _mix(z: int) -> int:
    """splitmix64 finalizer: full-avalanche mix of a 64-bit word."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *components: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    Pure 64-bit integer arithmetic, so the expansion is identical on every
    platform and independent of any numpy RNG version.
    """
    s = base_seed & _MASK64
    for c in components:
        s = _mix(s ^ (int(c) & _MASK64))
    return s


def subsample_seed(base_seed: int, column_index: int, subsample_index: int) -> int:
    """Stream seed for one sub-sample draw of one column."""
    return derive_seed(base_seed, DOMAIN_SUBSAMPLE, column_index, subsample_index)


def fold_seed(base_seed: int) -> int:
    """Stream seed for the cross-validation fold permutation."""
    return derive_seed(base_seed, DOMAIN_FOLD)


def cv_fit_seed(base_seed: int, fold_index: int) -> int:
    """Base seed for fitting a transformer inside one CV fold."""
    return derive_seed(base_seed, DOMAIN_CV_FIT, fold_index)


def subsample_indices(n_rows: int, size: int, stream_seed: int) -> np.ndarray:
    """Pick `size` distinct row indices out of `n_rows`, uniformly.

    Uses Floyd's algorithm, O(size) expected, so drawing a small sub-sample
    never touches the full index range. Returns the indices sorted.

    Raises PsiNonPositive if size < 1 and PsiTooLarge if size > n_rows.
    """
    if size < 1:
        raise PsiNonPositive(f"sub-sample size must be >= 1, got {size}")
    if size > n_rows:
        raise PsiTooLarge(
            f"sub-sample size {size} exceeds column length {n_rows}"
        )
    chosen: set[int] = set()
    picks = []
    for k, i in enumerate(range(n_rows - size, n_rows)):
        # Draw k of the splitmix64 stream from stream_seed. The modulo bias
        # is < n / 2**64: irrelevant for n well under 2**32, and determinism
        # matters more here than the last bias bit.
        j = _mix((stream_seed + k * _GOLDEN) & _MASK64) % (i + 1)
        if j in chosen:
            j = i
        chosen.add(j)
        picks.append(j)
    out = np.array(picks, dtype=np.int64)
    out.sort()
    return out


def draw_subsample(values: np.ndarray, size: int, stream_seed: int) -> np.ndarray:
    """Draw one sub-sample of a column: distinct rows, values sorted ascending.

    Selection depends only on (len(values), size, stream_seed); the values
    stored at the selected rows play no part in which rows are picked.
    """
    values = np.asarray(values, dtype=np.float64)
    idx = subsample_indices(values.shape[0], size, stream_seed)
    out = values[idx]
    out.sort()
    return out
