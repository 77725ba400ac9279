"""Deterministic seeded sampling for the sub-sample ensemble.

All randomness in the package flows from one 64-bit seed, expanded with a
splitmix64-style mixer on uint64 arrays (array arithmetic wraps mod 2**64
silently; numpy scalars would warn, so every word is kept in an array).
Sub-sample selection works on ROW INDICES, never on values, so replacing a
column's values by any monotone rescaling leaves the selected rows unchanged.
That index stability is what makes the rank-based transforms exactly
invariant under increasing changes of scale.

Seed expansion map (documented so results are reproducible from one knob):
    sub-sample draw j of column c:  derive_seed(base, 0xA5, c, j)
    fold permutation:               derive_seed(base, 0xF0), then
                                    permutation(n, that seed)
    per-fold fit seed (CV):         derive_seed(base, 0xC5, fold_index)

Every draw, the fold permutation included, comes from these uint64 words, not
from `numpy.random`, whose streams NEP 19 leaves free to change between numpy
versions; so results depend only on the seed, and the package never imports
`numpy.random`.
"""

import numpy as np

from .errors import PsiNonPositive, PsiTooLarge

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

DOMAIN_SUBSAMPLE = 0xA5
DOMAIN_FOLD = 0xF0
DOMAIN_CV_FIT = 0xC5


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: full-avalanche mix of each word of a uint64 array."""
    z = z + _GOLDEN
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _words(value) -> np.ndarray:
    """An int mod 2**64, or an int array wrapped, as at least 1-D uint64 words."""
    value = value if isinstance(value, np.ndarray) else int(value) & _MASK64
    return np.array(value, ndmin=1).astype(np.uint64)


def _stream(seeds, n: int) -> np.ndarray:
    """Words 0..n-1 of each seed's splitmix64 stream, ``_mix(seed + i·_GOLDEN)``,
    one row per seed."""
    return _mix(_words(seeds).reshape(-1, 1) + np.arange(n, dtype=np.uint64) * _GOLDEN)


def _derive(base_seed, components) -> np.ndarray:
    """Mix each component into the seed in turn; array components broadcast."""
    s = _words(base_seed)
    for c in components:
        s = _mix(s ^ _words(c))
    return s


def derive_seed(base_seed: int, *components: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags,
    each reduced mod 2**64 and mixed as uint64 words, so the expansion is the
    same on every platform and under any numpy RNG version."""
    return int(_derive(base_seed, components)[0])


def subsample_seed(base_seed: int, column_index, subsample_index):
    """Stream seed for one sub-sample draw of one column, as an int; index
    arrays broadcast to a uint64 array of seeds, one per (column, draw)."""
    s = _derive(base_seed, (DOMAIN_SUBSAMPLE, column_index, subsample_index))
    return s if np.ndim(column_index) or np.ndim(subsample_index) else int(s[0])


def fold_seed(base_seed: int) -> int:
    """Stream seed for the cross-validation fold permutation."""
    return derive_seed(base_seed, DOMAIN_FOLD)


def cv_fit_seed(base_seed: int, fold_index: int) -> int:
    """Base seed for fitting a transformer inside one CV fold."""
    return derive_seed(base_seed, DOMAIN_CV_FIT, fold_index)


def permutation(n: int, stream_seed: int) -> np.ndarray:
    """A permutation of ``range(n)``: the rows in the order of their words,
    row i taking word i of the seed's splitmix64 stream, the words
    `subsample_indices` draws from. The sort is stable, so equal words, a
    chance below n²/2**65, keep the lower row first."""
    return np.argsort(_stream(stream_seed, n)[0], kind="stable")


def subsample_indices(n_rows: int, size: int, stream_seed) -> np.ndarray:
    """Pick `size` distinct row indices out of `n_rows`, uniformly, sorted.

    Floyd's algorithm in `size` steps, each run at once for every seed: an int
    seed gives one 1-D draw, an array of seeds one draw per seed, in shape
    `seeds.shape + (size,)`. Step k compares with the k earlier picks, so time
    is O(lanes·size²) and memory O(lanes·size), never O(n_rows). Raises
    PsiNonPositive if size < 1 and PsiTooLarge if size > n_rows.
    """
    if size < 1:
        raise PsiNonPositive(f"sub-sample size must be >= 1, got {size}")
    if size > n_rows:
        raise PsiTooLarge(f"sub-sample size {size} exceeds column length {n_rows}")
    top = np.arange(n_rows - size, n_rows)
    # Step k takes word k of its seed's splitmix64 stream, mod top[k] + 1: a
    # bias below n / 2**64, irrelevant for n well under 2**32.
    picks = (_stream(stream_seed, size) % (top + 1).astype(np.uint64)).astype(np.int64)
    for k in range(1, size):
        taken = (picks[:, :k] == picks[:, k:k + 1]).any(axis=1)
        picks[taken, k] = top[k]
    picks.sort(axis=1)
    return picks.reshape(np.shape(stream_seed) + (size,))

