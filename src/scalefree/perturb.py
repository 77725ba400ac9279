"""Monotone scale perturbations simulating different units of measurement.

A perturbation re-expresses every column of a matrix on a different
measurement scale: unit-rescale each column to [0,1] by its own min and max
(the min-max map `transforms._unit`), shift-scale to x' = scale * (u + shift)
so x' > 0, then apply one of identity, log (natural), square, sqrt, or
inverse. The first four are strictly increasing on x' > 0; inverse is
strictly decreasing. The shift keeps log and inverse defined at u = 0. Every
step runs on the whole matrix at once, and each column comes out as it would
alone.

Perturbation is a data-generation step: it models the world having been
measured differently, so it is applied to whole columns before any
train/test split.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyColumn, NonFiniteResult, NonFiniteValue
from .transforms import _unit

# The monotone map of each perturbation, applied to shift-scaled values.
_MAPS = {
    "identity": np.positive,
    "log": np.log,
    "square": np.square,
    "sqrt": np.sqrt,
    "inverse": np.reciprocal,
}
PERTURBATION_KINDS = tuple(_MAPS)

DEFAULT_SHIFT = 0.0001
DEFAULT_SCALE = 100.0


@dataclass(frozen=True)
class PerturbationSpec:
    """Which rescaling to apply, with the shift/scale constants.

    Finite shift > 0 and scale > 0 guarantee strictly positive inputs to
    the monotone map; scale defaults large enough to change inter-point
    distances substantially.
    """

    kind: str = "identity"
    shift: float = DEFAULT_SHIFT
    scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(
                f"unknown perturbation {self.kind!r}; expected one of {PERTURBATION_KINDS}"
            )
        if not 0 < self.shift < np.inf:
            raise ValueError(f"shift must be finite and > 0, got {self.shift}")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")


def _require_finite_result(out: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteResult(f"perturbation {spec.kind!r} produced non-finite values")
    return out


def perturb_matrix(features: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    """Apply one perturbation to every column of a feature matrix.

    The matrix is checked once on the way in, the shift-scaled values before
    the map, which could hide their overflow (inverse maps inf to 0), and the
    result on the way out; overflow raises, never warns."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[0] == 0 and x.shape[1] > 0:
        raise EmptyColumn("cannot fit a transform on an empty column")
    if not np.isfinite(x).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    # `initial` gives a matrix with no rows and no columns empty extrema
    out = _unit(x, x.min(axis=0, initial=np.inf), x.max(axis=0, initial=-np.inf))
    with np.errstate(over="ignore"):
        out += spec.shift
        out *= spec.scale
        _require_finite_result(out, spec)
        return _require_finite_result(_MAPS[spec.kind](out, out=out), spec)
