"""Monotone scale perturbations simulating different units of measurement.

A perturbation re-expresses a column on a different measurement scale:
unit-rescale to [0,1], shift-scale to x' = scale * (u + shift) so x' > 0,
then apply one of identity, log (natural), square, sqrt, or inverse.
The first four are strictly increasing on x' > 0; inverse is strictly
decreasing. The shift keeps log and inverse defined at u = 0.

Perturbation is a data-generation step: it models the world having been
measured differently, so it is applied to whole columns before any
train/test split.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyColumn, NonFiniteResult, NonFiniteValue
from .transforms import MinMaxParams, fit_minmax

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


def rescale_unit(values) -> np.ndarray:
    """Min-max rescale a column onto [0,1]; a constant column maps to zeros."""
    col = np.asarray(values, dtype=np.float64)
    return fit_minmax(col)._unit(col)


def shift_scale(values, spec: PerturbationSpec):
    """x' = scale * (x + shift); strictly positive for x >= 0."""
    return spec.scale * (np.asarray(values, dtype=np.float64) + spec.shift)


def _perturbed(unit: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    """The perturbation of unit-scaled values, whose result the caller checks.
    The shift-scaled values are checked before the map, which could hide
    their overflow (inverse maps inf to 0); overflow raises, never warns."""
    with np.errstate(over="ignore"):
        x = _require_finite_result(shift_scale(unit, spec), spec)
        return _MAPS[spec.kind](x, out=x)


def _require_finite_result(out: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NonFiniteResult(f"perturbation {spec.kind!r} produced non-finite values")
    return out


def apply_perturbation(values, spec: PerturbationSpec) -> np.ndarray:
    """Re-express one column on the perturbed scale."""
    return _require_finite_result(_perturbed(rescale_unit(values), spec), spec)


def perturb_matrix(features: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    """Apply one perturbation to every column of a feature matrix.

    The matrix is checked once on the way in and once on the way out; each
    column runs the unchecked kernel of `apply_perturbation`."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    if x.shape[0] == 0 and x.shape[1] > 0:
        raise EmptyColumn("cannot fit a transform on an empty column")
    if not np.isfinite(x).all():
        raise NonFiniteValue("column contains NaN or infinite values")
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        col = np.ascontiguousarray(x[:, c])
        unit = MinMaxParams(float(col.min()), float(col.max()))._unit(col)
        out[:, c] = _perturbed(unit, spec)
    return _require_finite_result(out, spec)
