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

from .errors import NonFiniteResult
from .transforms import fit_minmax

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

    shift > 0 and scale > 0 guarantee strictly positive inputs to the
    monotone map; scale defaults large enough to change inter-point
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
        if not self.shift > 0:
            raise ValueError(f"shift must be > 0, got {self.shift}")
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


def rescale_unit(values) -> np.ndarray:
    """Min-max rescale a column onto [0,1]; a constant column maps to zeros."""
    col = np.ascontiguousarray(values, dtype=np.float64)
    return fit_minmax(col)._unit(col)


def shift_scale(values, spec: PerturbationSpec):
    """x' = scale * (x + shift); strictly positive for x >= 0."""
    return spec.scale * (np.asarray(values, dtype=np.float64) + spec.shift)


def apply_perturbation(values, spec: PerturbationSpec) -> np.ndarray:
    """Re-express one column on the perturbed scale."""
    x = shift_scale(rescale_unit(values), spec)
    out = _MAPS[spec.kind](x, out=x)
    if not np.isfinite(out).all():
        raise NonFiniteResult(f"perturbation {spec.kind!r} produced non-finite values")
    return out


def perturb_matrix(features: np.ndarray, spec: PerturbationSpec) -> np.ndarray:
    """Apply one perturbation to every column of a feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = apply_perturbation(np.ascontiguousarray(x[:, c]), spec)
    return out
