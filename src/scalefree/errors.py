"""Exception hierarchy for contract violations.

Every error raised on bad user input derives from ScaleFreeError so the
CLI can catch one type and exit with a diagnostic. Genuine programming
mistakes (wrong types, impossible states) raise plain ValueError/TypeError,
such as `_as_count`'s TypeError for an integer argument given as a float.
"""

import operator


class ScaleFreeError(Exception):
    """Base class for all data/contract errors raised by this package."""


class EmptyDataset(ScaleFreeError):
    """A matrix-level operation received a dataset with no rows or no feature columns."""


class EmptyInput(ScaleFreeError):
    """A metric was called with zero-length inputs."""


class NonFiniteValue(ScaleFreeError):
    """A feature value is NaN or infinite."""


class NonFiniteResult(ScaleFreeError):
    """A perturbation produced a NaN or infinite output."""


class PsiNonPositive(ScaleFreeError):
    """Requested sub-sample size is < 1."""


class PsiTooLarge(ScaleFreeError):
    """Requested sub-sample size exceeds the column length."""


class ColumnCountMismatch(ScaleFreeError):
    """Transform input has a different column count than the fitted model."""


class TooFewRows(ScaleFreeError):
    """Not enough rows for the requested fold count or neighbor count."""


class DimensionMismatch(ScaleFreeError):
    """Train and test matrices have different feature counts."""


class InexactDistances(ScaleFreeError):
    """Features too large for exact (integer) or finite (float) squared distances."""


class KExceedsTrainSize(ScaleFreeError):
    """KNN was asked for more neighbors than there are training rows."""


class LengthMismatch(ScaleFreeError):
    """Paired sequences (predictions/truth, scores/flags) differ in length."""


class SingleClass(ScaleFreeError):
    """AUC needs at least one positive and one negative instance."""


class NonBinaryLabels(ScaleFreeError):
    """Anomaly evaluation needs labels that are exactly 0/1 flags."""


class MissingLabelColumn(ScaleFreeError):
    """The requested label column does not exist, or labels are required."""


class ParseError(ScaleFreeError):
    """A CSV cell failed to parse; carries 1-based row and column name."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyFile(ScaleFreeError):
    """The CSV file has no header row."""


class UnsupportedVersion(ScaleFreeError):
    """A model file declares a format_version this build cannot read."""


class CorruptModel(ScaleFreeError):
    """A model file is truncated, malformed, or violates its invariants."""


def _as_count(value, name: str) -> int:
    """``value`` as a Python int, through `operator.index`, so numpy integers
    pass and a float raises TypeError naming ``name``. Every integer
    argument goes through it: neighbour and fold counts, psi, t and seeds."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None
