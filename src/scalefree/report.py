"""Evaluation reports and their CSV/JSON serialization."""

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .data import replacing
from .errors import EmptyInput


@dataclass
class EvaluationReport:
    """Outcome of one (dataset, preprocessor, perturbation) evaluation.

    per_fold holds fold-level accuracies for cross-validated classification
    and is empty for whole-set AUC runs.
    """

    dataset: str
    preprocessor: str
    perturbation: str
    metric: str
    aggregate: float
    wall_time_ms: float
    seed: int
    per_fold: list[float] = field(default_factory=list)

    def sort_key(self):
        return (self.dataset, self.preprocessor, self.perturbation)


# A CSV row holds every field but the per-fold detail, floats as repr.
REPORT_COLUMNS = tuple(f.name for f in fields(EvaluationReport) if f.name != "per_fold")
_FLOAT_COLUMNS = {f.name for f in fields(EvaluationReport) if f.type is float}


def write_report(reports, path) -> None:
    """Write reports to CSV (aggregate rows) or JSON (with per-fold detail).

    Rows are sorted by (dataset, preprocessor, perturbation) and floats are
    rendered with shortest round-trip precision, so equal report lists
    always produce byte-identical files. A '.json' path suffix selects JSON,
    anything else CSV. A failed write leaves an existing report at path
    untouched (see `data.replacing`).
    """
    reports = sorted(reports, key=EvaluationReport.sort_key)
    if not reports:
        raise EmptyInput("no reports to write")
    if Path(path).suffix.lower() != ".json":
        with replacing(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for r in reports:
                writer.writerow(
                    repr(float(getattr(r, name))) if name in _FLOAT_COLUMNS else getattr(r, name)
                    for name in REPORT_COLUMNS
                )
        return

    payload = [asdict(r) for r in reports]
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
