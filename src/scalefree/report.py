"""Evaluation reports and their CSV/JSON serialization."""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import replacing
from .errors import EmptyInput

REPORT_COLUMNS = (
    "dataset",
    "preprocessor",
    "perturbation",
    "metric",
    "aggregate",
    "wall_time_ms",
    "seed",
)


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


def write_report(reports, path, fmt: str | None = None) -> None:
    """Write reports to CSV (aggregate rows) or JSON (with per-fold detail).

    Rows are sorted by (dataset, preprocessor, perturbation) and floats are
    rendered with shortest round-trip precision, so equal report lists
    always produce byte-identical files. fmt defaults from the path suffix:
    '.json' selects JSON, anything else CSV. A failed write leaves an existing
    report at path untouched (see `data.replacing`).
    """
    reports = sorted(reports, key=EvaluationReport.sort_key)
    if not reports:
        raise EmptyInput("no reports to write")
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")

    if fmt == "csv":
        with replacing(path, newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for r in reports:
                writer.writerow(
                    [
                        r.dataset,
                        r.preprocessor,
                        r.perturbation,
                        r.metric,
                        repr(float(r.aggregate)),
                        repr(float(r.wall_time_ms)),
                        r.seed,
                    ]
                )
        return

    payload = [
        {
            "dataset": r.dataset,
            "preprocessor": r.preprocessor,
            "perturbation": r.perturbation,
            "metric": r.metric,
            "aggregate": r.aggregate,
            "wall_time_ms": r.wall_time_ms,
            "seed": r.seed,
            "per_fold": list(r.per_fold),
        }
        for r in reports
    ]
    with replacing(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
