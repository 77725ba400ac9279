"""Report serialization."""

import json

import pytest

from scalefree.errors import EmptyInput
from scalefree.report import EvaluationReport, write_report


def _report(**overrides):
    base = dict(
        dataset="toy",
        preprocessor="ares",
        perturbation="identity",
        metric="accuracy",
        aggregate=0.875,
        wall_time_ms=12.5,
        seed=42,
        per_fold=[0.9, 0.85],
    )
    base.update(overrides)
    return EvaluationReport(**base)


def test_failed_write_keeps_previous_report(tmp_path):
    class Unprintable:
        def __repr__(self):
            raise RuntimeError("seed cannot be written")

    for name in ("r.csv", "r.json"):
        path = tmp_path / name
        write_report([_report()], path)
        before = path.read_bytes()
        rows = [_report(dataset=f"d{i}") for i in range(500)]
        rows[-1] = _report(dataset="zz", seed=Unprintable())
        with pytest.raises((RuntimeError, TypeError)):
            write_report(rows, path)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]


GOLDEN_REPORTS = [
    EvaluationReport("glass", "rank", "log", "accuracy", 0.1 + 0.2, 1e-07, 42, [1 / 3, 0.5]),
    EvaluationReport("breast,w", "ares", "inverse", "auc", 0.9375, 1234.5, 7, []),
]

GOLDEN_CSV = (
    b"dataset,preprocessor,perturbation,metric,aggregate,wall_time_ms,seed\r\n"
    b'"breast,w",ares,inverse,auc,0.9375,1234.5,7\r\n'
    b"glass,rank,log,accuracy,0.30000000000000004,1e-07,42\r\n"
)

GOLDEN_JSON = b"""[
  {
    "dataset": "breast,w",
    "preprocessor": "ares",
    "perturbation": "inverse",
    "metric": "auc",
    "aggregate": 0.9375,
    "wall_time_ms": 1234.5,
    "seed": 7,
    "per_fold": []
  },
  {
    "dataset": "glass",
    "preprocessor": "rank",
    "perturbation": "log",
    "metric": "accuracy",
    "aggregate": 0.30000000000000004,
    "wall_time_ms": 1e-07,
    "seed": 42,
    "per_fold": [
      0.3333333333333333,
      0.5
    ]
  }
]
"""


@pytest.mark.parametrize("name, expected", [("r.csv", GOLDEN_CSV), ("r.json", GOLDEN_JSON)])
def test_golden_bytes(name, expected, tmp_path):
    path = tmp_path / name
    write_report(GOLDEN_REPORTS, path)
    assert path.read_bytes() == expected


def test_single_report_csv(tmp_path):
    path = tmp_path / "r.csv"
    write_report([_report()], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dataset,preprocessor,perturbation,metric,aggregate,wall_time_ms,seed"
    assert lines[1] == "toy,ares,identity,accuracy,0.875,12.5,42"
    assert len(lines) == 2


def test_rows_sorted_and_deterministic(tmp_path):
    reports = [
        _report(dataset="b", preprocessor="rank"),
        _report(dataset="a", preprocessor="minmax", perturbation="log"),
        _report(dataset="a", preprocessor="minmax", perturbation="identity"),
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(reports, p1)
    write_report(list(reversed(reports)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().strip().splitlines()[1:]
    keys = [tuple(r.split(",")[:3]) for r in rows]
    assert keys == sorted(keys)


def test_mixed_metrics_distinguished(tmp_path):
    path = tmp_path / "r.csv"
    write_report(
        [_report(metric="accuracy"), _report(dataset="z", metric="auc", per_fold=[])],
        path,
    )
    body = path.read_text()
    assert ",accuracy," in body and ",auc," in body


def test_json_includes_per_fold(tmp_path):
    path = tmp_path / "r.json"
    write_report([_report()], path)
    payload = json.loads(path.read_text())
    assert payload[0]["per_fold"] == [0.9, 0.85]
    assert payload[0]["aggregate"] == 0.875


def test_explicit_format_overrides_suffix(tmp_path):
    path = tmp_path / "r.out"
    write_report([_report()], path, fmt="json")
    assert json.loads(path.read_text())[0]["dataset"] == "toy"


def test_empty_reports_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        write_report([], tmp_path / "r.csv")


def test_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report([_report()], tmp_path / "r.xml", fmt="xml")
