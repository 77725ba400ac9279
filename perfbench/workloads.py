"""Seeded inputs, CLI steps and output checks for each benchmark workload.

Every dataset has skewed (log-normal) continuous columns, and a quarter of
its columns are integer-valued with many ties, so KNN distance ties, LOF's
tie-inclusive neighbourhoods and ARES sample collisions all occur.

A workload is a list of `Step`s run in order, one CLI call each. A step's
check reads the files the call wrote and returns a list of error strings;
an empty list means the output is correct.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

N_FEATURES = 16
N_INTEGER = N_FEATURES // 4
N_CLASSES = 4
ANOMALY_FRACTION = 0.03

CLASSIFY_ROWS = 1600
ANOMALY_ROWS = 2000
PIPELINE_ROWS = 12000
PIPELINE_PSI = 256
PIPELINE_T = 50
PIPELINE_SAMPLED_CELLS = 200

PREPROCESSORS = ("minmax", "rank", "ares")
PERTURBATIONS = ("identity", "log", "square", "sqrt", "inverse")
INVARIANT_PREPROCESSORS = ("rank", "ares")
INCREASING_PERTURBATIONS = ("log", "square", "sqrt")


@dataclass
class Step:
    """One CLI call: its arguments, the file it writes, and its output check."""

    name: str
    argv: list[str]
    output: Path
    check: Callable[[], list[str]] | None = None


@dataclass
class Prepared:
    """The steps of one workload plus diagnostics the checks fill in."""

    steps: list[Step]
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _skewed_features(rng, log_offsets):
    """Log-normal columns; the last N_INTEGER are floored to tied integers."""
    n, m = log_offsets.shape
    mu = rng.uniform(-1.0, 1.0, m)
    sigma = rng.uniform(0.5, 1.5, m)
    x = np.exp(mu + sigma * rng.standard_normal((n, m)) + log_offsets)
    x[:, m - N_INTEGER :] = np.floor(4.0 * x[:, m - N_INTEGER :])
    return x


def labelled_data(rng, n_rows):
    """About N_CLASSES classes, each shifting the log-mean of every column."""
    labels = rng.integers(0, N_CLASSES, n_rows)
    class_offsets = rng.normal(0.0, 0.6, (N_CLASSES, N_FEATURES))
    return _skewed_features(rng, class_offsets[labels]), labels


def anomaly_data(rng, n_rows):
    """Inliers plus ANOMALY_FRACTION of rows pushed far out in 4 columns."""
    offsets = np.zeros((n_rows, N_FEATURES))
    n_anomalies = max(1, round(ANOMALY_FRACTION * n_rows))
    rows = rng.choice(n_rows, n_anomalies, replace=False)
    for r in rows:
        cols = rng.choice(N_FEATURES, 4, replace=False)
        offsets[r, cols] = rng.choice((-3.0, 3.0), 4)
    flags = np.zeros(n_rows, dtype=np.int64)
    flags[rows] = 1
    return _skewed_features(rng, offsets), flags


def write_csv(path, features, labels):
    """Features as shortest round-trip floats, integer label column last."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{c}" for c in range(features.shape[1])] + ["label"]))
        fh.write("\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)))
            fh.write(f",{label}\n")


def read_csv(path):
    """Header, float64 feature matrix and label strings of a CSV, label last."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    features = np.array([[float(v) for v in row[:-1]] for row in rows], dtype=np.float64)
    return header, features.reshape(len(rows), len(header) - 1), [row[-1] for row in rows]


# ---------------------------------------------------------------------------
# ties_created diagnostic
# ---------------------------------------------------------------------------


def ties_created(features):
    """Per perturbation, the distinct values it merges in each column.

    Uses the package's own perturbation, so the count describes the inputs
    the CLI actually evaluates. Rank and ARES invariance is only guaranteed
    where no column loses a distinct value.
    """
    from scalefree.perturb import PerturbationSpec, perturb_matrix

    distinct = [np.unique(features[:, c]).size for c in range(features.shape[1])]
    out = {}
    for kind in ("identity",) + INCREASING_PERTURBATIONS:
        perturbed = perturb_matrix(features, PerturbationSpec(kind))
        out[kind] = [
            distinct[c] - np.unique(perturbed[:, c]).size for c in range(features.shape[1])
        ]
    return out


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------


def _bits(values):
    return [float(v).hex() for v in values]


def check_grid(report_path, task, ties, diagnostics):
    """The report covers the full grid, and rank and ARES results are
    bitwise equal across identity and every increasing perturbation."""
    rows = json.loads(Path(report_path).read_text(encoding="utf-8"))
    metric = "accuracy" if task == "classify" else "auc"
    n_folds = 10 if task == "classify" else 0
    by_key = {(r["preprocessor"], r["perturbation"]): r for r in rows}
    expected = {(p, k) for p in PREPROCESSORS for k in PERTURBATIONS}
    if len(rows) != len(expected) or set(by_key) != expected:
        return [f"report has {len(rows)} rows, not the {len(expected)}-cell grid"]

    errors = []
    for key, r in sorted(by_key.items()):
        if r["metric"] != metric or not 0.0 <= r["aggregate"] <= 1.0:
            errors.append(f"{key}: {r['metric']}={r['aggregate']!r}")
        if len(r["per_fold"]) != n_folds:
            errors.append(f"{key}: {len(r['per_fold'])} folds, expected {n_folds}")
    for pre in INVARIANT_PREPROCESSORS:
        base = by_key[(pre, "identity")]
        for kind in INCREASING_PERTURBATIONS:
            r = by_key[(pre, kind)]
            same = _bits([r["aggregate"]] + r["per_fold"]) == _bits(
                [base["aggregate"]] + base["per_fold"]
            )
            if same:
                continue
            merged = sum(ties["identity"]) + sum(ties[kind])
            if merged == 0:
                errors.append(f"{pre} under {kind} differs from identity with no ties created")
            else:
                diagnostics["excused_mismatches"] = diagnostics.get("excused_mismatches", 0) + 1
    return errors


def prepare_grid(task, n_rows, seed, work):
    rng = np.random.default_rng(seed)
    features, labels = (labelled_data if task == "classify" else anomaly_data)(rng, n_rows)
    data = work / "data.csv"
    write_csv(data, features, labels)
    ties = ties_created(features)
    diagnostics = {"rows": n_rows, "ties_created": ties}
    report = work / "report.json"
    argv = [
        "evaluate", "--input", str(data), "--label-col", "label", "--task", task,
        "--grid", "--seed", str(seed), "--output", str(report),
    ]  # fmt: skip
    step = Step("evaluate", argv, report, lambda: check_grid(report, task, ties, diagnostics))
    return Prepared([step], diagnostics)


# ---------------------------------------------------------------------------
# csv-pipeline workload
# ---------------------------------------------------------------------------


class PipelineChecks:
    """Checks for perturb -> fit rank -> fit ares -> transform x2.

    References are computed here from the files the CLI wrote: a
    strictly-below count over the training column for rank, and the
    paper-literal mean of per-sub-sample strictly-below counts from the
    saved ARES model.
    """

    def __init__(self, seed, labels, perturbed, ares_model, rank_out, ares_out):
        self.labels = [str(v) for v in labels]
        self.perturbed = perturbed
        self.ares_model = ares_model
        self.rank_out = rank_out
        self.ares_out = ares_out
        self.train = None
        self.header = None
        self.subsamples = None
        rng = np.random.default_rng(seed + 1)
        self.cells = list(
            zip(
                rng.integers(0, len(labels), PIPELINE_SAMPLED_CELLS).tolist(),
                rng.integers(0, N_FEATURES, PIPELINE_SAMPLED_CELLS).tolist(),
            )
        )

    def _labels_and_header(self, header, labels, what):
        errors = []
        if header != self.header:
            errors.append(f"{what}: header {header[:3]}... differs from input")
        if labels != self.labels:
            errors.append(f"{what}: label column changed")
        return errors

    def perturb(self):
        header, self.train, labels = read_csv(self.perturbed)
        self.header = [f"f{c}" for c in range(N_FEATURES)] + ["label"]
        errors = self._labels_and_header(header, labels, "perturb")
        if self.train.shape != (len(self.labels), N_FEATURES):
            errors.append(f"perturb: shape {self.train.shape}")
        return errors

    def ares_fit(self):
        doc = json.loads(Path(self.ares_model).read_text(encoding="utf-8"))
        errors = []
        if (doc.get("psi"), doc.get("t")) != (PIPELINE_PSI, PIPELINE_T):
            errors.append(f"fit ares: psi/t {doc.get('psi')}/{doc.get('t')}")
        for c, block in enumerate(doc["columns"]):
            subs = np.asarray(block["subsamples"], dtype=np.float64)
            if subs.shape != (PIPELINE_T, PIPELINE_PSI):
                errors.append(f"fit ares: column {c} ensemble shape {subs.shape}")
            elif not np.isin(subs, self.train[:, c]).all():
                errors.append(f"fit ares: column {c} holds values not in the training column")
        self.subsamples = [np.asarray(b["subsamples"]) for b in doc["columns"]]
        return errors

    def _transformed(self, path, what, reference):
        header, values, labels = read_csv(path)
        errors = self._labels_and_header(header, labels, what)
        for r, c in self.cells:
            expected = reference(self.train[r, c], c)
            if float(values[r, c]).hex() != float(expected).hex():
                errors.append(f"{what}: row {r} col {c} is {float(values[r, c])!r}, expected {expected!r}")
                break
        return errors

    def rank_transform(self):
        return self._transformed(
            self.rank_out, "transform rank", lambda x, c: float(np.count_nonzero(self.train[:, c] < x))
        )

    def ares_transform(self):
        def reference(x, c):
            counts = [int(np.count_nonzero(sub < x)) for sub in self.subsamples[c]]
            return sum(counts) / len(counts)

        return self._transformed(self.ares_out, "transform ares", reference)


def prepare_pipeline(n_rows, seed, work):
    rng = np.random.default_rng(seed)
    features, labels = labelled_data(rng, n_rows)
    data, perturbed = work / "data.csv", work / "perturbed.csv"
    rank_model, ares_model = work / "rank.json", work / "ares.json"
    rank_out, ares_out = work / "rank_out.csv", work / "ares_out.csv"
    write_csv(data, features, labels)
    checks = PipelineChecks(seed, labels, perturbed, ares_model, rank_out, ares_out)
    io = ["--label-col", "label"]
    steps = [
        Step(
            "perturb",
            ["perturb", "--input", str(data), *io, "--perturb", "log", "--output", str(perturbed)],
            perturbed,
            checks.perturb,
        ),
        Step(
            "fit-rank",
            ["fit", "--input", str(perturbed), *io, "--kind", "rank", "--seed", str(seed),
             "--output", str(rank_model)],
            rank_model,
        ),
        Step(
            "fit-ares",
            ["fit", "--input", str(perturbed), *io, "--kind", "ares", "--psi", str(PIPELINE_PSI),
             "--t", str(PIPELINE_T), "--seed", str(seed), "--output", str(ares_model)],
            ares_model,
            checks.ares_fit,
        ),
        Step(
            "transform-rank",
            ["transform", "--model", str(rank_model), "--input", str(perturbed), *io,
             "--output", str(rank_out)],
            rank_out,
            checks.rank_transform,
        ),
        Step(
            "transform-ares",
            ["transform", "--model", str(ares_model), "--input", str(perturbed), *io,
             "--output", str(ares_out)],
            ares_out,
            checks.ares_transform,
        ),
    ]  # fmt: skip
    return Prepared(steps, {"rows": n_rows})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Layers (span names) that must record at least one span in a traced run.
_GRID_LAYERS = (
    "cli.main", "data.load_csv", "evaluate.evaluation_grid", "perturb.perturb_matrix",
    "transforms.fit_transformer", "transforms.transform", "report.write_report",
)  # fmt: skip

WORKLOADS = {
    "classify-grid": (
        lambda seed, work: prepare_grid("classify", CLASSIFY_ROWS, seed, work),
        _GRID_LAYERS
        + ("evaluate.run_classification", "neighbors.knn_classify", "metrics.accuracy"),
    ),
    "anomaly-grid": (
        lambda seed, work: prepare_grid("anomaly", ANOMALY_ROWS, seed, work),
        _GRID_LAYERS + ("evaluate.run_anomaly", "neighbors.lof_scores", "metrics.auc"),
    ),
    "csv-pipeline": (
        lambda seed, work: prepare_pipeline(PIPELINE_ROWS, seed, work),
        (
            "cli.main", "data.load_csv", "data.save_csv", "perturb.perturb_matrix",
            "transforms.fit_transformer", "model_io.save_model", "model_io.load_model",
            "transforms.transform",
        ),
    ),
}  # fmt: skip
