"""Replication harness: cross-validated KNN accuracy and whole-set LOF AUC.

Every run is one cell of the preprocessor x perturbation grid, and each
runner holds its cell's steps in order:

* it checks the labels and the seed (`_checked_seed`), then starts the
  cell's timer;
* `perturb_matrix` rescales every feature column of the full dataset first
  (it simulates how the data were measured, not a modelling step), and
  rejects a matrix with no rows or no columns, so no fit sees one;
* `_fit_map` gives the cell's `fit(rows, seed)`, every row mapped to what
  the learners see by a fit on `rows`. Rank and ARES map to their integer
  counts (the transform times t), whose squared distances are exact; every
  column is sorted once per cell, and each fit's counts are a cumulative
  sum of its per-row sample weights in that order
  (`transforms._in_sample_counter`). Min-max maps through `fit_transformer`
  and `transform`, as floats;
* the learner and the metric run on each fit's map, and `_report` stops
  the timer and builds the `EvaluationReport`, the one place where a
  report field is added.

The runners differ in their fits and learners. `run_classification` splits
the rows into k random folds (`kfold_split` returns each row's fold:
`sampling.permutation` of the rows under the fold seed, cut into k
near-equal runs), fits on the training folds only, predicts each held-out
fold by KNN and reports the mean fold accuracy. `run_anomaly` fits on all
rows (unsupervised), scores every row by LOF with n_neighbors = ceil(sqrt(N))
and reports the AUC of the scores against the binary flags; its fit map is a
temporary, so the column sort is freed before LOF runs.

All randomness (fold permutation, per-fold sub-sample draws) expands from
the single seed via the derivations in `sampling`.

`evaluation_grid` checks every preprocessor and perturbation name before any
cell runs. When ARES is among the preprocessors, it also asks `_draw` for a
draw of no columns on ARES's smallest fit (every row for anomaly, all but
the largest fold for classify), so a bad psi or t raises `fit_transformer`'s
error on the first fit's rows before any learner runs. It then runs the
cells on w = min(cells, usable CPUs) processes, where the usable CPUs are
the process's affinity set (else `os.cpu_count()`), and returns the reports
in grid order. A cell depends only on the dataset, its preprocessor, its
perturbation and the seed, so a forked copy of the caller computes it as the
caller would, and every report field but `wall_time_ms` equals a one-process
run's. That field is the cell's own elapsed time, contention included, so
the cells' times no longer add up to the grid's.
Worker j runs cells j, j + w, j + 2w, ... in grid order and stops at its
first failure; the caller runs the last and smallest share itself and forks
the other w - 1. Each child sends its (index, report or exception) pairs
back as one pickle through its own pipe and ends in `os._exit`. The caller
reads every pipe to EOF and reaps every child, even when its own share
raises, then raises the failure with the lowest grid index, the one a loop
would raise; a child that exits without reporting, or exits nonzero, raises
`WorkerLost`, whose message says whether its report arrived. With one
usable CPU (say, under `taskset -c 0`), one cell, no `os.fork`, or a second
live Python thread in the caller, w is 1: the same path runs as one worker,
the caller's share is every cell, and nothing forks. An empty grid returns
no reports.
"""

import math
import os
import pickle
import threading
import time

import numpy as np

from .data import Dataset
from .errors import MissingLabelColumn, NonBinaryLabels, TooFewRows, _as_count
from .metrics import accuracy, auc
from .neighbors import knn_classify, lof_scores
from .perturb import (
    DEFAULT_SCALE,
    DEFAULT_SHIFT,
    PERTURBATION_KINDS,
    PerturbationSpec,
    perturb_matrix,
)
from .report import EvaluationReport
from .sampling import cv_fit_seed, fold_seed, permutation
from .transforms import (
    DEFAULT_N_SUBSAMPLES,
    DEFAULT_SUBSAMPLE_SIZE,
    KINDS,
    _draw,
    _in_sample_counter,
    _require_kind,
    fit_transformer,
)

DEFAULT_FOLDS = 10
DEFAULT_KNN_K = 5

TASKS = ("classify", "anomaly")


def kfold_split(n: int, k: int = DEFAULT_FOLDS, seed: int = 0) -> np.ndarray:
    """Randomly partition n rows into k folds whose sizes differ by at most 1,
    as each row's int64 fold: fold f is the f-th of k near-equal runs of
    `sampling.permutation(n, seed)`, so the folds depend on the seed alone,
    not on the numpy version."""
    k = _as_count(k, "fold count")
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if n < k:
        raise TooFewRows(f"cannot split {n} rows into {k} folds")
    perm = permutation(n, _as_count(seed, "seed"))
    fold_of_row = np.empty(n, dtype=np.int64)
    for f, part in enumerate(np.array_split(perm, k)):
        fold_of_row[part] = f
    return fold_of_row


def _checked_seed(preprocessor: str, seed) -> int:
    """The cell's seed as an int (`_as_count`); every kind needs one, as its
    report names the seed that reproduces it."""
    if seed is None:
        raise ValueError(f"{preprocessor} requires a seed")
    return _as_count(seed, "seed")


def _fit_map(features: np.ndarray, kind: str, psi: int, t: int):
    """`fit(rows, seed)`: every row of `features` mapped by a fit of `kind`
    on `rows`, drawn with `seed`. Each row maps on its own, so fitting on
    some rows and mapping all equals mapping each subset. Rank and ARES map
    to their counts, from one column sort (`_in_sample_counter`); the common
    factor t between counts and transform changes neither KNN order nor LOF
    ratios. Any other kind maps through `fit_transformer`, which raises for
    an unknown kind and needs no seed for min-max."""
    if kind in ("rank", "ares"):
        return _in_sample_counter(features, kind, psi, t)
    return lambda rows, _: fit_transformer(features[rows], kind).transform(features)


def _report(dataset, preprocessor, perturbation, seed, start, metric, aggregate, per_fold):
    """The cell's `EvaluationReport`, timed from `start`."""
    return EvaluationReport(
        dataset=dataset.name,
        preprocessor=preprocessor,
        perturbation=perturbation.kind,
        metric=metric,
        aggregate=aggregate,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
        seed=seed,
        per_fold=per_fold,
    )


def run_classification(
    dataset: Dataset,
    preprocessor: str,
    perturbation: PerturbationSpec = PerturbationSpec(),
    *,
    seed: int,
    knn_k: int = DEFAULT_KNN_K,
    n_folds: int = DEFAULT_FOLDS,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
) -> EvaluationReport:
    """10-fold cross-validated KNN accuracy under one preprocessing setup."""
    labels = dataset.labels
    if labels is None:
        raise MissingLabelColumn("classification needs a dataset with labels")
    seed = _checked_seed(preprocessor, seed)
    start = time.perf_counter()
    features = perturb_matrix(dataset.features, perturbation)
    folds = kfold_split(dataset.n_rows, n_folds, seed=fold_seed(seed))
    fit = _fit_map(features, preprocessor, subsample_size, n_subsamples)
    per_fold = []
    for f in range(n_folds):
        train_idx, test_idx = np.flatnonzero(folds != f), np.flatnonzero(folds == f)
        neighbor = fit(train_idx, cv_fit_seed(seed, f))
        predicted = knn_classify(neighbor[train_idx], labels[train_idx], neighbor[test_idx], knn_k)
        per_fold.append(accuracy(predicted, labels[test_idx]))
    mean = float(np.mean(per_fold))
    return _report(dataset, preprocessor, perturbation, seed, start, "accuracy", mean, per_fold)


def _binary_flags(labels) -> np.ndarray:
    try:
        values = np.asarray(labels, dtype=np.float64)
    except ValueError:
        raise NonBinaryLabels(
            "anomaly labels must be numeric 0/1 flags"
        ) from None
    if not np.isin(values, (0.0, 1.0)).all():
        raise NonBinaryLabels(
            f"anomaly labels must be 0/1 flags, got values {sorted(set(values))[:8]}"
        )
    return values.astype(bool)


def lof_neighbor_count(n_rows: int) -> int:
    """ceil(sqrt(N)), computed in exact integer arithmetic."""
    k = math.isqrt(n_rows)
    return k if k * k == n_rows else k + 1


def run_anomaly(
    dataset: Dataset,
    preprocessor: str,
    perturbation: PerturbationSpec = PerturbationSpec(),
    *,
    seed: int,
    subsample_size: int = DEFAULT_SUBSAMPLE_SIZE,
    n_subsamples: int = DEFAULT_N_SUBSAMPLES,
) -> EvaluationReport:
    """Whole-set LOF AUC under one preprocessing setup (no folds)."""
    if dataset.labels is None:
        raise MissingLabelColumn("anomaly evaluation needs a dataset with 0/1 labels")
    flags = _binary_flags(dataset.labels)
    seed = _checked_seed(preprocessor, seed)
    start = time.perf_counter()
    features = perturb_matrix(dataset.features, perturbation)
    # the fit map is a temporary, so its column sort is freed before LOF runs
    neighbor = _fit_map(features, preprocessor, subsample_size, n_subsamples)(slice(None), seed)
    scores = lof_scores(neighbor, lof_neighbor_count(dataset.n_rows))
    return _report(dataset, preprocessor, perturbation, seed, start, "auc", auc(scores, flags), [])


class WorkerLost(RuntimeError):
    """A grid worker process exited nonzero or without reporting its cells;
    `status` is its exit code, negative for the signal that ended it, and
    the message says whether its report arrived."""

    def __init__(self, pid: int, status: int, reported: bool):
        how = "after reporting" if reported else "without reporting"
        super().__init__(f"grid worker {pid} exited with status {status} {how}")
        self.pid = pid
        self.status = status


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share(run, cells, first: int, step: int) -> list:
    """Cells first, first + step, ... in grid order, as (index, report or the
    exception it raised) pairs, stopping at the first failure."""
    done = []
    for i in range(first, len(cells), step):
        try:
            done.append((i, run(cells[i])))
        except Exception as exc:
            done.append((i, exc))
            break
    return done


def _forked(run, cells, workers: int) -> list:
    """Every cell's report in grid order, the shares run by `workers` >= 1
    processes: this one and w - 1 forked children (module docstring)."""
    children, sent = [], []  # (pid, pipe read end); (pid, bytes, exit status)
    try:
        for j in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child never returns into the caller
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(_share(run, cells, j, workers)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)  # so no later child holds it and EOF comes
            children.append((pid, read_end))
        outcomes = _share(run, cells, workers - 1, workers)
    finally:
        for pid, read_end in children:
            with open(read_end, "rb") as pipe:
                payload = pipe.read()
            sent.append((pid, payload, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for pid, payload, status in sent:
        if status or not payload:
            raise WorkerLost(pid, status, bool(payload))
        outcomes += pickle.loads(payload)
    outcomes.sort(key=lambda pair: pair[0])
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [report for _, report in outcomes]


def evaluation_grid(
    dataset: Dataset,
    task: str,
    preprocessors=KINDS,
    perturbations=PERTURBATION_KINDS,
    *,
    seed: int,
    shift: float = DEFAULT_SHIFT,
    scale: float = DEFAULT_SCALE,
    **task_kwargs,
) -> list[EvaluationReport]:
    """Sweep preprocessor x perturbation combinations for one dataset, one
    report per cell in grid order (preprocessors outer). Every name, and
    ARES's psi and t, is checked before any cell runs, and the cells run on
    w processes, up to one per usable CPU; with w = 1 they run in this
    process and nothing forks."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")
    runner = run_classification if task == "classify" else run_anomaly
    preprocessors = tuple(preprocessors)
    for preproc in preprocessors:
        _require_kind(preproc)
    if "ares" in preprocessors and dataset.n_rows:
        # A draw for no columns on ARES's smallest fit: every row, or the
        # rows outside fold 0, a largest fold, of a classify run. With no
        # rows, the first cell raises EmptyDataset.
        n_fit = dataset.n_rows
        if task == "classify":
            n_fit = np.count_nonzero(kfold_split(n_fit, task_kwargs.get("n_folds", DEFAULT_FOLDS)))
        psi = task_kwargs.get("subsample_size", DEFAULT_SUBSAMPLE_SIZE)
        _draw("ares", n_fit, psi, task_kwargs.get("n_subsamples", DEFAULT_N_SUBSAMPLES), 0, 0)
    specs = [PerturbationSpec(kind, shift=shift, scale=scale) for kind in perturbations]
    cells = [(preproc, spec) for preproc in preprocessors for spec in specs]

    def run(cell):
        return runner(dataset, *cell, seed=seed, **task_kwargs)

    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    return _forked(run, cells, max(1, min(len(cells), _usable_cpus())) if can_fork else 1)
