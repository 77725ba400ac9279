"""Cross-validation split and the classification/anomaly runners."""

import os
import pickle
import re
import threading
import time
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from scalefree import evaluate
from scalefree.data import Dataset
from scalefree.errors import (
    EmptyDataset,
    MissingLabelColumn,
    NonBinaryLabels,
    NonFiniteValue,
    ParseError,
    PsiNonPositive,
    PsiTooLarge,
    ScaleFreeError,
    TooFewRows,
)
from scalefree.evaluate import (
    evaluation_grid,
    kfold_split,
    lof_neighbor_count,
    run_anomaly,
    run_classification,
)
from scalefree.neighbors import knn_classify, lof_scores
from scalefree.perturb import PERTURBATION_KINDS, PerturbationSpec, perturb_matrix
from scalefree.sampling import cv_fit_seed, fold_seed
from scalefree.transforms import KINDS, _in_sample_counter, fit_transformer

import reference_harness
from conftest import gaussian_classification
from reference_kernels import sample_collisions


@pytest.fixture(scope="module")
def class_dataset():
    return gaussian_classification("toy", 160, 4, 3, seed=71)


@pytest.fixture(scope="module")
def anomaly_dataset():
    rng = np.random.default_rng(72)
    inliers = rng.normal(size=(140, 3))
    outliers = rng.uniform(-7, 7, size=(12, 3))
    flags = np.concatenate([np.zeros(140, dtype=int), np.ones(12, dtype=int)])
    return Dataset("anom", np.vstack([inliers, outliers]), labels=flags)


def _tied(rng, offsets):
    """Log-normal columns, the last half floored to integers as
    floor(4·lognormal), so ties and ARES sample collisions occur."""
    n, m = offsets.shape
    x = np.exp(rng.uniform(0.5, 1.5, m) * rng.standard_normal((n, m)) + offsets)
    x[:, m // 2 :] = np.floor(4.0 * x[:, m // 2 :])
    return x


@pytest.fixture(scope="module")
def tied_class_dataset():
    rng = np.random.default_rng(75)
    labels = rng.integers(0, 3, 200)
    return Dataset("tied", _tied(rng, rng.normal(0.0, 0.6, (3, 6))[labels]), labels=labels)


@pytest.fixture(scope="module")
def tied_anomaly_dataset():
    rng = np.random.default_rng(76)
    offsets = np.zeros((180, 6))
    flags = np.zeros(180, dtype=int)
    flags[rng.choice(180, 6, replace=False)] = 1
    offsets[flags == 1, :3] = 3.0
    return Dataset("tied_anom", _tied(rng, offsets), labels=flags)


class TestKfoldSplit:
    def test_forced_singleton_folds(self):
        folds = kfold_split(10, 10, seed=1)
        sizes = [np.flatnonzero(folds == f).size for f in range(10)]
        assert sizes == [1] * 10

    def test_one_fold_of_two(self):
        folds = kfold_split(11, 10, seed=1)
        sizes = sorted(np.flatnonzero(folds == f).size for f in range(10))
        assert sizes == [1] * 9 + [2]

    def test_glass_sized_split(self):
        # 214 = 4 * 22 + 6 * 21
        folds = kfold_split(214, 10, seed=2)
        sizes = sorted(np.flatnonzero(folds == f).size for f in range(10))
        assert sizes == [21] * 6 + [22] * 4
        assert sum(sizes) == 214

    def test_partition_is_exact(self):
        folds = kfold_split(57, 5, seed=3)
        seen = np.concatenate([np.flatnonzero(folds == f) for f in range(5)])
        assert np.array_equal(np.sort(seen), np.arange(57))
        for f in range(5):
            test, train = np.flatnonzero(folds == f), np.flatnonzero(folds != f)
            assert not np.intersect1d(test, train).size

    def test_deterministic(self):
        a = kfold_split(100, 10, seed=9)
        b = kfold_split(100, 10, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_split(self):
        a = kfold_split(100, 10, seed=9)
        b = kfold_split(100, 10, seed=10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, fold_of_row",
        [
            (0, [4, 1, 0, 4, 0, 1, 0, 3, 1, 4, 1, 3, 2, 2, 3, 2, 2, 3, 0, 4]),
            (fold_seed(42), [0, 4, 2, 2, 4, 4, 2, 1, 4, 1, 0, 2, 0, 3, 1, 3, 3, 3, 0, 1]),
            (2**64 - 1, [4, 4, 1, 2, 3, 3, 4, 1, 3, 0, 0, 3, 0, 4, 1, 2, 2, 1, 0, 2]),
        ],
    )
    def test_golden_folds(self, seed, fold_of_row):
        """Pins the fold stream: a changed permutation changes every
        classification report."""
        folds = kfold_split(20, 5, seed=seed)
        assert folds.dtype == np.int64 and folds.tolist() == fold_of_row

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            kfold_split(9, 10, seed=0)

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            kfold_split(10, 1, seed=0)

    def test_float_fold_count_is_a_type_error(self):
        """2.5 once built 2 folds of 5; numpy integers still count."""
        with pytest.raises(TypeError, match="^fold count must be an integer, got float$"):
            kfold_split(10, 2.5, seed=0)
        with pytest.raises(TypeError, match="fold count"):
            kfold_split(10, np.float64(2.0), seed=0)
        assert kfold_split(10, np.int32(2), seed=4).tolist() == kfold_split(10, 2, seed=4).tolist()

    def test_float_seed_is_a_type_error(self):
        """A float seed was truncated to an int; numpy integers still count."""
        with pytest.raises(TypeError, match="^seed must be an integer, got float$"):
            kfold_split(10, 2, seed=4.5)
        assert kfold_split(10, 2, seed=np.int64(4)).tolist() == kfold_split(10, 2, seed=4).tolist()


class TestLofNeighborCount:
    def test_ceil_sqrt(self):
        assert lof_neighbor_count(351) == 19
        assert lof_neighbor_count(49) == 7
        assert lof_neighbor_count(50) == 8
        assert lof_neighbor_count(1) == 1


class TestRunClassification:
    def test_report_shape(self, class_dataset):
        rep = run_classification(class_dataset, "minmax", seed=5, n_folds=10)
        assert rep.metric == "accuracy"
        assert rep.dataset == "toy"
        assert len(rep.per_fold) == 10
        assert rep.aggregate == pytest.approx(np.mean(rep.per_fold))
        assert 0.0 <= rep.aggregate <= 1.0
        assert rep.wall_time_ms > 0

    def test_deterministic(self, class_dataset):
        a = run_classification(class_dataset, "ares", seed=5)
        b = run_classification(class_dataset, "ares", seed=5)
        assert a.per_fold == b.per_fold
        assert a.aggregate == b.aggregate

    @pytest.mark.parametrize("preproc", ["rank", "ares"])
    @pytest.mark.parametrize("kind", ["log", "square", "sqrt"])
    def test_increasing_perturbations_leave_folds_unchanged(
        self, class_dataset, preproc, kind
    ):
        base = run_classification(class_dataset, preproc, PerturbationSpec("identity"), seed=5)
        moved = run_classification(class_dataset, preproc, PerturbationSpec(kind), seed=5)
        assert moved.per_fold == base.per_fold

    @pytest.mark.parametrize("preproc", ["rank", "ares"])
    def test_inverse_perturbation_keeps_accuracy_close(self, class_dataset, preproc):
        """Inversion reverses every unseen query's rank exactly, but fitted
        training rows always collide with their own sampled values, so the
        train and test matrices reverse with slightly different offsets and
        fold accuracies may drift by a few flipped neighbors."""
        base = run_classification(class_dataset, preproc, PerturbationSpec("identity"), seed=5)
        flipped = run_classification(class_dataset, preproc, PerturbationSpec("inverse"), seed=5)
        assert abs(flipped.aggregate - base.aggregate) <= 0.05, preproc

    def test_collisions_confined_to_training_rows(self, class_dataset):
        """The collision accounting behind the inverse-drift bound: held-out
        continuous values never equal a sampled value, while every sampled
        value is by construction a training value."""
        seed, n_folds = 5, 10
        features = perturb_matrix(class_dataset.features, PerturbationSpec("identity"))
        folds = kfold_split(class_dataset.n_rows, n_folds, seed=fold_seed(seed))
        for f in range(n_folds):
            train = features[np.flatnonzero(folds != f)]
            test = features[np.flatnonzero(folds == f)]
            ft = fit_transformer(train, "ares", seed=cv_fit_seed(seed, f))
            for c, subsamples in enumerate(ft.params):
                assert sample_collisions(subsamples, test[:, c]).sum() == 0
                assert sample_collisions(subsamples, train[:, c]).sum() >= 7 * 10

    def test_missing_labels(self):
        ds = Dataset("nolabel", np.random.default_rng(0).normal(size=(30, 2)))
        with pytest.raises(MissingLabelColumn):
            run_classification(ds, "minmax", seed=1)


class TestRunAnomaly:
    def test_report_shape(self, anomaly_dataset):
        rep = run_anomaly(anomaly_dataset, "minmax", seed=5)
        assert rep.metric == "auc"
        assert rep.per_fold == []
        assert 0.0 <= rep.aggregate <= 1.0

    @pytest.mark.parametrize("preproc", ["rank", "ares"])
    @pytest.mark.parametrize("kind", ["log", "square", "sqrt"])
    def test_increasing_perturbations_leave_auc_unchanged(
        self, anomaly_dataset, preproc, kind
    ):
        base = run_anomaly(anomaly_dataset, preproc, PerturbationSpec("identity"), seed=5)
        moved = run_anomaly(anomaly_dataset, preproc, PerturbationSpec(kind), seed=5)
        assert moved.aggregate == base.aggregate

    def test_perfect_separation_gives_auc_one(self):
        """Off-pattern outliers: the inliers trace a thin diagonal, the
        outliers sit far off it. That separation lives in the joint shape,
        which all three transforms preserve, so LOF ranks the outliers
        strictly above every inlier in each preprocessed space."""
        rng = np.random.default_rng(73)
        n_in = 80
        u = rng.uniform(0, 1, size=n_in)
        inliers = np.column_stack([u, u + rng.normal(scale=0.01, size=n_in)])
        v = np.array([0.05, 0.12, 0.19, 0.81, 0.88, 0.95])
        outliers = np.column_stack([v, 1.0 - v])
        flags = np.concatenate([np.zeros(n_in, dtype=int), np.ones(6, dtype=int)])
        ds = Dataset("sep", np.vstack([inliers, outliers]), labels=flags)
        for preproc in ("minmax", "rank", "ares"):
            rep = run_anomaly(ds, preproc, seed=2)
            assert rep.aggregate == 1.0, preproc

    def test_non_binary_labels_rejected(self):
        ds = Dataset(
            "bad",
            np.random.default_rng(1).normal(size=(40, 2)),
            labels=np.arange(40),
        )
        with pytest.raises(NonBinaryLabels):
            run_anomaly(ds, "minmax", seed=1)

    def test_non_numeric_labels_rejected(self, anomaly_dataset):
        labels = np.where(anomaly_dataset.labels == 1, "yes", "no")
        ds = Dataset("words", anomaly_dataset.features, labels=labels)
        with pytest.raises(NonBinaryLabels, match="anomaly labels must be numeric 0/1 flags"):
            run_anomaly(ds, "minmax", seed=1)

    def test_string_flags_accepted(self, anomaly_dataset):
        ds = Dataset(
            "strflags",
            anomaly_dataset.features,
            labels=np.array([str(v) for v in anomaly_dataset.labels]),
        )
        rep = run_anomaly(ds, "rank", seed=5)
        base = run_anomaly(anomaly_dataset, "rank", seed=5)
        assert rep.aggregate == base.aggregate

    def test_missing_labels(self):
        ds = Dataset("nolabel", np.random.default_rng(0).normal(size=(30, 2)))
        with pytest.raises(MissingLabelColumn):
            run_anomaly(ds, "minmax", seed=1)


@pytest.mark.parametrize("task", ["classify", "anomaly"])
@pytest.mark.parametrize("psi, t", [(0, 10), (-3, 10), ("n_fit + 1", 10), (7, 0), (7, -1), (0, 0)])
def test_bad_psi_or_t_raises_the_fit_error(task, psi, t, class_dataset, anomaly_dataset):
    """ARES raises the class and message `fit_transformer` raises on the
    first fit's rows; rank ignores psi and t."""
    dataset, run = {
        "classify": (class_dataset, run_classification),
        "anomaly": (anomaly_dataset, run_anomaly),
    }[task]
    if task == "classify":
        rows = np.flatnonzero(kfold_split(dataset.n_rows, 10, seed=fold_seed(5)) != 0)
    else:
        rows = np.arange(dataset.n_rows)
    n_fit = len(rows)
    psi = n_fit + 1 if psi == "n_fit + 1" else psi
    if t < 1:
        error, message = ValueError, f"sub-sample count t must be >= 1, got {max(t, 0)}"
    elif psi < 1:
        error, message = PsiNonPositive, "sub-sample size must be >= 1, got 0"
    else:
        error, message = PsiTooLarge, f"sub-sample size {psi} exceeds column length {n_fit}"
    with pytest.raises(error) as from_fit:
        fit_transformer(dataset.features[rows], "ares", psi, t, seed=5)
    with pytest.raises(error) as from_run:
        run(dataset, "ares", seed=5, subsample_size=psi, n_subsamples=t)
    assert str(from_run.value) == str(from_fit.value) == message

    rank = asdict(run(dataset, "rank", seed=5, subsample_size=psi, n_subsamples=t))
    default = asdict(run(dataset, "rank", seed=5))
    del rank["wall_time_ms"], default["wall_time_ms"]
    assert rank == default


def test_ares_without_a_seed_raises_the_fit_error(anomaly_dataset):
    with pytest.raises(ValueError, match="^ares requires a seed$"):
        fit_transformer(anomaly_dataset.features, "ares", seed=None)
    with pytest.raises(ValueError, match="^ares requires a seed$"):
        run_anomaly(anomaly_dataset, "ares", seed=None)


@pytest.mark.parametrize("preproc", KINDS)
def test_both_runners_reject_a_missing_seed(preproc, class_dataset, anomaly_dataset):
    """A report must name the seed that reproduces it, for every kind."""
    for run, dataset in ((run_classification, class_dataset), (run_anomaly, anomaly_dataset)):
        with pytest.raises(ValueError, match=f"^{preproc} requires a seed$"):
            run(dataset, preproc, seed=None)


@pytest.mark.parametrize("preproc", KINDS)
def test_both_runners_take_the_seed_as_an_integer(preproc, class_dataset, anomaly_dataset):
    """A float seed is a TypeError before the perturbation, as a missing one
    is; a numpy integer seed runs as the equal int and is reported as one."""
    no_columns = Dataset("no_columns", np.zeros((30, 0)), labels=np.arange(30) % 2)
    for run, dataset in ((run_classification, class_dataset), (run_anomaly, anomaly_dataset)):
        with pytest.raises(TypeError, match="^seed must be an integer, got float$"):
            run(no_columns, preproc, seed=5.0)
        got = asdict(run(dataset, preproc, seed=np.int64(5)))
        want = asdict(run(dataset, preproc, seed=5))
        assert type(got["seed"]) is int
        del got["wall_time_ms"], want["wall_time_ms"]
        assert got == want


@pytest.mark.parametrize("run", [run_classification, run_anomaly])
def test_runners_raise_the_fit_error_for_an_unknown_kind(run, class_dataset, anomaly_dataset):
    dataset = class_dataset if run is run_classification else anomaly_dataset
    with pytest.raises(ValueError) as from_fit:
        fit_transformer(dataset.features, "zscore")
    with pytest.raises(ValueError) as from_run:
        run(dataset, "zscore", seed=1)
    assert str(from_run.value) == str(from_fit.value)
    assert str(from_run.value).startswith("unknown transformer kind 'zscore'; ")


@pytest.mark.parametrize("preproc", ["rank", "ares"])
def test_anomaly_frees_the_column_sort_before_lof(monkeypatch, anomaly_dataset, preproc):
    """The in-sample counter holds every column's sort, as large as the
    features; it is gone by the time LOF runs on the counts."""
    counters = []

    def counter(*args):
        counts = _in_sample_counter(*args)
        counters.append(weakref.ref(counts))
        return counts

    def lof_spy(*args):
        assert [ref() for ref in counters] == [None]
        return lof_scores(*args)

    monkeypatch.setattr(evaluate, "_in_sample_counter", counter)
    monkeypatch.setattr(evaluate, "lof_scores", lof_spy)
    run_anomaly(anomaly_dataset, preproc, seed=5)
    assert len(counters) == 1


@pytest.mark.parametrize("preproc", KINDS)
def test_zero_columns_raise_the_perturbation_error(preproc):
    dataset = Dataset("no_columns", np.zeros((30, 0)), labels=np.arange(30) % 2)
    for run in (run_classification, run_anomaly):
        with pytest.raises(EmptyDataset, match=r"^cannot perturb a feature matrix of shape \(30, 0\)"):
            run(dataset, preproc, seed=5)


@pytest.mark.parametrize("shape", [(0, 3), (30, 0), (0, 0)], ids=["0x3", "30x0", "0x0"])
@pytest.mark.parametrize(
    "entry, kind", [("perturb", None)] + [(e, k) for e in ("fit", "classify", "anomaly") for k in KINDS]
)
def test_an_empty_matrix_raises_empty_dataset(shape, entry, kind):
    """A matrix with no rows or no columns is one fault with one error,
    wherever it enters."""
    x = np.zeros(shape)
    with pytest.raises(EmptyDataset):
        if entry == "perturb":
            perturb_matrix(x, PerturbationSpec("identity"))
        elif entry == "fit":
            fit_transformer(x, kind, seed=5)
        else:
            run = run_classification if entry == "classify" else run_anomaly
            run(Dataset("empty", x, labels=np.arange(shape[0]) % 2), kind, seed=5)


_NOT_FINITE = "column contains NaN or infinite values"


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (np.arange(6.0), ValueError, "expected a 2-D feature matrix"),
        ([[1.0, np.nan], [2.0, 3.0]], NonFiniteValue, _NOT_FINITE),
        ([[1.0, 2.0], [np.inf, 3.0]], NonFiniteValue, _NOT_FINITE),
    ],
    ids=["1-D", "NaN", "+inf"],
)
@pytest.mark.parametrize("entry", ["perturb"] + [f"fit {k}" for k in KINDS])
def test_a_malformed_matrix_raises_one_error(bad, error, message, entry):
    """Perturb and fit share one matrix check: the same class and message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        if entry == "perturb":
            perturb_matrix(bad, PerturbationSpec("identity"))
        else:
            fit_transformer(bad, entry.split()[1], seed=5)
    assert raised.type is error


@pytest.mark.parametrize("learner", ["knn train", "knn test", "lof"])
def test_a_1d_learner_input_raises_value_error(learner):
    x, flat = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    with pytest.raises(ValueError, match="2-D") as raised:
        if learner == "knn train":
            knn_classify(flat, np.arange(6) % 2, x, k=1)
        elif learner == "knn test":
            knn_classify(x, np.arange(6) % 2, flat, k=1)
        else:
            lof_scores(flat, 2)
    assert raised.type is ValueError


@pytest.mark.parametrize("preproc", ["minmax", "rank", "ares"])
def test_learners_see_counts_for_rank_and_ares(
    monkeypatch, class_dataset, anomaly_dataset, preproc
):
    """Rank and ARES reach KNN and LOF as their int64 counts, whose squared
    distances are exact; min-max reaches them as its float transform."""
    seen = []

    def spy(fn):
        def wrapper(x, *args, **kwargs):
            seen.append(x)
            return fn(x, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(evaluate, "knn_classify", spy(evaluate.knn_classify))
    monkeypatch.setattr(evaluate, "lof_scores", spy(evaluate.lof_scores))
    run_classification(class_dataset, preproc, seed=5, n_folds=2)
    run_anomaly(anomaly_dataset, preproc, seed=5)

    want = np.float64 if preproc == "minmax" else np.int64
    assert [x.dtype for x in seen] == [want] * 3
    features = perturb_matrix(anomaly_dataset.features, PerturbationSpec("identity"))
    ft = fit_transformer(features, preproc, seed=5)
    expected = ft.transform(features) if preproc == "minmax" else ft.counts(features)
    assert np.array_equal(seen[-1], expected)


@pytest.mark.parametrize("preproc", ["rank", "ares"])
def test_rank_and_ares_cells_select_neighbours_on_int32(monkeypatch, preproc):
    """A performance guard without a timer: at default psi and t, the counts
    of a 2000 × 16 dataset of log-normal and tied integer columns are small
    enough that every neighbour selection, in both runners, is on int32. A
    silent fall back to float64 selection fails here, not only in the
    benchmark."""
    rng = np.random.default_rng(73)
    x = _tied(rng, np.zeros((2000, 16)))
    labels, flags = rng.integers(0, 4, 2000), (np.arange(2000) % 33 == 0).astype(int)
    selected = []
    partition = np.partition

    def spy(a, *args, **kwargs):
        selected.append(a.dtype)
        return partition(a, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    run_classification(Dataset("tied", x, labels=labels), preproc, seed=5)
    n_classify = len(selected)
    run_anomaly(Dataset("tied", x, labels=flags), preproc, seed=5)
    assert 0 < n_classify < len(selected)
    assert set(selected) == {np.dtype(np.int32)}


class TestEvaluationGrid:
    def test_full_grid_size(self):
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        reports = evaluation_grid(ds, "classify", seed=3, n_folds=5)
        assert len(reports) == 15
        combos = {(r.preprocessor, r.perturbation) for r in reports}
        assert len(combos) == 15

    @pytest.mark.parametrize(
        "task, fixture, task_kwargs",
        [
            ("classify", "glass_shaped", {}),
            (
                "classify",
                "glass_shaped",
                {"knn_k": 3, "n_folds": 4, "subsample_size": 5, "n_subsamples": 3},
            ),
            ("anomaly", "ionosphere_shaped", {}),
            ("anomaly", "breastw_shaped", {"subsample_size": 11, "n_subsamples": 4}),
        ],
    )
    def test_cells_equal_the_reference_runners(self, task, fixture, task_kwargs, request):
        """Every field but the wall time, so the per-fold fit seeds and rows
        and the learner inputs are those of the straight-line runners."""
        dataset = request.getfixturevalue(fixture)
        reference = {
            "classify": reference_harness.run_classification,
            "anomaly": reference_harness.run_anomaly,
        }[task]
        constants = {"shift": 0.25, "scale": 3.0}
        reports = evaluation_grid(dataset, task, seed=19, **constants, **task_kwargs)
        got = [asdict(r) for r in reports]
        for report in got:
            del report["wall_time_ms"]
        want = [
            reference(dataset, preproc, PerturbationSpec(kind, **constants), seed=19, **task_kwargs)
            for preproc in ("minmax", "rank", "ares")
            for kind in ("identity", "log", "square", "sqrt", "inverse")
        ]
        assert got == want

    @pytest.mark.parametrize(
        "task, fixture", [("classify", "tied_class_dataset"), ("anomaly", "tied_anomaly_dataset")]
    )
    def test_tied_cells_equal_the_reference_runners(self, task, fixture, monkeypatch, request):
        """On integer-tied columns, every report field but the wall time
        equals the reference runners', and every learner input, each fold's
        train and test rows, equals the reference model's counts bitwise.
        The cells run on one usable CPU, so the spy sees every learner input,
        in grid order; `TestGridThreads::test_two_workers_equal_one` covers
        two workers on these fixtures."""
        dataset = request.getfixturevalue(fixture)
        _usable_cpus(monkeypatch, 1)
        seen = []

        def spy(fn, *positions):
            def wrapper(*args, **kwargs):
                seen.append([args[i] for i in positions])
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(evaluate, "knn_classify", spy(evaluate.knn_classify, 0, 2))
        monkeypatch.setattr(evaluate, "lof_scores", spy(evaluate.lof_scores, 0))
        reports = evaluation_grid(dataset, task, seed=19)
        monkeypatch.undo()

        reference = {
            "classify": reference_harness.run_classification,
            "anomaly": reference_harness.run_anomaly,
        }[task]
        got = [asdict(r) for r in reports]
        for report in got:
            del report["wall_time_ms"]
        cells = [(preproc, kind) for preproc in KINDS for kind in PERTURBATION_KINDS]
        assert got == [reference(dataset, p, PerturbationSpec(k), seed=19) for p, k in cells]

        want = []
        for preproc, kind in cells:
            features = perturb_matrix(dataset.features, PerturbationSpec(kind))
            if task == "anomaly":
                fits = [(np.arange(dataset.n_rows), 19, [slice(None)])]
            else:
                folds = kfold_split(dataset.n_rows, 10, seed=fold_seed(19))
                fits = [
                    (np.flatnonzero(folds != f), cv_fit_seed(19, f),
                     [np.flatnonzero(folds != f), np.flatnonzero(folds == f)])
                    for f in range(10)
                ]  # fmt: skip
            for rows, fit_seed, parts in fits:
                ft = fit_transformer(features[rows], preproc, seed=fit_seed)
                mapped = ft.transform(features) if preproc == "minmax" else ft.counts(features)
                want.append([mapped[part] for part in parts])
        assert len(seen) == len(want)
        for inputs, expected in zip(seen, want):
            for x, y in zip(inputs, expected):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_unknown_task(self):
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        with pytest.raises(ValueError):
            evaluation_grid(ds, "cluster", seed=3)

    def test_one_shot_name_iterables(self):
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        reports = evaluation_grid(
            ds, "classify", iter(["rank", "ares"]), (k for k in ["log", "sqrt"]), seed=1, n_folds=4
        )
        assert [(r.preprocessor, r.perturbation) for r in reports] == [
            ("rank", "log"), ("rank", "sqrt"), ("ares", "log"), ("ares", "sqrt")
        ]  # fmt: skip

    @pytest.mark.parametrize(
        "preprocessors, perturbations, message",
        [
            (["rank", "zscore"], ["log"], "unknown transformer kind 'zscore'"),
            (["rank"], ["log", "cube"], "unknown perturbation 'cube'"),
        ],
    )
    def test_a_bad_name_fails_before_any_cell(
        self, preprocessors, perturbations, message, monkeypatch
    ):
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        ran = []
        monkeypatch.setattr(evaluate, "run_classification", lambda *a, **k: ran.append(a))
        with pytest.raises(ValueError, match=message):
            evaluation_grid(ds, "classify", preprocessors, perturbations, seed=1)
        assert ran == []


def _usable_cpus(monkeypatch, n):
    """Make `evaluation_grid` see n usable CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _fields(reports):
    """Every report field but the wall time, which depends on contention."""
    out = [asdict(r) for r in reports]
    for report in out:
        del report["wall_time_ms"]
    return out


GRID = [(preproc, kind) for preproc in KINDS for kind in PERTURBATION_KINDS]


def _logged(path, runner):
    """`runner` that first appends "grid index, pid" to the file at `path`: a
    spy's list in a forked worker is never seen by the test, a file is."""

    def cell(dataset, preproc, spec, **kwargs):
        with open(path, "a") as log:
            log.write(f"{GRID.index((preproc, spec.kind))} {os.getpid()}\n")
        return runner(dataset, preproc, spec, **kwargs)

    return cell


def _starts(path):
    """The (grid index, pid) pairs `_logged` wrote, in the order written."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def _assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGridThreads:
    @pytest.mark.parametrize(
        "task, fixture",
        [
            ("classify", "glass_shaped"),
            ("classify", "tied_class_dataset"),
            ("anomaly", "ionosphere_shaped"),
            ("anomaly", "tied_anomaly_dataset"),
        ],
    )
    def test_two_workers_equal_one(self, task, fixture, monkeypatch, request, tmp_path):
        """Float and tied-integer data, every field but the wall time, each
        float compared by its repr, which round-trips it exactly. The log
        shows where the cells ran: on two CPUs, in one forked worker that
        takes the even cells and in the caller, which takes the odd ones."""
        dataset = request.getfixturevalue(fixture)
        name = {"classify": "run_classification", "anomaly": "run_anomaly"}[task]
        runner = getattr(evaluate, name)
        results, starts = {}, {}
        for n_cpus in (1, 2):
            _usable_cpus(monkeypatch, n_cpus)
            log = tmp_path / f"{n_cpus}.log"
            monkeypatch.setattr(evaluate, name, _logged(log, runner))
            results[n_cpus] = repr(_fields(evaluation_grid(dataset, task, seed=19)))
            starts[n_cpus] = _starts(log)
        assert results[2] == results[1]
        me = os.getpid()
        assert starts[1] == [(i, me) for i in range(15)]
        assert len({pid for _, pid in starts[2]}) == 2
        assert [i for i, pid in starts[2] if pid == me] == list(range(1, 15, 2))
        assert [i for i, pid in starts[2] if pid != me] == list(range(0, 15, 2))
        _assert_no_child_left()

    def test_more_workers_than_cores(self, class_dataset, monkeypatch):
        """Eight usable CPUs fork seven workers, more than this machine may
        have cores; every report equals the one-worker run's."""
        _usable_cpus(monkeypatch, 1)
        want = repr(_fields(evaluation_grid(class_dataset, "classify", seed=7, n_folds=4)))
        _usable_cpus(monkeypatch, 8)
        got = repr(_fields(evaluation_grid(class_dataset, "classify", seed=7, n_folds=4)))
        assert got == want
        _assert_no_child_left()

    def test_one_usable_cpu_starts_no_thread(self, monkeypatch):
        """Nor a process: the cells run in a loop in the caller."""
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        _usable_cpus(monkeypatch, 1)

        def start(self):
            raise AssertionError("a thread was started")

        def fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(os, "fork", fork)
        assert len(evaluation_grid(ds, "classify", seed=3, n_folds=5)) == 15

    def test_a_second_live_thread_runs_the_grid_in_the_caller(self, monkeypatch, tmp_path):
        """Forking beside another thread could copy a lock that thread holds,
        so the grid forks only from a process's one Python thread."""
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        _usable_cpus(monkeypatch, 1)
        want = repr(_fields(evaluation_grid(ds, "classify", seed=3, n_folds=5)))
        _usable_cpus(monkeypatch, 2)
        log = tmp_path / "cells.log"
        monkeypatch.setattr(evaluate, "run_classification", _logged(log, run_classification))

        def fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = repr(_fields(evaluation_grid(ds, "classify", seed=3, n_folds=5)))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert got == want
        assert _starts(log) == [(i, os.getpid()) for i in range(15)]

    def test_a_failing_cell_raises_as_with_one_worker(self, class_dataset, monkeypatch):
        """ARES with psi above the training rows fails; rank runs. No worker
        outlives the raise."""
        raised = []
        for n_cpus in (1, 2):
            _usable_cpus(monkeypatch, n_cpus)
            with pytest.raises(PsiTooLarge) as info:
                evaluation_grid(
                    class_dataset, "classify", ["ares", "rank"], seed=3, n_folds=4,
                    subsample_size=class_dataset.n_rows,
                )  # fmt: skip
            _assert_no_child_left()
            raised.append((type(info.value), str(info.value)))
        assert raised[1] == raised[0]

    def test_first_failure_in_grid_order_raises_and_queued_cells_never_start(
        self, monkeypatch, tmp_path
    ):
        """Cell 1, the caller's first, fails first in time; cell 0, the
        worker's first, fails later. The loop would raise cell 0's error, and
        so must the workers, each stopping at its own first failure."""
        ds = gaussian_classification("grid", 60, 3, 2, seed=74)
        _usable_cpus(monkeypatch, 2)

        def cell(dataset, preproc, spec, **kwargs):
            index = GRID.index((preproc, spec.kind))
            if index == 0:
                time.sleep(0.3)
                raise ValueError("cell 0")
            if index == 1:
                raise ValueError("cell 1")

        log = tmp_path / "cells.log"
        monkeypatch.setattr(evaluate, "run_classification", _logged(log, cell))
        with pytest.raises(ValueError, match="^cell 0$"):
            evaluation_grid(ds, "classify", seed=1)
        _assert_no_child_left()
        (first, worker), (second, caller) = sorted(_starts(log))
        assert (first, second, caller) == (0, 1, os.getpid()) and worker != caller


class _Abort(BaseException):
    """Not an `Exception`, so a share does not catch it as a cell failure."""


@pytest.mark.parametrize("outcome", ["success", "failing cell", "caller's share raises"])
def test_no_worker_outlives_the_grid(outcome, monkeypatch):
    ds = gaussian_classification("grid", 60, 3, 2, seed=74)
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def cell(dataset, preproc, spec, **kwargs):
        index = GRID.index((preproc, spec.kind))
        if outcome == "failing cell" and index == 4:
            raise ValueError("cell 4")
        if outcome == "caller's share raises" and os.getpid() == caller:
            raise _Abort
        return run_classification(dataset, preproc, spec, **kwargs)

    monkeypatch.setattr(evaluate, "run_classification", cell)
    if outcome == "success":
        assert len(evaluation_grid(ds, "classify", seed=1, n_folds=4)) == 15
    else:
        with pytest.raises(ValueError if outcome == "failing cell" else _Abort):
            evaluation_grid(ds, "classify", seed=1, n_folds=4)
    _assert_no_child_left()


@pytest.mark.parametrize("status", [3, 0])
def test_a_worker_that_exits_without_reporting_raises_worker_lost(status, monkeypatch):
    ds = gaussian_classification("grid", 60, 3, 2, seed=74)
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def cell(dataset, preproc, spec, **kwargs):
        if os.getpid() != caller:
            os._exit(status)
        return run_classification(dataset, preproc, spec, **kwargs)

    monkeypatch.setattr(evaluate, "run_classification", cell)
    message = f"exited with status {status} without reporting$"
    with pytest.raises(evaluate.WorkerLost, match=message) as info:
        evaluation_grid(ds, "classify", seed=1, n_folds=4)
    assert info.value.status == status and info.value.pid != caller
    _assert_no_child_left()


@pytest.mark.parametrize("task", ["classify", "anomaly"])
@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize(
    "kwargs, name",
    [({"subsample_size": 2.5}, "sub-sample size"), ({"n_subsamples": 2.5}, "sub-sample count t")],
)
def test_a_float_ares_psi_or_t_fails_before_any_cell(
    task, n_cpus, kwargs, name, monkeypatch, tmp_path, class_dataset, anomaly_dataset
):
    """The TypeError `_draw` raises for the first ARES fit, before any
    learner runs in any worker; a grid without ARES ignores psi and t."""
    dataset = class_dataset if task == "classify" else anomaly_dataset
    _usable_cpus(monkeypatch, n_cpus)
    log = tmp_path / "learners.log"

    def logged(fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(evaluate, "knn_classify", logged(evaluate.knn_classify))
    monkeypatch.setattr(evaluate, "lof_scores", logged(evaluate.lof_scores))
    with pytest.raises(TypeError) as from_fit:
        fit_transformer(dataset.features, "ares", **kwargs, seed=1)
    with pytest.raises(TypeError) as from_grid:
        evaluation_grid(dataset, task, seed=1, **kwargs)
    assert str(from_grid.value) == str(from_fit.value) == f"{name} must be an integer, got float"
    assert not log.exists()
    _assert_no_child_left()
    assert len(evaluation_grid(dataset, task, ["rank"], ["log"], seed=1, **kwargs)) == 1


def _scalefree_errors(cls=ScaleFreeError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _scalefree_errors(sub)


@pytest.mark.parametrize("cls", list(_scalefree_errors()), ids=lambda cls: cls.__name__)
def test_every_package_error_survives_pickling(cls):
    """A worker sends a failed cell's exception back as a pickle, so the
    caller raises the same type, message and attributes."""
    error = cls(f"a {cls.__name__}")
    if cls is ParseError:
        error = ParseError("bad cell", row=3, column="width")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and copy.args == error.args
    assert vars(copy) == vars(error)
    if cls is ParseError:
        assert (copy.row, copy.column) == (3, "width")
