"""Cross-validation split and the classification/anomaly runners."""

from dataclasses import asdict

import numpy as np
import pytest

from scalefree import evaluate
from scalefree.data import Dataset
from scalefree.errors import (
    MissingLabelColumn,
    NonBinaryLabels,
    PsiNonPositive,
    PsiTooLarge,
    TooFewRows,
)
from scalefree.evaluate import (
    evaluation_grid,
    kfold_split,
    lof_neighbor_count,
    run_anomaly,
    run_classification,
)
from scalefree.perturb import PERTURBATION_KINDS, PerturbationSpec, perturb_matrix
from scalefree.sampling import cv_fit_seed, fold_seed
from scalefree.transforms import KINDS, fit_transformer

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
        sizes = [folds.test_indices(f).size for f in range(10)]
        assert sizes == [1] * 10

    def test_one_fold_of_two(self):
        folds = kfold_split(11, 10, seed=1)
        sizes = sorted(folds.test_indices(f).size for f in range(10))
        assert sizes == [1] * 9 + [2]

    def test_glass_sized_split(self):
        # 214 = 4 * 22 + 6 * 21
        folds = kfold_split(214, 10, seed=2)
        sizes = sorted(folds.test_indices(f).size for f in range(10))
        assert sizes == [21] * 6 + [22] * 4
        assert sum(sizes) == 214

    def test_partition_is_exact(self):
        folds = kfold_split(57, 5, seed=3)
        seen = np.concatenate([folds.test_indices(f) for f in range(5)])
        assert np.array_equal(np.sort(seen), np.arange(57))
        for f in range(5):
            assert not np.intersect1d(folds.test_indices(f), folds.train_indices(f)).size

    def test_deterministic(self):
        a = kfold_split(100, 10, seed=9)
        b = kfold_split(100, 10, seed=9)
        assert np.array_equal(a.fold_of_row, b.fold_of_row)

    def test_seed_changes_split(self):
        a = kfold_split(100, 10, seed=9)
        b = kfold_split(100, 10, seed=10)
        assert not np.array_equal(a.fold_of_row, b.fold_of_row)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            kfold_split(9, 10, seed=0)

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            kfold_split(10, 1, seed=0)


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
            train = features[folds.train_indices(f)]
            test = features[folds.test_indices(f)]
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
        rows = kfold_split(dataset.n_rows, 10, seed=fold_seed(5)).train_indices(0)
    else:
        rows = np.arange(dataset.n_rows)
    n_fit = len(rows)
    psi = n_fit + 1 if psi == "n_fit + 1" else psi
    if t < 1:
        error, message = ValueError, "need a 2-D array of at least one nonempty sub-sample"
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
def test_zero_columns_raise_the_fit_error(preproc):
    dataset = Dataset("no_columns", np.zeros((30, 0)), labels=np.arange(30) % 2)
    for run in (run_classification, run_anomaly):
        with pytest.raises(ValueError, match="^a fitted transformer needs at least one column$"):
            run(dataset, preproc, seed=5)


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
        train and test rows, equals the reference model's counts bitwise."""
        dataset = request.getfixturevalue(fixture)
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
                    (folds.train_indices(f), cv_fit_seed(19, f),
                     [folds.train_indices(f), folds.test_indices(f)])
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
