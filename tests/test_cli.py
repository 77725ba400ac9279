"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import json

import numpy as np
import pytest

from scalefree.cli import main
from scalefree.data import Dataset, load_csv, save_csv
from scalefree.perturb import PerturbationSpec, perturb_matrix

from conftest import gaussian_classification


@pytest.fixture
def class_csv(tmp_path):
    ds = gaussian_classification("glassish", 214, 9, 6, seed=111)
    path = tmp_path / "glassish.csv"
    save_csv(ds, path)
    return path


@pytest.fixture
def anomaly_csv(tmp_path):
    rng = np.random.default_rng(112)
    inliers = rng.normal(size=(140, 4))
    outliers = rng.uniform(-8, 8, size=(10, 4))
    flags = np.concatenate([np.zeros(140, dtype=int), np.ones(10, dtype=int)])
    ds = Dataset("anomish", np.vstack([inliers, outliers]), labels=flags)
    path = tmp_path / "anomish.csv"
    save_csv(ds, path)
    return path


def _read_report_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFit:
    def test_defaults_write_expected_model(self, class_csv, tmp_path):
        model = tmp_path / "model.json"
        rc = main(
            ["fit", "--input", str(class_csv), "--label-col", "label",
             "--kind", "ares", "--output", str(model)]
        )
        assert rc == 0
        doc = json.loads(model.read_text())
        assert doc["psi"] == 7 and doc["t"] == 10
        assert len(doc["columns"]) == 9

    def test_repeat_runs_byte_identical(self, class_csv, tmp_path):
        argv = ["fit", "--input", str(class_csv), "--label-col", "label",
                "--kind", "ares", "--seed", "7"]
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(argv + ["--output", str(m1)]) == 0
        assert main(argv + ["--output", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()


class TestTransform:
    def test_round_trip(self, class_csv, tmp_path):
        model = tmp_path / "model.json"
        out = tmp_path / "out.csv"
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "minmax", "--output", str(model)])
        rc = main(["transform", "--model", str(model), "--input", str(class_csv),
                   "--label-col", "label", "--output", str(out)])
        assert rc == 0
        ds = load_csv(out, label_column="label")
        assert ds.n_features == 9
        assert ds.features.min() == 0.0 and ds.features.max() == 1.0

    def test_column_mismatch_exits_one(self, class_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "minmax", "--output", str(model)])
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("a,b\n1,2\n3,4\n")
        rc = main(["transform", "--model", str(model), "--input", str(narrow),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "ColumnCountMismatch" in capsys.readouterr().err

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = main(["transform", "--model", str(tmp_path / "nope.json"),
                   "--input", str(tmp_path / "nope.csv"),
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPerturb:
    def test_matches_library_output(self, class_csv, tmp_path):
        out = tmp_path / "perturbed.csv"
        rc = main(["perturb", "--input", str(class_csv), "--label-col", "label",
                   "--perturb", "log", "--output", str(out)])
        assert rc == 0
        original = load_csv(class_csv, label_column="label")
        expected = perturb_matrix(original.features, PerturbationSpec("log"))
        got = load_csv(out, label_column="label")
        assert got.features.tobytes() == expected.tobytes()
        assert got.labels.tolist() == original.labels.tolist()

    def test_custom_constants(self, class_csv, tmp_path):
        out = tmp_path / "perturbed.csv"
        rc = main(["perturb", "--input", str(class_csv), "--label-col", "label",
                   "--perturb", "inverse", "--perturb-a", "0.5", "--perturb-b", "2",
                   "--output", str(out)])
        assert rc == 0
        original = load_csv(class_csv, label_column="label")
        expected = perturb_matrix(
            original.features, PerturbationSpec("inverse", shift=0.5, scale=2.0)
        )
        assert load_csv(out, label_column="label").features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("command", [["perturb", "--perturb", "log"], ["fit", "--kind", "rank"]])
@pytest.mark.parametrize(
    "target, reason",
    [("missing/out", "[Errno 2] No such file or directory"), ("a_dir", "[Errno 21] Is a directory")],
)
def test_unwritable_output_is_named(command, target, reason, class_csv, tmp_path, capsys):
    (tmp_path / "a_dir").mkdir()
    out = str(tmp_path / target)
    rc = main([*command, "--input", str(class_csv), "--label-col", "label", "--output", out])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {reason}: {out!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", class_csv.name]


class TestEvaluate:
    def test_log_and_identity_agree_for_ares(self, class_csv, tmp_path):
        rows = {}
        for kind in ("identity", "log"):
            out = tmp_path / f"report_{kind}.csv"
            rc = main(["evaluate", "--input", str(class_csv), "--label-col", "label",
                       "--task", "classify", "--preproc", "ares",
                       "--perturb", kind, "--seed", "5", "--output", str(out)])
            assert rc == 0
            rows[kind] = _read_report_rows(out)[0]
        assert rows["log"]["aggregate"] == rows["identity"]["aggregate"]

    def test_report_identical_modulo_wall_time(self, class_csv, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(["evaluate", "--input", str(class_csv), "--label-col", "label",
                  "--task", "classify", "--preproc", "rank", "--seed", "5",
                  "--output", str(out)])
            outs.append(_read_report_rows(out))
        for row in outs[0] + outs[1]:
            row.pop("wall_time_ms")
        assert outs[0] == outs[1]

    def test_grid_emits_all_combinations(self, class_csv, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["evaluate", "--input", str(class_csv), "--label-col", "label",
                   "--task", "classify", "--grid", "--seed", "5",
                   "--folds", "5", "--output", str(out)])
        assert rc == 0
        rows = _read_report_rows(out)
        assert len(rows) == 15
        assert {(r["preprocessor"], r["perturbation"]) for r in rows} == {
            (p, k)
            for p in ("minmax", "rank", "ares")
            for k in ("identity", "log", "square", "sqrt", "inverse")
        }

    def test_anomaly_task(self, anomaly_csv, tmp_path):
        out = tmp_path / "anom.json"
        rc = main(["evaluate", "--input", str(anomaly_csv), "--label-col", "label",
                   "--task", "anomaly", "--preproc", "rank", "--seed", "3",
                   "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["metric"] == "auc"
        assert payload[0]["per_fold"] == []
        assert 0.0 <= payload[0]["aggregate"] <= 1.0

    def test_kind_is_a_usage_error(self, class_csv, tmp_path):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc_info:
            main(["evaluate", "--input", str(class_csv), "--label-col", "label",
                  "--kind", "rank", "--output", str(out)])
        assert exc_info.value.code == 2
        assert not out.exists()

    def test_bad_folds_exits_one(self, class_csv, tmp_path, capsys):
        rc = main(["evaluate", "--input", str(class_csv), "--label-col", "label",
                   "--folds", "1", "--output", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "folds" in capsys.readouterr().err


class TestSeedResolution:
    def test_env_var_fallback(self, class_csv, tmp_path, monkeypatch):
        m_env, m_flag = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("SCALEFREE_SEED", "1234")
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "ares", "--output", str(m_env)])
        monkeypatch.delenv("SCALEFREE_SEED")
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "ares", "--seed", "1234", "--output", str(m_flag)])
        assert m_env.read_bytes() == m_flag.read_bytes()

    def test_flag_overrides_env(self, class_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SCALEFREE_SEED", "1111")
        m1 = tmp_path / "m1.json"
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "ares", "--seed", "2222", "--output", str(m1)])
        assert json.loads(m1.read_text())["seed"] == 2222


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--bogus"])
        assert exc_info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
