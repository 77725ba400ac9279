"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalefree
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
        source = load_csv(class_csv, label_column="label")
        assert np.array_equal(ds.labels, source.labels)
        assert ds.feature_names == source.feature_names

    @pytest.mark.parametrize("kind", ["minmax", "rank", "ares"])
    def test_header_only_input_writes_only_the_header(self, kind, class_csv, tmp_path):
        model, out = tmp_path / "model.json", tmp_path / "out.csv"
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", kind, "--output", str(model)])
        header = tmp_path / "header.csv"
        header.write_text(class_csv.read_text().splitlines(keepends=True)[0])
        rc = main(["transform", "--model", str(model), "--input", str(header),
                   "--label-col", "label", "--output", str(out)])
        assert rc == 0
        assert out.read_text() == header.read_text()

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


    def test_undecodable_model_is_named(self, class_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{"format_version": 1, "kind": "\xff"}')
        rc = main(["transform", "--model", str(model), "--input", str(class_csv),
                   "--label-col", "label", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: CorruptModel: ")

    def test_overflowing_seed_is_named(self, class_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        main(["fit", "--input", str(class_csv), "--label-col", "label",
              "--kind", "ares", "--seed", "7", "--output", str(model)])
        model.write_text(model.read_text().replace('"seed": 7', '"seed": 1e400'))
        rc = main(["transform", "--model", str(model), "--input", str(class_csv),
                   "--label-col", "label", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: CorruptModel: ")


@pytest.mark.parametrize("command", [["perturb", "--perturb", "log"], ["fit", "--kind", "rank"]])
def test_undecodable_csv_is_named(command, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,\xff\n")
    out = tmp_path / "out"
    rc = main([*command, "--input", str(bad), "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ParseError: ")
    assert not out.exists()


# a stray quote in a long CSV runs past csv's field limit, in a short one to
# its end; JSON nested past the decoder's recursion limit, or an integer past
# Python's digit limit
_UNREADABLE = {
    "stray-quote.csv": 'a,label\n1.5,"x\n' + "1.5,x\n" * 30_000,
    "short-stray-quote.csv": 'a,label\n1,"x\n2,y\n3,z\n',
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "digits.json": '{"format_version": ' + "1" * 5000 + "}",
}


@pytest.mark.parametrize("name", _UNREADABLE)
def test_unreadable_input_is_one_error_line(name, class_csv, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_text(_UNREADABLE[name])
    out = tmp_path / "out.csv"
    if name.endswith(".csv"):
        command, error = ["perturb", "--input", str(bad)], "ParseError"
    else:
        command = ["transform", "--model", str(bad), "--input", str(class_csv)]
        error = "CorruptModel"
    rc = main([*command, "--label-col", "label", "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: {bad}: ") and err.endswith("\n")
    assert err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, class_csv.name])


@pytest.mark.parametrize("fault", ["label-name", "model-kind"])
def test_a_long_bad_value_is_one_short_error_line(fault, class_csv, tmp_path, capsys):
    """A 5 000-character label name or model kind is quoted by its prefix."""
    long = "x" * 5000
    if fault == "label-name":
        command = ["perturb", "--perturb", "log", "--label-col", long]
        error = "MissingLabelColumn"
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format_version": 1, "kind": long, "columns": [{}]}))
        command, error = ["transform", "--model", str(model), "--label-col", "label"], "CorruptModel"
    out = tmp_path / "out.csv"
    rc = main([*command, "--input", str(class_csv), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err
    assert f"{'x' * 40!r}... (5000 characters)" in err
    assert len(err) < len(str(tmp_path)) + 200
    assert not out.exists()


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

    @pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
    @pytest.mark.parametrize("mode, kept", [("ab", b"EARLIER LINE\n"), ("wb", b"")])
    def test_output_to_stdout_redirected_to_a_file(self, mode, kept, class_csv, tmp_path):
        # `--output /dev/stdout >> log.csv` (mode "ab") appends to what the
        # file held; `> log.csv` ("wb") leaves the CSV alone.
        direct = tmp_path / "direct.csv"
        assert main(["perturb", "--input", str(class_csv), "--output", str(direct)]) == 0
        log = tmp_path / "log.csv"
        log.write_bytes(b"EARLIER LINE\n")
        path = [str(Path(scalefree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        with open(log, mode) as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "scalefree.cli", "perturb",
                 "--input", str(class_csv), "--output", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert done.returncode == 0, done.stderr
        assert log.read_bytes() == kept + direct.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["direct.csv", "log.csv", class_csv.name]
        )


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


@pytest.mark.parametrize("command", [["perturb"], ["evaluate", "--folds", "2"]])
@pytest.mark.parametrize("flag", ["--perturb-a", "--perturb-b"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_perturbation_constant_is_a_usage_error(
    command, flag, value, class_csv, tmp_path, capsys
):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc_info:
        main([*command, "--input", str(class_csv), "--label-col", "label",
              flag, value, "--output", str(out)])
    assert exc_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [
        f"scalefree {command[0]}: error: argument {flag}: "
        f"must be a positive finite number, got {value}"
    ]
    assert not out.exists()


_BAD_NUMBERS = [
    *((command, flag, value)
      for command in (["fit"], ["evaluate"]) for flag in ("--psi", "--t")
      for value in ("abc", "1.5", "0", "-1")),
    *((["evaluate"], "--k", value) for value in ("abc", "1.5", "0", "-1")),
    *((command, flag, "abc")
      for command in (["perturb"], ["evaluate"]) for flag in ("--perturb-a", "--perturb-b")),
]  # fmt: skip


@pytest.mark.parametrize("command, flag, value", _BAD_NUMBERS)
def test_malformed_or_small_number_is_a_usage_error(
    command, flag, value, class_csv, tmp_path, capsys
):
    """Text that does not parse fails as an out-of-range number does, naming
    the flag and the value, not the private function that parses them."""
    rule = "a positive finite number" if flag.startswith("--perturb") else "an integer >= 1"
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc_info:
        main([*command, "--input", str(class_csv), "--label-col", "label",
              flag, value, "--output", str(out)])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert errors == [f"scalefree {command[0]}: error: argument {flag}: must be {rule}, got {value}"]
    assert "_positive" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", [["perturb", "--perturb", "inverse"], ["evaluate", "--perturb", "inverse", "--folds", "2"]]
)
def test_overflowing_perturbation_is_named(command, class_csv, tmp_path, capsys):
    """10 * (u + 1e308) overflows; inverse would map it to 0 in silence."""
    out = tmp_path / "out.csv"
    rc = main([*command, "--input", str(class_csv), "--label-col", "label",
               "--perturb-a", "1e308", "--perturb-b", "10", "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: NonFiniteResult: perturbation 'inverse' produced non-finite values\n"
    )
    assert not out.exists()


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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    @pytest.mark.parametrize("task, data", [("classify", "class_csv"), ("anomaly", "anomaly_csv")])
    def test_grid_pinned_to_one_cpu_equals_the_unpinned_grid(self, task, data, request, tmp_path):
        """One usable CPU runs the cells in turn, the unpinned run on threads
        where the machine has more; the JSON reports differ only in times."""
        path = [str(Path(scalefree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        cpu = min(os.sched_getaffinity(0))
        payloads = []
        for pin in (lambda: os.sched_setaffinity(0, {cpu}), None):
            out = tmp_path / f"grid_{len(payloads)}.json"
            done = subprocess.run(
                [sys.executable, "-m", "scalefree.cli", "evaluate",
                 "--input", str(request.getfixturevalue(data)), "--label-col", "label",
                 "--task", task, "--grid", "--seed", "5", "--output", str(out)],
                preexec_fn=pin, capture_output=True, env=env, timeout=120,
            )  # fmt: skip
            assert done.returncode == 0, done.stderr
            payloads.append(json.loads(out.read_text()))
        for report in payloads[0] + payloads[1]:
            del report["wall_time_ms"]
        assert len(payloads[0]) == 15
        assert payloads[0] == payloads[1]

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

    def test_folds_unused_by_the_anomaly_task(self, anomaly_csv, tmp_path):
        payloads = []
        for folds in ([], ["--folds", "1"]):
            out = tmp_path / f"anom{len(folds)}.json"
            rc = main(["evaluate", "--input", str(anomaly_csv), "--label-col", "label",
                       "--task", "anomaly", "--preproc", "rank", "--seed", "3",
                       *folds, "--output", str(out)])
            assert rc == 0
            payloads.append(json.loads(out.read_text()))
        for payload in payloads:
            del payload[0]["wall_time_ms"]
        assert payloads[0] == payloads[1]


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

    @pytest.mark.parametrize("command", [
        ["fit", "--kind", "ares"],
        ["evaluate", "--task", "classify", "--preproc", "rank", "--folds", "2"],
    ])
    def test_malformed_env_var_is_a_usage_error(
        self, command, class_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SCALEFREE_SEED", "abc")
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc_info:
            main([*command, "--input", str(class_csv), "--label-col", "label",
                  "--output", str(out)])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "SCALEFREE_SEED" in err and "'abc'" in err
        assert not out.exists()

    def test_long_malformed_env_var_is_quoted_by_its_prefix(
        self, class_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SCALEFREE_SEED", "9" * 5000)
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--input", str(class_csv), "--label-col", "label",
                  "--kind", "ares", "--output", str(tmp_path / "m.json")])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"got {'9' * 40!r}... (5000 characters)\n") and err.count("\n") == 1

    def test_malformed_env_var_is_unused_by_a_flag(self, class_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("SCALEFREE_SEED", "abc")
        m1 = tmp_path / "m1.json"
        assert main(["fit", "--input", str(class_csv), "--label-col", "label",
                     "--kind", "ares", "--seed", "3", "--output", str(m1)]) == 0
        assert json.loads(m1.read_text())["seed"] == 3

    def test_perturb_and_transform_ignore_the_env_var(self, class_csv, tmp_path, monkeypatch):
        model, perturbed, out = tmp_path / "m.json", tmp_path / "p.csv", tmp_path / "t.csv"
        io = ["--input", str(class_csv), "--label-col", "label"]
        assert main(["fit", *io, "--kind", "rank", "--output", str(model)]) == 0
        monkeypatch.setenv("SCALEFREE_SEED", "abc")
        assert main(["perturb", *io, "--perturb", "log", "--output", str(perturbed)]) == 0
        assert main(["transform", *io, "--model", str(model), "--output", str(out)]) == 0
        assert perturbed.exists() and out.exists()


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--bogus"])
        assert exc_info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
