"""The package surface resolves lazily, and the CLI starts no BLAS pool.

`import scalefree` loads no submodule: each public name and submodule is
imported on first access. `import scalefree.cli` in a fresh interpreter sets
OPENBLAS_NUM_THREADS to 1 before numpy loads, unless the variable is set or
numpy is already loaded, and `evaluate` leaves the count as it started. A
CLI process loads OpenSSL (`_hashlib`) only to read or write a model
fingerprint, and never `numpy.random`. The fresh-interpreter tests run in
subprocesses, since this process has long since imported numpy.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import scalefree

from openblas import needs_openblas

SRC = Path(scalefree.__file__).resolve().parents[1]


def run_fresh(code: str, **env) -> object:
    """Run ``code`` in a fresh interpreter that finds this checkout's package,
    with OPENBLAS_NUM_THREADS unset unless given in ``env``; return the JSON
    value of its last output line."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_public_names_are_pinned():
    # adding or deleting a public name is an edit here
    assert scalefree.__all__ == [
        "Dataset", "EvaluationReport", "FittedTransformer", "PERTURBATION_KINDS",
        "PerturbationSpec", "ScaleFreeError", "accuracy", "auc", "average_ranks",
        "derive_seed", "evaluation_grid", "fit_transformer", "kfold_split", "knn_classify",
        "load_csv", "load_model", "lof_neighbor_count", "lof_scores", "perturb_matrix",
        "run_anomaly", "run_classification", "save_csv", "save_model", "subsample_indices",
        "subsample_seed", "write_report",
    ]  # fmt: skip


@pytest.mark.parametrize("name", scalefree.__all__)
def test_public_name_is_its_modules_attribute(name):
    module = importlib.import_module(f"scalefree.{scalefree._EXPORTS[name]}")
    assert getattr(scalefree, name) is getattr(module, name)


def _references(node) -> Counter:
    """Names ``node`` uses: loaded names, attributes and imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def test_every_private_module_name_is_used():
    """Each module-level function, class or assignment whose name has one
    leading underscore is used somewhere in the package outside its own
    definition."""
    used, private = Counter(), []
    for path in sorted((SRC / "scalefree").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _references(stmt)
            used += own
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private += [
                (path.name, name, own[name])
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    assert private
    dead = [f"{module}: {name}" for module, name, own in private if used[name] == own]
    assert not dead


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scalefree import *", namespace)
    for name in scalefree.__all__:
        assert namespace[name] is getattr(scalefree, name)
    assert set(scalefree.__all__) <= set(dir(scalefree))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="active_backend"):
        scalefree.active_backend
    assert getattr(scalefree, "active_backend", None) is None
    with pytest.raises(ImportError):
        from scalefree import active_backend


def test_import_loads_no_numpy_and_submodules_resolve():
    lazy, name, knn = run_fresh(
        "import json, sys\n"
        "import scalefree\n"
        "lazy = 'numpy' not in sys.modules\n"
        "module = scalefree.neighbors\n"
        "print(json.dumps([lazy, module.__name__, scalefree.knn_classify is module.knn_classify]))"
    )
    assert lazy and name == "scalefree.neighbors" and knn


# sets `threads` to numpy's OpenBLAS thread count; the lookup is
# `openblas._lookup`'s, inlined so that a fresh interpreter needs only numpy
READ_THREADS = (
    "import ctypes, numpy\n"
    "lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)\n"
    "threads = lib.scipy_openblas_get_num_threads64_()\n"
)
# the count and the variable, after importing the CLI
CLI_BLAS = (
    "import json, os\n"
    "import scalefree.cli\n"
    + READ_THREADS
    + "print(json.dumps([threads, os.environ.get('OPENBLAS_NUM_THREADS')]))"
)


def plain_threads(**env) -> int:
    """The count in a fresh interpreter that imports numpy alone."""
    return run_fresh("import json\n" + READ_THREADS + "print(json.dumps(threads))", **env)


def skip_unless_two_threads():
    if plain_threads(OPENBLAS_NUM_THREADS="2") != 2:
        pytest.skip("OpenBLAS caps its thread count below 2 here")


@needs_openblas
def test_cli_import_defaults_openblas_to_one_thread():
    assert run_fresh(CLI_BLAS) == [1, "1"]


@needs_openblas
def test_cli_import_keeps_a_users_thread_count():
    skip_unless_two_threads()
    assert run_fresh(CLI_BLAS, OPENBLAS_NUM_THREADS="2") == [2, "2"]


@needs_openblas
def test_cli_import_after_numpy_leaves_the_environment_alone():
    same, threads = run_fresh(
        "import json, os\n"
        "import numpy\n"
        "before = dict(os.environ)\n"
        "import scalefree.cli\n"
        + READ_THREADS
        + "print(json.dumps([dict(os.environ) == before, threads]))"
    )
    assert same
    assert threads == plain_threads()


def _tiny_csv(path):
    """30 rows of two features and a 0/1 label: enough for 10 folds and LOF."""
    rows = [f"{i},{(7 * i) % 11},{int(i % 10 == 0)}" for i in range(30)]
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def run_cli_fresh(*argvs):
    """Run each argv through `scalefree.cli.main` in one fresh interpreter;
    return whether hashlib, OpenSSL's `_hashlib`, `numpy.random` and
    `concurrent.futures` were loaded after the import, and after the calls.
    The grid's workers are forked processes, so no subcommand needs
    `concurrent.futures`, whose import would cost a one-cell `evaluate` a
    few milliseconds."""
    return run_fresh(
        "import json, sys\n"
        "import scalefree.cli\n"
        "names = ('hashlib', '_hashlib', 'numpy.random', 'concurrent.futures')\n"
        "loaded = lambda: [m in sys.modules for m in names]\n"
        "before = loaded()\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert scalefree.cli.main(argv) == 0, argv\n"
        "print(json.dumps([before, loaded()]))"
    )


def test_cli_import_loads_no_openssl_or_numpy_random():
    before, after = run_cli_fresh()
    assert before == after == [False, False, False, False]


def test_evaluate_and_perturb_load_no_openssl_or_numpy_random(tmp_path):
    data, out = _tiny_csv(tmp_path / "d.csv"), str(tmp_path / "out")
    io = ["--input", data, "--label-col", "label", "--output", out]
    before, after = run_cli_fresh(
        ["evaluate", *io, "--task", "classify", "--seed", "3"],
        ["evaluate", *io, "--task", "anomaly", "--preproc", "rank", "--seed", "3"],
        ["perturb", *io, "--perturb", "log"],
    )
    assert before == after == [False, False, False, False]


def test_fit_loads_hashlib_and_writes_the_same_fingerprint(tmp_path):
    data, model = _tiny_csv(tmp_path / "d.csv"), tmp_path / "model.json"
    fit = ["fit", "--input", data, "--label-col", "label", "--kind", "rank"]
    before, after = run_cli_fresh([*fit, "--output", str(model)])
    assert before == [False, False, False, False]
    assert after == [True, True, False, False]
    # sha256 of "columns:2", the fingerprint every earlier release wrote
    assert json.loads(model.read_text())["fingerprint"] == (
        "c2314894752213b830be37bfb2a879621e40b63a75445d697198ba1fd08e385d"
    )


def evaluate_threads(tmp_path, **env) -> int:
    """The count after `evaluate` of both tasks, run through
    `scalefree.cli.main` in a fresh interpreter."""
    data, out = _tiny_csv(tmp_path / "d.csv"), str(tmp_path / "out")
    io = ["--input", data, "--label-col", "label", "--output", out]
    argvs = [["evaluate", *io, "--task", task, "--seed", "3"] for task in ("classify", "anomaly")]
    return run_fresh(
        "import json\n"
        "import scalefree.cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert scalefree.cli.main(argv) == 0, argv\n"
        + READ_THREADS
        + "print(json.dumps(threads))",
        **env,
    )


@needs_openblas
def test_evaluate_keeps_the_start_up_thread_count(tmp_path):
    assert evaluate_threads(tmp_path) == 1
    skip_unless_two_threads()
    assert evaluate_threads(tmp_path, OPENBLAS_NUM_THREADS="2") == 2
