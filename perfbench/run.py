#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `scalefree` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload classify-grid --seed 1 --seconds 30 --trace 0

The workload seed generates the input CSVs; the CLI sees only those files
and `--seed`. With `--trace 0` one client runs the workload's CLI calls in
a closed loop, one subprocess per call, and reports end-to-end metrics.
With `--trace 1` the same calls run in-process through `scalefree.cli.main`,
alternating untraced and traced repetitions, and per-layer metrics come
from the traced ones. Every repetition checks the CLI's outputs. The last
line of stdout is one JSON object; full results, the machine record and
the spans go to `.perfbench_out/`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer, median_per_request, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_SAMPLES = 11
LOOP_LIMIT_S = 140.0  # no new repetition starts past this point
KILL_AFTER_S = 170.0  # a CLI child still running then is killed
MIB = float(1 << 20)
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS",
)  # fmt: skip


def _check(step):
    try:
        return step.check() if step.check else []
    except Exception as exc:  # a crashed check is a failed output check
        return [f"{step.name}: check raised {type(exc).__name__}: {exc}"]


def _keep_looping(started, reps, rep_s, seconds):
    elapsed = time.perf_counter() - started
    if elapsed + rep_s > LOOP_LIMIT_S:
        return False
    return reps < MIN_REPS or elapsed + rep_s <= seconds


# ---------------------------------------------------------------------------
# untraced: one subprocess per CLI call
# ---------------------------------------------------------------------------


def run_child(argv, env, err_path, t_zero):
    """Run one CLI call; returns (exit code, wall s, its own rusage).

    os.wait4 reaps this child alone, so ru_maxrss is this child's peak and
    not the running maximum RUSAGE_CHILDREN keeps over every child.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "scalefree.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )  # fmt: skip
        watchdog = threading.Timer(max(1.0, KILL_AFTER_S - (start - t_zero)), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def measure_setup(env):
    """Median wall time for a fresh interpreter to import scalefree.cli."""
    argv = [sys.executable, "-c", "import scalefree.cli"]
    subprocess.run(argv, cwd=ROOT, env=env, check=True)  # compiles bytecode once
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_untraced(prepared, seconds, work, t_zero):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = measure_setup(env)
    reps, errors = [], []
    attempted = failed = 0
    started = time.perf_counter()
    rep_s = 0.0
    while _keep_looping(started, len(reps), rep_s, seconds):
        rep_start = time.perf_counter()
        wall = cpu = rss = 0.0
        for step in prepared.steps:
            step.output.unlink(missing_ok=True)
            err_path = work / f"{step.name}.stderr"
            code, step_wall, usage = run_child(step.argv, env, err_path, t_zero)
            attempted += 1
            wall += step_wall
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss * 1024 / MIB)
            if code != 0:
                tail = err_path.read_text(errors="replace").strip()[-300:]
                problems = [f"{step.name}: exit {code}: {tail}"]
            else:
                problems = _check(step)
            if problems:
                failed += 1
                errors.extend(problems)
        reps.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss})
        rep_s = time.perf_counter() - rep_start

    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw = {"repetitions": reps, "setup_samples": setup}
    return metrics, attempted, failed, errors, raw


# ---------------------------------------------------------------------------
# traced: in-process through scalefree.cli.main
# ---------------------------------------------------------------------------


def run_inprocess(steps, tracer):
    """One repetition in this process; returns (wall s of the CLI calls,
    attempted, failed, errors). With a tracer, each call is a root span."""
    import scalefree.cli

    wall = 0.0
    failed = 0
    errors = []
    for step in steps:
        step.output.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            if tracer is None:
                code = scalefree.cli.main(step.argv)
            else:
                with tracer.span("cli.main"):
                    code = scalefree.cli.main(step.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception: " + traceback.format_exc(limit=3)
        wall += time.perf_counter() - start
        problems = [f"{step.name}: exit {code}"] if code != 0 else _check(step)
        if problems:
            failed += 1
            errors.extend(problems)
    return wall, len(steps), failed, errors


def layer_metrics(spans, overhead_frac):
    """Per-layer metrics, each a median over traced repetitions unless it
    is a count; layers a workload does not reach read 0."""
    requests, stats = summarize(spans)
    empty = {"total": {0: 0.0}, "self": {0: 0.0}, "calls": {0: 0}, "extra": {0: 0.0},
             "peak": {0: 0.0}, "durations": []}  # fmt: skip

    def get(name):
        return stats.get(name, empty)

    def s(name):
        return median_per_request(get(name), "total")

    def calls(name):
        return float(next(iter(get(name)["calls"].values())))

    def per_unit(name, scale):
        """Total time over total extra count, across every traced call."""
        entry = get(name)
        units = sum(entry["extra"].values())
        return sum(entry["total"].values()) / units * scale if units else 0.0

    def rate(name):
        entry = get(name)
        busy = sum(entry["total"].values())
        return sum(entry["extra"].values()) / MIB / busy if busy else 0.0

    def pct(name, q, min_beyond):
        durations = get(name)["durations"]
        if len(durations) * (100 - q) / 100 < min_beyond:
            return 0.0
        return float(np.percentile(durations, q)) * 1e3

    root_self = {r: 0.0 for r in requests}
    for entry in stats.values():
        for r, v in entry["self"].items():
            root_self[r] += v

    def self_frac(*names):
        fracs = [
            sum(get(n)["self"].get(r, 0.0) for n in names) / root_self[r]
            for r in requests
            if root_self[r] > 0
        ]
        return statistics.median(fracs) if fracs else 0.0

    def self_s(prefix):
        names = [n for n in stats if n.startswith(prefix)]
        return statistics.median(
            sum((stats[n]["self"].get(r, 0.0) for n in names), 0.0) for r in requests
        )

    knn, lof = "neighbors.knn_classify", "neighbors.lof_scores"
    load, save = "data.load_csv", "data.save_csv"
    msave, mload = "model_io.save_model", "model_io.load_model"
    tr, fit = "transforms.transform", "transforms.fit_transformer"
    out = {
        f"{knn}.s": (s(knn), "s"),
        f"{knn}.calls": (calls(knn), "count"),
        f"{knn}.p50_ms": (pct(knn, 50, 1), "ms"),
        f"{knn}.p90_ms": (pct(knn, 90, 10), "ms"),
        f"{knn}.us_per_query": (per_unit(knn, 1e6), "us"),
        f"{knn}.self_frac": (self_frac(knn), "ratio"),
        f"{lof}.s": (s(lof), "s"),
        f"{lof}.calls": (calls(lof), "count"),
        f"{lof}.p50_ms": (pct(lof, 50, 1), "ms"),
        f"{lof}.peak_mb": (median_per_request(get(lof), "peak") / MIB, "MB"),
        f"{lof}.self_frac": (self_frac(lof), "ratio"),
        f"{load}.s": (s(load), "s"),
        f"{load}.calls": (calls(load), "count"),
        f"{load}.mb_per_s": (rate(load), "MB/s"),
        f"{save}.s": (s(save), "s"),
        f"{save}.calls": (calls(save), "count"),
        f"{save}.mb_per_s": (rate(save), "MB/s"),
        "data.self_frac": (self_frac(load, save), "ratio"),
        f"{msave}.s": (s(msave), "s"),
        f"{mload}.s": (s(mload), "s"),
        "model_io.bytes": (median_per_request(get(msave), "extra"), "bytes"),
        "model_io.self_frac": (self_frac(msave, mload), "ratio"),
        f"{tr}.s": (s(tr), "s"),
        f"{tr}.calls": (calls(tr), "count"),
        f"{tr}.values": (median_per_request(get(tr), "extra"), "count"),
        f"{tr}.ns_per_value": (per_unit(tr, 1e9), "ns"),
        f"{fit}.s": (s(fit), "s"),
        f"{fit}.calls": (calls(fit), "count"),
        "perturb.perturb_matrix.s": (s("perturb.perturb_matrix"), "s"),
        "metrics.s": (s("metrics.accuracy") + s("metrics.auc"), "s"),
        "report.write_report.s": (s("report.write_report"), "s"),
        "evaluate.self_s": (self_s("evaluate."), "s"),
        "cli.self_s": (self_s("cli."), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "trace.reps": (float(len(requests)), "count"),
    }
    return out, stats


def run_traced(prepared, seconds, expected_layers):
    tracer = Tracer()
    plain, traced, errors = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    pair_s = 0.0
    while _keep_looping(started, len(traced), pair_s, seconds):
        pair_start = time.perf_counter()
        tracer.request = len(traced)
        # alternate which side runs first, so warm-up drift cancels out
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed():
                    wall, n, bad, errs = run_inprocess(prepared.steps, tracer)
                traced.append(wall)
            else:
                wall, n, bad, errs = run_inprocess(prepared.steps, None)
                plain.append(wall)
            attempted, failed = attempted + n, failed + bad
            errors.extend(errs)
        pair_s = time.perf_counter() - pair_start

    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics, stats = layer_metrics(tracer.spans, overhead)
    for name in expected_layers:
        if name not in stats:
            errors.append(f"trace: layer {name} recorded no spans")
    for name, entry in stats.items():
        if len(set(entry["calls"].values())) > 1:
            errors.append(f"trace: {name} call count varies across repetitions")
    raw = {"traced_s": traced, "untraced_s": plain, "spans": tracer.to_json()}
    return metrics, attempted, failed, errors, raw


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine_record():
    import scalefree

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    backend = getattr(scalefree, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend() if backend else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": commit,
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    t_zero = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "scalefree" / "cli.py").is_file():
        print(f"perfbench: no scalefree sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scalefree

    if Path(scalefree.__file__).resolve().parent != (SRC / "scalefree").resolve():
        print(f"perfbench: imported scalefree from {scalefree.__file__}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare, expected_layers = WORKLOADS[args.workload]
    try:
        prepared = prepare(args.seed, work)
        if args.trace:
            result = run_traced(prepared, args.seconds, expected_layers)
        else:
            result = run_untraced(prepared, args.seconds, work, t_zero)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, errors, raw = result
    correct = failed == 0 and not errors
    machine = machine_record()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "errors": errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "diagnostics": prepared.diagnostics, "machine": machine, "raw": raw,
    }  # fmt: skip
    results_path = OUT / f"{tag}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    n_reps = len(raw.get("repetitions", raw.get("traced_s", [])))
    print(f"perfbench {tag}: {n_reps} repetitions")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6f} {unit}")
    print(f"  {'error_rate':38s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} failed)")
    ties = prepared.diagnostics.get("ties_created")
    if ties:
        print("  ties_created  " + "  ".join(f"{k}={sum(v)}" for k, v in ties.items()))
    if prepared.diagnostics.get("excused_mismatches"):
        print(f"  excused invariance mismatches: {prepared.diagnostics['excused_mismatches']}")
    print("  machine  " + "  ".join(f"{k}={v}" for k, v in machine.items() if k != "thread_env"))
    for line in errors[:10]:
        print(f"  FAILED {line}")
    print(f"  results  {results_path.relative_to(ROOT)}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
