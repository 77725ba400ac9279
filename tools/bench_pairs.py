"""Compare two commits on perfbench's end-to-end metrics in alternating pairs.

Run from the repository root:

    python tools/bench_pairs.py PARENT CHANGE OUT.json [--pairs 10]

PARENT and CHANGE are anything `git archive` takes: a commit, or the tree
of the staged changes, `$(git write-tree)`. The workloads and the run
length are the parent's: its BENCHMARK.json's `workloads` names, in order,
and its `run_seconds`. For each workload, each side is extracted to a fresh
temporary directory and runs its own unchanged

    python3 perfbench/run.py --workload W --seed 7 --seconds T --trace 0

under PYTHONDONTWRITEBYTECODE=1, one run at a time. Pair i (counting from
1) runs the parent first when i is odd and the change first when it is
even, so drift over time falls on both sides alike. OUT.json gets
the commits, the command, the method and, per workload and metric, every
run, both medians, the parent's interquartile range, how many pairs the
change read lower or higher, and whether that meets the claim rule
(`summarize`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
SEED = 7


def summarize(parent_runs: list[float], change_runs: list[float]) -> dict:
    """One metric's pairs: run i of each side is pair i. The quartiles are
    `statistics.quantiles`' default (exclusive) ones.

    `claim_met` is the rule for claiming that the change lowered the
    metric: it read lower in at least nine tenths of the pairs, ties
    counting for neither side, and its median is below the parent's by
    more than the parent's interquartile range.
    """
    q1, _, q3 = statistics.quantiles(parent_runs, n=4)
    parent_median = statistics.median(parent_runs)
    change_median = statistics.median(change_runs)
    pairs = list(zip(parent_runs, change_runs, strict=True))
    lower = sum(c < p for p, c in pairs)
    return {
        "parent_runs": [round(v, 6) for v in parent_runs],
        "change_runs": [round(v, 6) for v in change_runs],
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "parent_iqr": round(q3 - q1, 6),
        "median_change_pct": round((change_median / parent_median - 1) * 100, 2),
        "change_lower_in_pairs": lower,
        "change_higher_in_pairs": sum(c > p for p, c in pairs),
        "claim_met": 10 * lower >= 9 * len(pairs) and parent_median - change_median > q3 - q1,
    }


def _extract(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def _run(tree: Path, workload: str, seconds: float) -> dict:
    """One perfbench run in `tree`: its last stdout line, a JSON summary."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"perfbench printed no summary in {tree}:\n{done.stderr}") from None


def measure(parent: str, change: str, workload: str, pairs: int, seconds: float):
    """The workload's block: seed, pairs, failed runs and `summarize` per metric."""
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: _extract(rev, Path(tmp) / side) for side, rev in
                 (("parent", parent), ("change", change))}  # fmt: skip
        for i in range(1, pairs + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                runs[side].append(_run(trees[side], workload, seconds))
                print(f"{workload} pair {i} {side} done", file=sys.stderr, flush=True)
    block = {"seed": SEED, "pairs": pairs}
    block["incorrect_runs"] = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
    block["metrics"] = {
        name: summarize(*(
            [r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change")
        ))
        for name in END_TO_END
    }  # fmt: skip
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads(subprocess.run(
        ["git", "show", f"{args.parent}:BENCHMARK.json"], capture_output=True, check=True
    ).stdout)  # fmt: skip
    seconds = bench["run_seconds"]
    record = {
        "commits": {"parent": args.parent, "change": args.change},
        "command": f"python3 perfbench/run.py --workload <workload> --seed {SEED} "
        f"--seconds {seconds:g} --trace 0",
        "method": f"Alternating pairs, {args.pairs} per workload, seed {SEED}, the parent's "
        "BENCHMARK.json run_seconds; the parent ran first in odd-numbered pairs (counting from "
        "1), the change first in even-numbered ones, one run at a time, workloads in the order "
        "listed, each side from its own fresh git archive, under PYTHONDONTWRITEBYTECODE=1 "
        "(tools/bench_pairs.py).",
        "workloads": {
            w["name"]: measure(args.parent, args.change, w["name"], args.pairs, seconds)
            for w in bench["workloads"]
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
