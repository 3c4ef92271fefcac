#!/usr/bin/env python3
"""A/A mode: run the same code in two sets of runs and compare them.

    python3 perfbench/aa.py --runs 10 --sets 2

For each workload, each set makes ``--runs`` runs of ``run.py``, each
with another seed (``--base-seed``, ``--base-seed + 1``, ...).  Per
workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median), and whether
the sets agree within the metric's bound in ``BENCHMARK.json``: every
spread except ``setup_s``'s within the bound, and the later set's median
no worse than the first's by more than the bound.  Raw results go to
``.perfbench/aa-<time>.json``.  Exits 1 if any run fails or any metric
disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result["exit"] = proc.returncode
    result["samples"] = [json.loads(line.split(": ", 1)[1])
                         for line in lines if line.startswith("# sample ")]
    return result


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def compare(bench: dict, sets: list[dict]) -> bool:
    ok = True
    print(f"{'workload':<14} {'metric':<13} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in sets[0]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"]
                          for r in runs[workload]]
                q1, q2, q3 = stats.quartiles(values)
                spread = stats.spread(values)
                medians.append(q2)
                spread_ok = name == "setup_s" or spread <= bound
                shift_ok = k == 0 or worse_by(metric, medians[0],
                                              q2) <= bound
                verdict = "agree" if spread_ok and shift_ok else "DISAGREE"
                ok &= spread_ok and shift_ok
                print(f"{workload:<14} {name:<13} {k + 1:>3} {q2:12.5g} "
                      f"{q1:12.5g} {q3:12.5g} {spread:7.1%} "
                      f"{bound:6.0%}  {verdict}")
    return ok


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    out = os.path.join(ROOT, ".perfbench",
                       f"aa-{time.strftime('%Y%m%dT%H%M%S')}.json")
    print(f"# raw results: {out}", flush=True)
    sets: list[dict] = []
    all_correct = True
    for k in range(args.sets):
        runs: dict[str, list] = {}
        sets.append(runs)
        for workload in args.workloads.split(","):
            runs[workload] = []
            for i in range(args.runs):
                seed = args.base_seed + i
                result = one_run(workload, seed, args.seconds)
                good = result.get("correct") and result["exit"] == 0
                all_correct &= bool(good)
                print(f"# set {k + 1} {workload} seed {seed}: "
                      f"{'ok' if good else 'FAILED'}", flush=True)
                if good:
                    runs[workload].append(result)
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(sets, fh, indent=1)
    if not all_correct:
        print("# some runs failed; compared the correct ones only")
    agree = compare(bench, sets)
    return 0 if agree and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
