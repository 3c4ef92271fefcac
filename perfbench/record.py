#!/usr/bin/env python3
"""Record the output digests the batch workloads are checked against.

    python3 perfbench/record.py [--seeds 32]

Runs one untimed sample of ``paper-report`` and ``sharing-sweep`` for
each seed ``0 .. seeds-1`` and writes their digests to
``perfbench/expected.json``.  Re-record only in a change that intends to
change the program's output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    expected: dict[str, dict[str, str]] = {}
    for workload in ("paper-report", "sharing-sweep"):
        expected[workload] = {}
        for seed in range(args.seeds):
            workdir = run.new_workdir()
            try:
                out = run.run_child({"mode": workload, "seed": seed},
                                    workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            expected[workload][str(seed)] = out["digest"]
            print(f"{workload} seed {seed}: {out['digest']}", flush=True)
    path = os.path.join(run.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
