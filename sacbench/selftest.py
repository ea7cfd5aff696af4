#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of SacFD).

    python3 sacbench/selftest.py

1. The percentile, quartile and tail-percentile helpers (Stats.h) agree
   with fixed expected values on fixed vectors.
2. A tiny run of every workload, in each trace mode, emits exactly the
   metrics BENCHMARK.json declares for that mode, each with its unit.
3. A tiny run handed a corrupted reference hash counts its trials failed,
   reports correct=false and exits non-zero: the gate is not vacuous.
4. A directory holding only BENCHMARK.json and sacbench/ (no source
   tree) makes run.py exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (sibling module)

TINY = ("--cells", "24", "--steps", "6")
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(run.build(), "build")
    stats = subprocess.run([str(run.binary()), "--selftest-stats"],
                           stdout=subprocess.PIPE, text=True)
    check(stats.returncode == 0, "stats helpers: " + stats.stdout.strip())

    tree = run.tree_hash()
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        expect = run.reference_hash(workload, 1, tree, TINY)
        for trace in (0, 1):
            status, text = run.measure(workload, 1, 1, trace, expect, tree,
                                       TINY)
            result = last_json(text)
            check(status == 0 and result and result["correct"],
                  f"{workload} trace={trace}: tiny run passes its gate")
            got = {k: v["unit"] for k, v in (result or {"metrics": {}})
                   ["metrics"].items()}
            missing = sorted(set(declared[trace]) - set(got))
            extra = sorted(set(got) - set(declared[trace]))
            wrong = sorted(k for k in got if k in declared[trace]
                           and got[k] != declared[trace][k])
            check(not missing and not extra and not wrong,
                  f"{workload} trace={trace}: metric names and units match "
                  f"BENCHMARK.json (missing {missing}, extra {extra}, "
                  f"unit mismatch {wrong})")

        corrupt = format(int(expect, 16) ^ 1, "016x")
        status, text = run.measure(workload, 1, 1, 0, corrupt, tree, TINY)
        result = last_json(text)
        check(status != 0 and result is not None
              and result["correct"] is False and result["failed"] >= 1,
              f"{workload}: corrupted reference hash fails the run")

    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "sacbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "sacbench/run.py", "--workload", "fig4_pc1_mt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare directory: non-zero exit, no result printed")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
