#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs run.py once per seed on each workload (untraced), then prints, per
metric, the median of the per-run values and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median -- the acceptance rule BENCHMARK.json's bounds are checked with.

    python3 sacbench/spread.py --workloads fig4_pc1_mt --seeds 1-5
    python3 sacbench/spread.py --seeds 1-10 --record sacbench/trajectory/x.json

--record writes every run's values, the summary and one traced run per
workload (per-layer metrics) as one trajectory point.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode})")
    return json.loads(lines[-2])["sacbench_detail"], json.loads(lines[-1])


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", help="write a trajectory point here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"recorded_utc": datetime.datetime.now(
                 datetime.timezone.utc).isoformat(timespec="seconds"),
             "seconds": args.seconds, "seeds": args.seeds, "host": None,
             "summary": {}, "traced": {}, "runs": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        runs = []
        for seed in parse_seeds(args.seeds):
            detail, result = run_once(workload, seed, args.seconds, 0)
            point["host"] = detail["host"]
            runs.append({"seed": seed, "samples": detail["samples"],
                         "result": result})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        point["runs"][workload] = runs
        summary = {}
        print(f"{workload}: {len(runs)} runs")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name]}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            flag = "" if spread < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}{flag}")
        point["summary"][workload] = summary
        if args.record:
            detail, result = run_once(workload, parse_seeds(args.seeds)[0],
                                      args.seconds, 1)
            point["traced"][workload] = {"detail": detail, "result": result}
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.record:
        Path(args.record).write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
