#!/usr/bin/env python3
r"""SacFD end-to-end benchmark: build, reference, measure.

Run from the root of a checkout:

    python3 sacbench/run.py --workload fig4_pc1_mt --seed 1 --seconds 30 \
        --trace 0

1. Builds the benchmark and the SacFD library from source with CMake into
   $CARGO_TARGET_DIR (default .bench_build) at the checkout root.
2. Computes, untimed, the serial fused-engine reference hash for the
   seed's input, cached per (source tree, reference, seed).
3. Runs the measurement, which checks every trial against that hash, and
   passes its output through.  The last stdout line is the result object.

Exit status is non-zero when the build fails, any trial fails its check,
or the measurement does not finish in time.  See sacbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("fig4_pc1_mt", "fig3_weno3_serial", "shard_pc1_ckpt")
# Workloads whose reference runs are the same computation (same scheme,
# grid and steps per trial) share one cached hash.
REFERENCE_OF = {
    "fig4_pc1_mt": "pc1-400",
    "shard_pc1_ckpt": "pc1-400",
    "fig3_weno3_serial": "weno3-64",
}
MEASURE_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary():
    return build_dir() / "sacbench"


def log(msg):
    print(f"sacbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no SacFD source tree at {ROOT / 'src'}")
        return False
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "sacbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return binary().is_file()


def tree_hash():
    """Digest of every file the benchmark's build reads."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD's commit when the checkout is a git work tree, else 'none'.

    Reads .git directly so nothing outside the checkout is consulted.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def reference_hash(workload, seed, tree, extra=()):
    """The serial reference hash for (workload, seed), cached on disk."""
    cache = build_dir() / "refs" / f"{tree}-{REFERENCE_OF[workload]}-{seed}"
    if not extra and cache.is_file():
        return cache.read_text().strip()
    try:
        proc = subprocess.run(
            [str(binary()), "--reference", "--workload", workload,
             "--seed", str(seed), *extra],
            stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"reference run exceeded {MEASURE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log("reference run failed")
        return None
    value = proc.stdout.strip().splitlines()[-1]
    if not extra:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(value + "\n")
    return value


def measure(workload, seed, seconds, trace, expect, tree, extra=()):
    """Runs the measurement; returns (exit status, stdout text)."""
    scratch = build_dir() / "scratch" / str(os.getpid())
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expect-hash", expect, "--scratch", str(scratch),
           "--git-sha", git_sha(), "--tree-hash", tree, *extra]
    if trace:
        cmd += ["--trace-out", str(traces / f"{workload}-{seed}.json")]
    # Own process group, so a timeout also reaps forked shard workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        text, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
        status = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"measurement exceeded {MEASURE_TIMEOUT_S} s")
        status, text = 1, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return status, text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    tree = tree_hash()
    expect = reference_hash(args.workload, args.seed, tree)
    if expect is None:
        return 1
    status, text = measure(args.workload, args.seed, args.seconds,
                           args.trace, expect, tree)
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.jsonl"
    (results / name).write_text(text)
    sys.stdout.write(text)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
