#!/bin/sh
# Local mirror of the CI matrix: build Debug and Release and run the
# labeled test tiers (see tests/CMakeLists.txt):
#
#   Debug    unit + property + smoke + scenario  (fast correctness on
#            every build, including the pinned workload-gallery matrix)
#   Release  everything, including the "slow" tier — the determinism
#            matrix and the closed-box conservation regression
#   TSan     BackendTest, DeterminismTest and StepGuardTest under
#            ThreadSanitizer; any race report fails the run
#   ASan     KernelsTest, ScenarioRegressionTest, DeterminismTest and
#            AllocationTest under Address+UndefinedBehaviorSanitizer
#            (Debug); any report fails the run
#
# The guard subsystem must detect and recover from breakdowns in both
# build types, so neither configuration is optional.  After the Release
# run, a small guarded+instrumented smoke run emits a telemetry JSON
# report under artifacts/ for CI upload.
#
# Usage: scripts/ci.sh [jobs]
set -eu

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
cd "$(dirname "$0")/.."

echo "== tracked-tree hygiene =="
# Build trees are generated; a tracked build*/ path means someone
# committed one (the .gitignore build*/ rule only covers new files).
TRACKED_BUILD="$(git ls-files -- 'build*' | head -5)"
if [ -n "$TRACKED_BUILD" ]; then
  echo "error: generated build tree files are git-tracked:" >&2
  echo "$TRACKED_BUILD" >&2
  exit 1
fi

for TYPE in Debug Release; do
  BUILD="build-ci-$TYPE"
  echo "== $TYPE =="
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE="$TYPE"
  cmake --build "$BUILD" -j "$JOBS"
  if [ "$TYPE" = Debug ]; then
    (cd "$BUILD" && ctest --output-on-failure -j "$JOBS" \
        -L 'unit|property|smoke|scenario')
  else
    (cd "$BUILD" && ctest --output-on-failure -j "$JOBS")
  fi
done

echo "== scenario regression matrix =="
# The workload gallery gate: every registered scenario's pinned run must
# reproduce its checked-in reference hash on both engines (label covers
# the ScenarioRegressionTest binary and the scenario_matrix end-to-end
# run of the gallery tool).
(cd build-ci-Release && ctest --output-on-failure -L scenario)

echo "== scenario gallery artifact =="
# CI-tracked record of the full matrix: name, pinned hash per engine,
# reference, status.
mkdir -p artifacts
./build-ci-Release/examples/scenario_gallery --json artifacts/SCENARIOS.json
echo "wrote artifacts/SCENARIOS.json"

echo "== telemetry artifact =="
mkdir -p artifacts
./build-ci-Release/bench/fig4_scaling --cells 96 --steps 20 --threads 1,2 \
    --guard --telemetry artifacts/fig4_telemetry.json
echo "wrote artifacts/fig4_telemetry.json"

echo "== checkpoint overhead artifact =="
# Durability cost record: per-step price of periodic atomic checkpoints
# at cadences {off, 100, 10} on the Fig. 4 workload.  The acceptance
# budget is < 5% overhead at the default every=100 cadence.
./build-ci-Release/bench/checkpoint_overhead --cells 96 --steps 200 \
    --threads 2 --dir artifacts/checkpoint_overhead.ckpt \
    --json artifacts/BENCH_checkpoint.json
echo "wrote artifacts/BENCH_checkpoint.json"

echo "== tasks determinism gate =="
# The task backend's bit-identity pledge (loop mode and DAG step mode
# vs serial) is part of the determinism matrix; re-run the label as a
# named gate so a tasks regression is visible by stage, not just as one
# failure inside the full Release suite.
(cd build-ci-Release && ctest --output-on-failure -L determinism)

echo "== tasks ablation artifact =="
# A7 record: work-stealing tasks (loop + DAG step modes) vs spin-pool
# and fork-join on FIG4/EXT5 grids.  Acceptance: tasks at the top
# worker count must not lose to fork-join.
./build-ci-Release/bench/ablation_tasks --cells 96 --ext5-cells 192 \
    --steps 20 --threads 1,2,4,8 --json artifacts/BENCH_tasks.json
echo "wrote artifacts/BENCH_tasks.json"

echo "== allocation ablation artifact =="
# A6 record: pooled vs per-temporary allocation on the Fig. 4 workload.
# The binary exits nonzero if any pooled steady-state step allocates.
./build-ci-Release/bench/alloc_overhead --cells 96 --steps 20 \
    --threads 2 --json artifacts/BENCH_alloc.json
echo "wrote artifacts/BENCH_alloc.json"

echo "== shard smoke + ablation artifact =="
# PR 9 record: multi-process row-block sharding.  First the elastic
# recovery end-to-end (kill one shard mid-run, resume from its own
# checkpoint store, verify the final hash against a single-process
# run), then the A9 scaling table; the bench exits nonzero if any
# shard count's hash diverges from the 1-shard reference.
rm -rf artifacts/shard_ci_ckpt
./build-ci-Release/examples/shard_interaction_2d --cells 64 --shards 2 \
    --steps 10 --checkpoint-dir artifacts/shard_ci_ckpt \
    --checkpoint-every 1 --kill-shard 1 --kill-at-step 5 --verify
./build-ci-Release/bench/ablation_shards --cells 96 --ext5-cells 192 \
    --steps 10 --shards 1,2,4,8 --json artifacts/BENCH_shard.json
echo "wrote artifacts/BENCH_shard.json"

echo "== simd ablation gate + artifact =="
# A8 record and gate: per-kernel scalar-vs-SIMD speedups plus the
# engine x simd end-to-end matrix on the Fig. 4 workload.  --gate fails
# the Release matrix when fewer than 2 kernels reach 1.3x or fused SIMD
# runs slower than fused scalar (auto-skipped when the toolchain could
# not build an accelerated simd TU); any bit-identity violation fails
# unconditionally.
./build-ci-Release/bench/ablation_simd --cells 96 --steps 20 \
    --gate --json artifacts/BENCH_simd.json
echo "wrote artifacts/BENCH_simd.json"

echo "== benchmark self-test =="
# sacbench/ compiles src/ on its own (neither ctest nor the builds above
# touch it), so an API change that breaks it only shows here: build it,
# check every workload's metric set, and check that a corrupted
# reference hash fails the run.
python3 sacbench/selftest.py
echo "== thread sanitizer =="
# Race check of the runtime's synchronization.  OpenMP is off because an
# uninstrumented libgomp makes TSan report false races; halt_on_error
# turns the first report into a nonzero exit.
cmake -B build-ci-tsan -S . -DCMAKE_DISABLE_FIND_PACKAGE_OpenMP=ON \
    -DCMAKE_CXX_FLAGS=-fsanitize=thread \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build build-ci-tsan -j "$JOBS" \
    --target BackendTest DeterminismTest StepGuardTest
for T in BackendTest DeterminismTest StepGuardTest; do
  TSAN_OPTIONS=halt_on_error=1 "./build-ci-tsan/tests/$T"
done
echo "== address + undefined-behaviour sanitizers =="
# Out-of-bounds and UB check of the kernel window reads and the solver
# paths on them (Debug, leaks off; any report is a nonzero exit).
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" \
    -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined
cmake --build build-ci-asan -j "$JOBS" \
    --target KernelsTest ScenarioRegressionTest DeterminismTest AllocationTest \
    FieldPoolTest CheckpointTest
for T in KernelsTest ScenarioRegressionTest DeterminismTest AllocationTest \
    FieldPoolTest CheckpointTest; do
  ASAN_OPTIONS=detect_leaks=0 "./build-ci-asan/tests/$T"
done
echo "== CI matrix passed =="
