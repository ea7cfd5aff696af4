//===- tests/AllocationTest.cpp - Zero-allocation hot path ----------------===//
//
// The pooled-buffer contract: after a short warmup, a steady-state step
// performs zero NDArray heap allocations — every stage temporary (flux
// faces, residuals, RK snapshots, materialized intermediates) comes out
// of the solver's FieldPool.  The counter lives in NDArray's allocator
// (array/AllocCounter.h), so any regression that sneaks a fresh field
// buffer onto the per-step path fails here, on both engines, in 1D and
// 2D, serial and spin-pool.
//
// Pooling must be a pure storage-provenance change: a run whose
// temporaries are recycled step after step must produce fields
// bit-identical to a run in which no step ever sees a buffer left over
// from an earlier step.
//
//===----------------------------------------------------------------------===//

#include "array/AllocCounter.h"
#include "runtime/Runtime.h"
#include "runtime/SerialBackend.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

constexpr unsigned kWarmupSteps = 3;
constexpr unsigned kMeasuredSteps = 4;

/// Builds a fresh solver of the given engine over \p Prob on \p Exec.
template <unsigned Dim>
std::unique_ptr<EulerSolver<Dim>> makeSolver(const std::string &Engine,
                                             const Problem<Dim> &Prob,
                                             Backend &Exec) {
  SchemeConfig Scheme = SchemeConfig::benchmarkScheme();
  if (Engine == "array")
    return std::make_unique<ArraySolver<Dim>>(Prob, Scheme, Exec,
                                              ArrayEvalMode::Fused);
  if (Engine == "array-mat")
    return std::make_unique<ArraySolver<Dim>>(Prob, Scheme, Exec,
                                              ArrayEvalMode::Materialized);
  return std::make_unique<FusedSolver<Dim>>(Prob, Scheme, Exec);
}

const char *kEngines[] = {"array", "array-mat", "fused"};

/// Warm up, then assert that further steps allocate nothing: the pool's
/// free lists (and the per-thread SoA flux scratch of the kernel path)
/// are primed after the first step, so the steady-state delta must be
/// exactly zero.
template <unsigned Dim>
void expectZeroSteadyStateAllocs(const Problem<Dim> &Prob, Backend &Exec,
                                 const std::string &Label) {
  for (const char *Engine : kEngines) {
    std::unique_ptr<EulerSolver<Dim>> S = makeSolver(Engine, Prob, Exec);
    S->advanceSteps(kWarmupSteps);
    uint64_t Before = alloctrack::allocationCount();
    S->advanceSteps(kMeasuredSteps);
    uint64_t Delta = alloctrack::allocationCount() - Before;
    EXPECT_EQ(Delta, 0u)
        << Engine << " on " << Label << ": " << Delta << " field-buffer "
        << "allocations across " << kMeasuredSteps << " steady-state steps";
  }
}

TEST(AllocationTest, SteadyStateStepsAllocateNothing1D) {
  Problem<1> Prob = sodProblem(64);
  SerialBackend Serial;
  expectZeroSteadyStateAllocs(Prob, Serial, "serial 1D");
  for (unsigned Workers : {2u, 4u}) {
    auto Exec = createBackend(BackendKind::SpinPool, Workers);
    ASSERT_NE(Exec, nullptr);
    expectZeroSteadyStateAllocs(Prob, *Exec,
                                "spin(" + std::to_string(Workers) + ") 1D");
  }
}

TEST(AllocationTest, SteadyStateStepsAllocateNothing2D) {
  Problem<2> Prob = shockInteraction2D(16);
  SerialBackend Serial;
  expectZeroSteadyStateAllocs(Prob, Serial, "serial 2D");
  for (unsigned Workers : {2u, 4u}) {
    auto Exec = createBackend(BackendKind::SpinPool, Workers);
    ASSERT_NE(Exec, nullptr);
    expectZeroSteadyStateAllocs(Prob, *Exec,
                                "spin(" + std::to_string(Workers) + ") 2D");
  }
}

TEST(AllocationTest, CounterSeesDirectNDArrayAllocations) {
  // Sanity check on the harness itself: a field buffer allocated outside
  // any pool must register, so a zero steady-state delta above means the
  // pool served every temporary, not that the counter is blind.
  uint64_t Before = alloctrack::allocationCount();
  NDArray<double> A(Shape{64});
  EXPECT_GT(alloctrack::allocationCount() - Before, 0u);
  EXPECT_EQ(A.size(), 64u);
}

/// Advances \p Steps steps with a new solver (and so a cold pool) for
/// every step, each restored from the previous one's field and clock:
/// no step can read a buffer recycled from an earlier step.  Within a
/// step the RK stages still recycle buffers exactly as the pooled run
/// does (the solver API has no per-stage restart), so in a Release build
/// this reference covers step-to-step reuse only.  Builds without NDEBUG
/// (Debug, the ASan job) catch cross-stage reuse too: there
/// FieldPool::acquireUninit hands out NaN-filled buffers, so a stage that
/// reads one before writing it poisons both runs, and maxFieldDifference
/// reports the NaN.
template <unsigned Dim>
std::unique_ptr<EulerSolver<Dim>> runOnColdPools(const std::string &Engine,
                                                 const Problem<Dim> &Prob,
                                                 Backend &Exec,
                                                 unsigned Steps) {
  std::unique_ptr<EulerSolver<Dim>> S = makeSolver(Engine, Prob, Exec);
  std::vector<Cons<Dim>> State(S->field().size());
  for (unsigned Step = 0; Step < Steps; ++Step) {
    std::unique_ptr<EulerSolver<Dim>> Next = makeSolver(Engine, Prob, Exec);
    S->field().exportTo(State.data());
    Next->field().importFrom(State.data());
    Next->restoreClock(S->time(), S->stepCount());
    Next->advanceSteps(1);
    S = std::move(Next);
  }
  return S;
}

/// The recycled run and the cold-pool run of the same configuration must
/// agree bit for bit: the pool only changes where buffers come from,
/// never their contents or the order of arithmetic.
template <unsigned Dim>
void expectPoolingBitIdentity(const Problem<Dim> &Prob, unsigned Steps) {
  for (const char *Engine : kEngines)
    for (unsigned Workers : {1u, 2u, 4u}) {
      auto ExecA = createBackend(BackendKind::SpinPool, Workers);
      auto ExecB = createBackend(BackendKind::SpinPool, Workers);
      std::unique_ptr<EulerSolver<Dim>> Pooled =
          makeSolver(Engine, Prob, *ExecA);
      Pooled->advanceSteps(Steps);
      std::unique_ptr<EulerSolver<Dim>> Cold =
          runOnColdPools(Engine, Prob, *ExecB, Steps);
      std::string Label = std::string(Engine) + " workers=" +
                          std::to_string(Workers);
      EXPECT_EQ(Pooled->stepCount(), Cold->stepCount()) << Label;
      EXPECT_EQ(Pooled->time(), Cold->time()) << Label;
      EXPECT_EQ(maxFieldDifference(*Pooled, *Cold), 0.0) << Label;
    }
}

TEST(AllocationTest, PoolingIsBitIdentical1D) {
  expectPoolingBitIdentity(sodProblem(64), 8);
}

TEST(AllocationTest, PoolingIsBitIdentical2D) {
  expectPoolingBitIdentity(shockInteraction2D(16), 6);
}

TEST(AllocationTest, PoolStatsReflectSteadyStateReuse) {
  SerialBackend Exec;
  ArraySolver<2> S(shockInteraction2D(12), SchemeConfig::benchmarkScheme(),
                   Exec);
  S.advanceSteps(2);
  FieldPool::Stats Warm = S.fieldPool().stats();
  S.advanceSteps(4);
  FieldPool::Stats St = S.fieldPool().stats();
  EXPECT_GT(St.Acquisitions, Warm.Acquisitions);
  // Every steady-state acquisition is a free-list hit, and the footprint
  // stops growing after warmup.
  EXPECT_EQ(St.Acquisitions - Warm.Acquisitions, St.Hits - Warm.Hits);
  EXPECT_EQ(St.BytesResident, Warm.BytesResident);
  EXPECT_EQ(St.HighWaterBytes, Warm.HighWaterBytes);
  // The solution field U is itself a pooled lease held for the solver's
  // lifetime; every step-scoped temporary must have been returned.
  EXPECT_EQ(St.LiveLeases, 1u);
}

} // namespace
