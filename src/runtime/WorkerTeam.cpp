//===- runtime/WorkerTeam.cpp - Persistent spin-synchronized team --------===//

#include "runtime/WorkerTeam.h"

#include "runtime/ParallelRegion.h"
#include "runtime/Spin.h"
#include "support/Env.h"

#include <cassert>

using namespace sacfd;

WorkerTeam::WorkerTeam(unsigned Threads)
    : Threads(Threads),
      // defaultWorkerCount() clamps an unknown core count to 1, which
      // makes any multi-worker team go cooperative there — the safe
      // direction.
      SpinLimit(Threads <= defaultWorkerCount() ? BusySpinLimit : 0) {
  assert(Threads >= 1 && "team needs at least the calling thread");
  if (Threads == 1)
    return;
  Done = std::make_unique<DoneFlag[]>(Threads - 1);
  Helpers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Helpers.emplace_back([this, W] { workerMain(W); });
}

WorkerTeam::~WorkerTeam() {
  if (Helpers.empty())
    return;
  Stopping.store(true, std::memory_order_release);
  for (std::thread &T : Helpers)
    T.join();
}

void WorkerTeam::workerMain(unsigned Worker) {
  uint64_t SeenSeq = 0;
  while (true) {
    spinThenYieldUntil(
        [this, SeenSeq] {
          return JobSeq.load(std::memory_order_acquire) != SeenSeq ||
                 Stopping.load(std::memory_order_acquire);
        },
        SpinLimit);
    uint64_t NewSeq = JobSeq.load(std::memory_order_acquire);
    if (NewSeq == SeenSeq) {
      assert(Stopping.load(std::memory_order_acquire) && "spurious wakeup");
      return;
    }
    SeenSeq = NewSeq;
    {
      ParallelRegionGuard Guard;
      Job(Worker);
    }
    Done[Worker - 1].Seq.store(SeenSeq, std::memory_order_release);
  }
}

void WorkerTeam::run(TeamBody Body) {
  if (Threads == 1) {
    ParallelRegionGuard Guard;
    Body(0);
    return;
  }

  // Publish the job.  The previous run fully completed before run()
  // returned, so the slot is quiescent here.
  Job = Body;
  uint64_t Seq = JobSeq.load(std::memory_order_relaxed) + 1;
  JobSeq.store(Seq, std::memory_order_release);

  {
    ParallelRegionGuard Guard;
    Body(0);
  }

  // Barrier: wait for every helper to check in for this sequence number.
  for (unsigned W = 1; W < Threads; ++W)
    spinThenYieldUntil(
        [this, W, Seq] {
          return Done[W - 1].Seq.load(std::memory_order_acquire) == Seq;
        },
        SpinLimit);
}
