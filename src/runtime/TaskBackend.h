//===- runtime/TaskBackend.h - Work-stealing task scheduler ----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fourth execution model: a work-stealing task scheduler.
///
/// "Introducing OpenMP Tasks into the HYDRO Benchmark" showed that on
/// exactly this class of Godunov-type hydro kernels a task runtime beats
/// static fork-join by relaxing the per-stage barrier.  TaskBackend is
/// that model: the same resident WorkerTeam as SpinBarrierPool (created
/// once, woken through one epoch broadcast) where work is a bag of
/// chunk-sized tasks in per-worker deques.  Owners pop their own deque
/// LIFO; an idle worker locks a victim's deque and steals half of it
/// FIFO, so load imbalance drains without a central queue.
///
/// Two dispatch shapes share the pool:
///   - parallelFor: the Backend contract.  The iteration range is
///     pre-chunked, chunks are dealt to the deques, and stealing replaces
///     static partitioning.  Because every chunk executes exactly once on
///     some worker — and all SacFD parallel bodies are legal on any
///     disjoint partition, with reduction partials keyed by block index
///     and merged in index order — steal order cannot change a single bit
///     of the results.
///   - runDag: a dependency-DAG dispatch for pipelined solver steps.  The
///     caller describes tasks as integer payloads plus dependency edges
///     (TaskDag); completing a task decrements its successors' counters
///     and pushes newly-ready tasks onto the finishing worker's deque.
///     This is what lets per-tile flux tasks of one stage overlap with
///     update tasks of another instead of meeting at a global barrier.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_TASKBACKEND_H
#define SACFD_RUNTIME_TASKBACKEND_H

#include "runtime/Backend.h"
#include "runtime/WorkerTeam.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sacfd {

/// Executes one DAG node identified by its user payload.
using DagNodeBody = FunctionRef<void(uint64_t Payload)>;

/// A reusable dependency DAG of integer-payload tasks.
///
/// Nodes carry an opaque uint64_t payload the executor interprets; edges
/// added with addDep(Before, After) order execution.  The graph must be
/// acyclic — a cycle leaves tasks forever unready and runDag never
/// returns.  clear() forgets the nodes but keeps the allocations, so a
/// solver can rebuild (or just re-run) the same step graph every step
/// without churning the heap.
class TaskDag {
public:
  /// Adds a node, returning its id (ids are dense, starting at 0).
  size_t add(uint64_t Payload) {
    size_t Id = NumNodes++;
    if (Id < Payloads.size()) {
      Payloads[Id] = Payload;
      DepCount[Id] = 0;
      Succs[Id].clear();
    } else {
      Payloads.push_back(Payload);
      DepCount.push_back(0);
      Succs.emplace_back();
    }
    return Id;
  }

  /// Orders node \p Before strictly before node \p After.  Duplicate
  /// edges are permitted (each is counted and released once).
  void addDep(size_t Before, size_t After) {
    Succs[Before].push_back(static_cast<uint32_t>(After));
    ++DepCount[After];
  }

  size_t size() const { return NumNodes; }

  /// Forgets all nodes, keeping capacity for rebuilds.
  void clear() { NumNodes = 0; }

private:
  friend class TaskBackend;
  size_t NumNodes = 0;
  std::vector<uint64_t> Payloads;
  std::vector<unsigned> DepCount;
  std::vector<std::vector<uint32_t>> Succs;
};

/// Persistent work-stealing pool (the task execution model).
class TaskBackend final : public Backend {
public:
  /// \param Threads pool size including the calling thread (>= 1).
  /// \param Sched an explicit chunk size (static,N / dynamic,N) sets the
  ///        task granularity of parallelFor; the default carves ~8 tasks
  ///        per worker so stealing has something to balance.
  explicit TaskBackend(unsigned Threads,
                       Schedule Sched = Schedule::staticBlock());

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return Team.size(); }
  const char *name() const override { return "tasks"; }
  TaskBackend *taskBackend() override { return this; }

  /// Executes \p Dag to completion: every node runs exactly once, after
  /// all its predecessors, via \p Run on some worker.  Blocking; counts
  /// one region per non-empty call and feeds the "runtime.tasks" counter
  /// with the node count (deterministic at every worker count).  Nested
  /// calls (from inside a parallel body) run inline in dependency order.
  void runDag(TaskDag &Dag, DagNodeBody Run);

  unsigned spinLimit() const { return Team.spinLimit(); }

private:
  /// One worker's deque plus its private steal scratch, padded so the
  /// owner's pushes and a thief's lock traffic stay off other lines.
  struct alignas(64) WorkerDeque {
    std::mutex M;
    std::vector<size_t> Items;
    /// Thief-side staging buffer; touched only by this worker when it
    /// steals (never under another worker's lock scope mismatch).
    std::vector<size_t> Scratch;
  };

  enum class JobKind { Range, Dag };

  void participate(unsigned W);
  void runItem(unsigned W, size_t Item);
  bool popOwn(unsigned W, size_t &Item);
  bool stealInto(unsigned W, size_t &Item);
  /// Runs participate() on every worker of the team.
  void dispatch();
  void runDagInline(TaskDag &Dag, DagNodeBody Run);

  Schedule Sched;

  // Job slot: the master writes the fields below before the team run
  // that publishes them.  Helpers are quiescent between runs, so the slot
  // is never written concurrently.
  JobKind Kind = JobKind::Range;
  RangeBody Body;
  size_t JobBegin = 0;
  size_t JobEnd = 0;
  size_t Chunk = 1;
  TaskDag *Dag = nullptr;
  DagNodeBody DagRun;

  /// Items not yet completed in the current dispatch; workers leave the
  /// work loop when it reaches 0.
  std::atomic<size_t> Pending{0};
  /// Per-node unmet-dependency counters for the current DAG dispatch.
  std::unique_ptr<std::atomic<unsigned>[]> Remaining;
  size_t RemainingCap = 0;

  std::unique_ptr<WorkerDeque[]> Deques;

  /// Last member: built after, and joined before, the state its helpers
  /// touch.
  WorkerTeam Team;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_TASKBACKEND_H
