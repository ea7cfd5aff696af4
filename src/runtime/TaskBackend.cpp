//===- runtime/TaskBackend.cpp - Work-stealing task scheduler ------------===//

#include "runtime/TaskBackend.h"

#include "runtime/ParallelRegion.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace sacfd;

TaskBackend::TaskBackend(unsigned Threads, Schedule Sched)
    : Sched(Sched), Deques(std::make_unique<WorkerDeque[]>(Threads)),
      Team(Threads) {}

bool TaskBackend::popOwn(unsigned W, size_t &Item) {
  WorkerDeque &D = Deques[W];
  std::lock_guard<std::mutex> Lock(D.M);
  if (D.Items.empty())
    return false;
  Item = D.Items.back();
  D.Items.pop_back();
  return true;
}

bool TaskBackend::stealInto(unsigned W, size_t &Item) {
  // Steal-half from the front of a victim's deque: the owner works the
  // back (LIFO, cache-warm), thieves take the oldest half in one lock
  // acquisition so a load imbalance is halved per steal, not nibbled.
  std::vector<size_t> &Scratch = Deques[W].Scratch;
  unsigned Threads = Team.size();
  for (unsigned Hop = 1; Hop < Threads; ++Hop) {
    unsigned V = (W + Hop) % Threads;
    WorkerDeque &D = Deques[V];
    {
      std::lock_guard<std::mutex> Lock(D.M);
      size_t N = D.Items.size();
      if (N == 0)
        continue;
      size_t K = (N + 1) / 2;
      Scratch.assign(D.Items.begin(),
                     D.Items.begin() + static_cast<std::ptrdiff_t>(K));
      D.Items.erase(D.Items.begin(),
                    D.Items.begin() + static_cast<std::ptrdiff_t>(K));
    }
    // Run the first stolen item directly; bank the rest in our own deque.
    // Staging through Scratch keeps the two deque locks from ever being
    // held together (two thieves stealing from each other would deadlock
    // otherwise).
    Item = Scratch.front();
    if (Scratch.size() > 1) {
      WorkerDeque &Own = Deques[W];
      std::lock_guard<std::mutex> Lock(Own.M);
      Own.Items.insert(Own.Items.end(), Scratch.begin() + 1, Scratch.end());
    }
    return true;
  }
  return false;
}

void TaskBackend::runItem(unsigned W, size_t Item) {
  if (Kind == JobKind::Range) {
    size_t B = JobBegin + Item * Chunk;
    Body(B, std::min(B + Chunk, JobEnd));
    return;
  }
  DagRun(Dag->Payloads[Item]);
  // Release successors; newly-ready tasks go onto the finishing worker's
  // own deque (depth-first through the graph, warm data stays local —
  // thieves re-balance whatever piles up).
  for (uint32_t S : Dag->Succs[Item])
    if (Remaining[S].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      WorkerDeque &D = Deques[W];
      std::lock_guard<std::mutex> Lock(D.M);
      D.Items.push_back(S);
    }
}

void TaskBackend::participate(unsigned W) {
  unsigned Idle = 0;
  while (Pending.load(std::memory_order_acquire) != 0) {
    size_t Item;
    if (popOwn(W, Item) || stealInto(W, Item)) {
      Idle = 0;
      runItem(W, Item);
      // acq_rel: publishes the item's side effects to whoever observes
      // Pending reach 0 (the master's return is the completion barrier).
      Pending.fetch_sub(1, std::memory_order_acq_rel);
    } else if (Idle < Team.spinLimit()) {
      ++Idle;
    } else {
      std::this_thread::yield();
    }
  }
}

void TaskBackend::dispatch() {
  // The team's barrier is what makes the next dispatch safe: helpers may
  // still be scanning for work after Pending reached 0, and the deques
  // must not be reseeded under them.
  Team.run([this](unsigned W) { participate(W); });
}

void TaskBackend::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  static const unsigned Region = telemetry::spanId("region.tasks");
  telemetry::ScopedSpan Span(Region);
  unsigned Threads = Team.size();
  if (Threads == 1) {
    ParallelRegionGuard Guard;
    Body(Begin, End);
    return;
  }

  // Default granularity: ~8 tasks per worker, coarse enough for cheap
  // deque traffic and fine enough that stealing has something to balance.
  size_t N = End - Begin;
  size_t C = Schedule::dynamic(Sched.ChunkSize).resolvedChunk(N, Threads);
  size_t NumChunks = (N + C - 1) / C;
  this->Kind = JobKind::Range;
  this->Body = Body;
  JobBegin = Begin;
  JobEnd = End;
  Chunk = C;
  Pending.store(NumChunks, std::memory_order_relaxed);
  // Seed contiguous chunk runs per worker (static-block locality); the
  // helpers are quiescent here (the last team run waited for them), so
  // the deques are safe to fill.
  for (unsigned W = 0; W < Threads; ++W) {
    IterationChunk Share = staticBlockShare(NumChunks, Threads, W);
    WorkerDeque &D = Deques[W];
    std::lock_guard<std::mutex> Lock(D.M);
    for (size_t I = Share.Begin; I != Share.End; ++I)
      D.Items.push_back(I);
  }
  dispatch();
}

void TaskBackend::runDagInline(TaskDag &D, DagNodeBody Run) {
  // Sequential fallback for nested calls: plain worklist in dependency
  // order on the calling thread.
  size_t N = D.size();
  std::vector<unsigned> Deps(D.DepCount.begin(),
                             D.DepCount.begin() + static_cast<std::ptrdiff_t>(N));
  std::vector<size_t> Ready;
  for (size_t I = 0; I < N; ++I)
    if (Deps[I] == 0)
      Ready.push_back(I);
  size_t Ran = 0;
  while (!Ready.empty()) {
    size_t Item = Ready.back();
    Ready.pop_back();
    Run(D.Payloads[Item]);
    ++Ran;
    for (uint32_t S : D.Succs[Item])
      if (--Deps[S] == 0)
        Ready.push_back(S);
  }
  assert(Ran == N && "task DAG has a cycle");
  (void)Ran;
}

void TaskBackend::runDag(TaskDag &D, DagNodeBody Run) {
  size_t N = D.size();
  if (N == 0)
    return;
  if (inParallelRegion()) {
    runDagInline(D, Run);
    return;
  }
  countRegion();
  static const unsigned Region = telemetry::spanId("region.task_dag");
  telemetry::ScopedSpan Span(Region);
  if (telemetry::enabled()) {
    static const unsigned TasksRun = telemetry::counterId("runtime.tasks");
    telemetry::addCounter(TasksRun, N);
  }

  if (RemainingCap < N) {
    Remaining = std::make_unique<std::atomic<unsigned>[]>(N);
    RemainingCap = N;
  }
  for (size_t I = 0; I < N; ++I)
    Remaining[I].store(D.DepCount[I], std::memory_order_relaxed);

  Kind = JobKind::Dag;
  Dag = &D;
  DagRun = Run;
  Pending.store(N, std::memory_order_relaxed);
  // Deal the initially-ready nodes round-robin so every worker has a
  // seed to start from; the dependency releases and stealing take it
  // from there.
  unsigned W = 0;
  for (size_t I = 0; I < N; ++I)
    if (D.DepCount[I] == 0) {
      WorkerDeque &Dq = Deques[W];
      std::lock_guard<std::mutex> Lock(Dq.M);
      Dq.Items.push_back(I);
      W = (W + 1) % Team.size();
    }
  dispatch();
}
