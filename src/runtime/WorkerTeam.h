//===- runtime/WorkerTeam.h - Persistent spin-synchronized team -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident worker team both persistent backends are built on.
///
/// Quoting the paper: "SaC does not use system calls for its inter thread
/// communication but rather uses the programs shared memory and spin locks
/// to allow inter thread communication with very little overhead."
///
/// WorkerTeam is that mechanism and nothing else.  Helper threads are
/// created once and live as long as the team.  run() publishes a job by
/// bumping an epoch sequence number (release); helpers spin on it
/// (spinThenYieldUntil), run the job with their worker index, and publish
/// completion through per-helper cache-line-padded done flags the caller
/// spins on.  One run is two shared-memory round trips: no mutexes, no
/// condition variables, no system calls on the fast path.  How work is
/// dealt is the backend's business: SpinBarrierPool gives each worker its
/// static share, TaskBackend lets them drain and steal from deques.
///
/// The waits spin only when every worker can own a hardware thread.  On
/// an oversubscribed host a spinning waiter steals the core from the very
/// thread it waits for, so the team yields immediately there.  Idle
/// helpers never sleep: between runs they yield-loop on the epoch.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_WORKERTEAM_H
#define SACFD_RUNTIME_WORKERTEAM_H

#include "support/FunctionRef.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace sacfd {

/// A body run once on every worker of a team; \p Worker is in
/// [0, size()), and the calling thread is worker 0.
using TeamBody = FunctionRef<void(unsigned Worker)>;

/// Persistent threads woken by an epoch broadcast (the SaC runtime model).
class WorkerTeam {
public:
  /// \param Threads team size including the calling thread (>= 1).  A
  ///        1-thread team creates no thread and runs bodies inline.
  explicit WorkerTeam(unsigned Threads);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam &) = delete;
  WorkerTeam &operator=(const WorkerTeam &) = delete;

  /// Runs \p Body on every worker, each inside a parallel region, and
  /// returns when all have finished.  Not reentrant: one run at a time.
  void run(TeamBody Body);

  unsigned size() const { return Threads; }

  /// Busy iterations a wait spins before yielding: BusySpinLimit when
  /// the team fits the hardware threads, 0 when it oversubscribes them.
  unsigned spinLimit() const { return SpinLimit; }

private:
  /// Per-helper completion flag, padded to avoid false sharing between
  /// helpers hammering their own line while the caller polls.
  struct alignas(64) DoneFlag {
    std::atomic<uint64_t> Seq{0};
  };

  void workerMain(unsigned Worker);

  unsigned Threads;
  unsigned SpinLimit;

  // Broadcast slot: run() writes Job, then publishes by bumping JobSeq
  // (release).  Helpers acquire JobSeq and read the slot.
  TeamBody Job;
  std::atomic<uint64_t> JobSeq{0};
  std::atomic<bool> Stopping{false};

  std::unique_ptr<DoneFlag[]> Done; // one per helper (Threads - 1)
  std::vector<std::thread> Helpers;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_WORKERTEAM_H
