//===- runtime/SpinBarrierPool.h - Persistent spin-sync pool ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SaC-style execution model.
///
/// Quoting the paper: "SaC does not use system calls for its inter thread
/// communication but rather uses the programs shared memory and spin locks
/// to allow inter thread communication with very little overhead."
///
/// SpinBarrierPool reproduces that model as a WorkerTeam plus static
/// shares: every parallelFor is one team run in which each worker executes
/// its staticBlockShare of the iteration space.  The team's waits spin
/// (bounded, then yield) and go fully cooperative when the pool
/// oversubscribes the hardware threads, where pure spin barriers
/// livelock-degrade; see WorkerTeam.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SPINBARRIERPOOL_H
#define SACFD_RUNTIME_SPINBARRIERPOOL_H

#include "runtime/Backend.h"
#include "runtime/WorkerTeam.h"

namespace sacfd {

/// Persistent worker pool with spin-barrier dispatch (SaC runtime model).
class SpinBarrierPool final : public Backend {
public:
  /// \param Threads pool size including the calling thread (>= 1).
  explicit SpinBarrierPool(unsigned Threads) : Team(Threads) {}

  void parallelFor(size_t Begin, size_t End, RangeBody Body) override;
  unsigned workerCount() const override { return Team.size(); }
  const char *name() const override { return "spin-pool"; }

  unsigned spinLimit() const { return Team.spinLimit(); }

private:
  WorkerTeam Team;
};

} // namespace sacfd

#endif // SACFD_RUNTIME_SPINBARRIERPOOL_H
