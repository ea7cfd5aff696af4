//===- runtime/Spin.h - Bounded spin-then-yield waiting ---------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one spin-wait idiom used across the runtime: busy-poll a bounded
/// number of iterations, then fall back to yield() so an oversubscribed
/// host (more waiters than hardware threads) cannot starve the very
/// thread being waited on.  WorkerTeam waits this way for its epoch
/// broadcast and its done-flag barrier, and the shard mailboxes for their
/// inter-process seqlock waits.
///
/// The busy phase deliberately issues no `pause`: on a 4-core x86 host a
/// pause in this loop made the sharded benchmark run (shard_pc1_ckpt)
/// slower in 6 of 6 alternating pairs (median step ~16.0 vs ~14.4 ms),
/// while dropping it from the thread pools left the threaded run
/// (fig4_pc1_mt) within noise.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_SPIN_H
#define SACFD_RUNTIME_SPIN_H

#include <thread>

namespace sacfd {

/// Busy iterations a waiter spins before it starts yielding.
constexpr unsigned BusySpinLimit = 1u << 14;

/// Spins until \p Done() is true: \p SpinLimit busy iterations, then one
/// yield() per iteration (0 yields immediately — fully cooperative).
template <typename Pred>
void spinThenYieldUntil(Pred &&Done, unsigned SpinLimit = BusySpinLimit) {
  unsigned Spins = 0;
  while (!Done()) {
    if (Spins < SpinLimit)
      ++Spins;
    else
      std::this_thread::yield();
  }
}

} // namespace sacfd

#endif // SACFD_RUNTIME_SPIN_H
