//===- shard/ShardPlan.h - Row-block domain decomposition -------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static decomposition behind the shard runtime: a 2D domain is cut
/// into N row blocks along axis 0 (the slowest, row-major axis, so every
/// halo slab is a contiguous run of storage rows).  Ragged divisions are
/// allowed — the first Rows % N blocks take one extra row — and each
/// block becomes a Problem<2> over a Grid row slice whose geometry is
/// bitwise the global grid's (see Grid::rowSlice).
///
/// Internal block interfaces get BcKind::Halo on the facing sides: the
/// halo exchange owns those ghost rows, and the physical boundary pass
/// leaves them untouched.  A periodic row axis turns the chain into a
/// ring (shard 0 and shard N-1 exchange through the wrap-around), which
/// reproduces the single-process periodic fill bit for bit because that
/// fill is itself just a copy of the opposite end's interior rows.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SHARD_SHARDPLAN_H
#define SACFD_SHARD_SHARDPLAN_H

#include "runtime/Schedule.h"
#include "solver/Problem.h"

#include <cassert>
#include <cstddef>
#include <vector>

namespace sacfd {

/// One shard's run of global interior rows.
struct RowBlock {
  size_t Begin = 0;
  size_t Count = 0;
};

/// Partitions \p Rows interior rows into \p Shards blocks in shard
/// order.  Ragged counts spread the remainder over the leading blocks,
/// so block sizes differ by at most one row.
inline std::vector<RowBlock> rowBlocks(size_t Rows, unsigned Shards) {
  assert(Shards > 0 && Rows >= Shards && "more shards than rows");
  std::vector<RowBlock> Blocks(Shards);
  for (unsigned K = 0; K < Shards; ++K) {
    IterationChunk C = staticBlockShare(Rows, Shards, K);
    Blocks[K] = {C.Begin, C.End - C.Begin};
  }
  return Blocks;
}

/// True when the row axis (axis 0) wraps periodically — the shard chain
/// must then close into a ring.
inline bool rowAxisPeriodic(const Problem<2> &P) {
  const std::vector<BcSegment<2>> &Segs =
      P.Boundary.Side[boundarySide(0, /*High=*/false)];
  return Segs.size() == 1 && Segs.front().Kind == BcKind::Periodic;
}

/// Builds shard \p B's sub-problem: the grid row slice, with the facing
/// sides replaced by Halo when they are internal interfaces (\p LowHalo /
/// \p HighHalo).  Everything else — bounds, tangential segment ranges,
/// initial state, end time — is shared with the global problem, and the
/// slice geometry makes the initial state evaluation bitwise global.
inline Problem<2> shardProblem(const Problem<2> &Global, RowBlock B,
                               bool LowHalo, bool HighHalo) {
  Problem<2> P = Global;
  P.Domain = Grid<2>::rowSlice(Global.Domain, B.Begin, B.Count);
  BcSegment<2> Halo;
  Halo.Kind = BcKind::Halo;
  if (LowHalo)
    P.Boundary.setSide(boundarySide(0, /*High=*/false), Halo);
  if (HighHalo)
    P.Boundary.setSide(boundarySide(0, /*High=*/true), Halo);
  return P;
}

} // namespace sacfd

#endif // SACFD_SHARD_SHARDPLAN_H
