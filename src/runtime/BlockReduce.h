//===- runtime/BlockReduce.h - Deterministic block reduction ---*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic parallel reduction over an index range.
///
/// The range [0, N) is split into min(workerCount, N) contiguous blocks;
/// each block is folded independently (in parallel through the Backend)
/// and the per-block partials are merged serially in block order.  For a
/// fixed worker count the block boundaries — and therefore the merge
/// order — are independent of the schedule, so floating-point results are
/// reproducible run to run.  This is the same discipline the engines use
/// for their GetDT reductions; BlockReduce packages it for consumers that
/// fold arbitrary state (the step guard's health scan folds a struct of
/// minima plus an offender list).
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_RUNTIME_BLOCKREDUCE_H
#define SACFD_RUNTIME_BLOCKREDUCE_H

#include "runtime/Backend.h"
#include "support/InlinePartials.h"

#include <algorithm>
#include <utility>

namespace sacfd {

/// Folds [0, N) into a single value of type \p T.
///
/// \p Fold is called once per block with its sub-range [Lo, Hi) and must
/// return that block's partial (it must not touch shared state).  \p
/// MergeFn combines two partials left-to-right; it is applied serially in
/// ascending block order, so the reduction is deterministic for a fixed
/// worker count even with non-associative merges (floating-point min/max
/// chains, capped list concatenation).
template <typename T, typename FoldBlock, typename Merge>
T blockReduce(size_t N, Backend &Exec, T Identity, FoldBlock Fold,
              Merge MergeFn) {
  if (N == 0)
    return Identity;

  size_t Blocks = std::min<size_t>(Exec.workerCount(), N);
  InlinePartials<T> Partials(Blocks, Identity);

  // Block b is staticBlockShare(N, Blocks, b): the partition depends only
  // on N and Blocks.
  Exec.parallelFor(0, Blocks, [&](size_t BB, size_t BE) {
    for (size_t Block = BB; Block != BE; ++Block) {
      IterationChunk C = staticBlockShare(N, Blocks, Block);
      Partials[Block] = Fold(C.Begin, C.End);
    }
  });

  T Result = std::move(Partials.front());
  for (size_t I = 1; I < Partials.size(); ++I)
    Result = MergeFn(std::move(Result), std::move(Partials[I]));
  return Result;
}

} // namespace sacfd

#endif // SACFD_RUNTIME_BLOCKREDUCE_H
