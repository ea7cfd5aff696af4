//===- array/Reductions.h - Deterministic parallel folds -------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fold with-loops: parallel reductions over array expressions.
///
/// The solver's one reduction on the hot path is maxval() inside getDt()
/// (the paper's GetDT kernel).  Reductions are made deterministic by
/// splitting the index space into exactly workerCount() fixed blocks and
/// combining the per-block partials in block order — the result is
/// independent of how the backend schedules the blocks, so serial,
/// spin-pool and fork-join runs of the same scheme produce bit-identical
/// time steps.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_REDUCTIONS_H
#define SACFD_ARRAY_REDUCTIONS_H

#include "array/Expr.h"
#include "runtime/Backend.h"
#include "support/InlinePartials.h"

#include <algorithm>

namespace sacfd {

/// fold with-loop: combines every element of \p Operand into \p Init
/// using \p Combine.
///
/// This is SaC's fold: \p Combine must be an associative operation over a
/// single carrier type T with \p Init (effectively) neutral, because the
/// same operation both accumulates elements within a block and merges the
/// per-block partials.  Element values are converted to T before folding.
/// Non-homomorphic reductions (e.g. counting with a predicate) should map
/// first: `sum(transform(A, Pred), Exec)`.
///
/// Determinism contract: partial results are formed over workerCount()
/// equal blocks in index order and combined left-to-right, so the result
/// depends only on the worker count, not on scheduling.
template <ExprOperand X, typename T, typename Combine>
T fold(X &&Operand, T Init, Combine Fn, Backend &Exec) {
  auto Ex = toExpr(std::forward<X>(Operand));
  const Shape S = Ex.shape();
  size_t N = S.count();
  if (N == 0)
    return Init;

  size_t Blocks = std::min<size_t>(Exec.workerCount(), N);
  InlinePartials<T> Partials(Blocks, Init);

  Exec.parallelFor(0, Blocks, [&](size_t BlockBegin, size_t BlockEnd) {
    for (size_t Block = BlockBegin; Block != BlockEnd; ++Block) {
      IterationChunk C = staticBlockShare(N, Blocks, Block);
      T Acc = Init;
      Index Ix = S.delinearize(C.Begin);
      for (size_t Linear = C.Begin; Linear != C.End; ++Linear) {
        Acc = Fn(Acc, static_cast<T>(Ex.eval(Ix)));
        S.increment(Ix);
      }
      Partials[Block] = Acc;
    }
  });

  T Result = Init;
  for (const T &Partial : Partials)
    Result = Fn(Result, Partial);
  return Result;
}

/// Largest element (SaC maxval).  Programmatic error on empty operands.
template <ExprOperand X> auto maxval(X &&Operand, Backend &Exec) {
  using T = typename ExprOf<X>::ValueType;
  auto Ex = toExpr(std::forward<X>(Operand));
  assert(Ex.shape().count() > 0 && "maxval of empty array");
  T First = Ex.eval(Ex.shape().delinearize(0));
  return fold(std::move(Ex), First,
              [](const T &A, const T &B) { return std::max(A, B); }, Exec);
}

/// Smallest element (SaC minval).  Programmatic error on empty operands.
template <ExprOperand X> auto minval(X &&Operand, Backend &Exec) {
  using T = typename ExprOf<X>::ValueType;
  auto Ex = toExpr(std::forward<X>(Operand));
  assert(Ex.shape().count() > 0 && "minval of empty array");
  T First = Ex.eval(Ex.shape().delinearize(0));
  return fold(std::move(Ex), First,
              [](const T &A, const T &B) { return std::min(A, B); }, Exec);
}

/// Element sum (SaC sum).  Zero-initialized from T{}.
template <ExprOperand X> auto sum(X &&Operand, Backend &Exec) {
  using T = typename ExprOf<X>::ValueType;
  return fold(std::forward<X>(Operand), T{},
              [](const T &A, const T &B) { return A + B; }, Exec);
}

} // namespace sacfd

#endif // SACFD_ARRAY_REDUCTIONS_H
