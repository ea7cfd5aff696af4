//===- array/WithLoop.h - Data-parallel array construction -----*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The with-loop: SaC's central data-parallel construct.
///
/// "The essence of this construct is a data-parallel array definition.
/// The programmer supplies a specification of the index space ... and the
/// definition of the array value for a given index ...  Definitions for
/// different array values are assumed to be mutually independent, hence
/// data-parallelism is presented to the compiler explicitly."  (Section 2)
///
/// withLoop() is the genarray form (build a new array), assignInto() the
/// modarray form (overwrite an existing one), and materialize() forces a
/// lazy expression.  All three execute one parallel pass over the index
/// space on the given Backend; the per-element body sees the
/// multi-dimensional Index, maintained incrementally in row-major order so
/// no per-element division is paid.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_ARRAY_WITHLOOP_H
#define SACFD_ARRAY_WITHLOOP_H

#include "array/Expr.h"
#include "array/NDArray.h"
#include "runtime/Backend.h"

#include <cassert>

namespace sacfd {

/// Runs \p Body(Index, Linear) once per element of \p S, in parallel.
///
/// The contract is SaC's: bodies for different indices must be mutually
/// independent.
template <typename Fn>
void forEachIndex(const Shape &S, Backend &Exec, Fn &&Body) {
  size_t N = S.count();
  if (N == 0)
    return;
  if (S.rank() == 2) {
    // Rank-2 spaces are dealt as whole rows, so the column coordinate is
    // a plain counter instead of a carried row-major increment.
    size_t Cols = S.dim(1);
    Exec.parallelFor(0, S.dim(0), [&Body, Cols](size_t RowBegin,
                                                size_t RowEnd) {
      Index Ix;
      Ix.Rank = 2;
      size_t Linear = RowBegin * Cols;
      for (size_t R = RowBegin; R != RowEnd; ++R) {
        Ix.Coord[0] = static_cast<std::ptrdiff_t>(R);
        for (size_t C = 0; C != Cols; ++C, ++Linear) {
          Ix.Coord[1] = static_cast<std::ptrdiff_t>(C);
          Body(static_cast<const Index &>(Ix), Linear);
        }
      }
    });
    return;
  }
  auto Range = [&S, &Body](size_t Begin, size_t End) {
    Index Ix = S.delinearize(Begin);
    for (size_t Linear = Begin; Linear != End; ++Linear) {
      Body(static_cast<const Index &>(Ix), Linear);
      S.increment(Ix);
    }
  };
  Exec.parallelFor(0, N, Range);
}

/// genarray with-loop: a new array over index space \p S with element
/// \p Body(Index).
template <typename Fn>
auto withLoop(const Shape &S, Backend &Exec, Fn &&Body) {
  using T = std::remove_cvref_t<decltype(Body(std::declval<Index>()))>;
  NDArray<T> Out(S);
  T *Data = Out.data();
  forEachIndex(S, Exec, [&Body, Data](const Index &Ix, size_t Linear) {
    Data[Linear] = Body(Ix);
  });
  return Out;
}

/// genarray with-loop into an existing buffer — the pooled form of
/// withLoop().  Every element of \p Out is overwritten with \p Body(Ix),
/// so a recycled (uninitialized) buffer is safe here.
template <typename T, typename Fn>
void withLoopInto(NDArray<T> &Out, Backend &Exec, Fn &&Body) {
  T *Data = Out.data();
  forEachIndex(Out.shape(), Exec,
               [&Body, Data](const Index &Ix, size_t Linear) {
                 Data[Linear] = Body(Ix);
               });
}

/// modarray with-loop: overwrites \p Out with \p Ex element-wise.
/// This is the fused evaluation point of an expression chain.
template <typename T, ArrayExprType E>
void assignInto(NDArray<T> &Out, const E &Ex, Backend &Exec) {
  assert(Out.shape() == Ex.shape() && "assignment shape mismatch");
  T *Data = Out.data();
  forEachIndex(Out.shape(), Exec, [&Ex, Data](const Index &Ix, size_t Linear) {
    Data[Linear] = Ex.eval(Ix);
  });
}

/// Forces a lazy expression into a fresh array (one temporary — the
/// unfused evaluation step of the A1 ablation).
template <ArrayExprType E>
NDArray<typename std::remove_cvref_t<E>::ValueType>
materialize(const E &Ex, Backend &Exec) {
  NDArray<typename std::remove_cvref_t<E>::ValueType> Out(Ex.shape());
  assignInto(Out, Ex, Exec);
  return Out;
}

} // namespace sacfd

#endif // SACFD_ARRAY_WITHLOOP_H
