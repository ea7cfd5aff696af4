//===- kernels/Kernels.h - Vectorized per-stage solver kernels -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified kernel layer both engines lower their hot loops onto.
///
/// Every kernel operates on a contiguous run of cells described by a
/// Run/ConstRun view: one pointer per conserved component, each into its
/// own unit-stride SoA plane.  No NDArray (or any container) appears in
/// these signatures — the engines translate their index spaces into
/// runs, and this layer owns the arithmetic.
///
/// Each kernel exists twice, in scalarimpl:: (compiled with vectorization
/// disabled — the honest scalar baseline) and simdimpl:: (compiled with
/// the host ISA, OpenMP SIMD pragmas, and contraction off).  The public
/// inline wrappers dispatch on a runtime `Simd` flag.  The two builds
/// are bit-identical by construction: the SIMD bodies are elementwise
/// rewrites of the same IEEE arithmetic with branches turned into
/// selects (the f18 lowering rules: no reassociation of non-exact
/// reductions, no contraction, selected-lane arithmetic identical to the
/// branchy original), and KernelsTest asserts equality bit-for-bit,
/// ragged tails included.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_KERNELS_KERNELS_H
#define SACFD_KERNELS_KERNELS_H

#include "euler/Gas.h"
#include "euler/State.h"
#include "numerics/Reconstruction.h"
#include "numerics/RiemannSolvers.h"

#include <cassert>
#include <cstddef>

namespace sacfd {
namespace kernels {

/// Mutable view of a contiguous run of cells: one pointer per component
/// plane, at the run's first cell.
template <unsigned Dim> struct Run {
  double *C[NumVars<Dim>] = {};
};

/// Read-only run view.
template <unsigned Dim> struct ConstRun {
  const double *C[NumVars<Dim>] = {};

  ConstRun() = default;
  ConstRun(const Run<Dim> &R) {
    for (unsigned K = 0; K < NumVars<Dim>; ++K)
      C[K] = R.C[K];
  }
};

/// Run over SoA planes: component K lives at Base + K * PlaneStride,
/// and the run starts \p Offset cells into each plane.
template <unsigned Dim>
inline Run<Dim> soaRun(double *Base, size_t PlaneStride, size_t Offset) {
  Run<Dim> R;
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = Base + K * PlaneStride + Offset;
  return R;
}
template <unsigned Dim>
inline ConstRun<Dim> soaRun(const double *Base, size_t PlaneStride,
                            size_t Offset) {
  ConstRun<Dim> R;
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] = Base + K * PlaneStride + Offset;
  return R;
}

/// \returns \p R advanced by \p Cells cells.
template <unsigned Dim> inline Run<Dim> advance(Run<Dim> R, ptrdiff_t Cells) {
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] += Cells;
  return R;
}
template <unsigned Dim>
inline ConstRun<Dim> advance(ConstRun<Dim> R, ptrdiff_t Cells) {
  for (unsigned K = 0; K < NumVars<Dim>; ++K)
    R.C[K] += Cells;
  return R;
}

/// Scalar element access through a run (boundaries, tests, staging).
template <unsigned Dim>
inline Cons<Dim> loadCons(const ConstRun<Dim> &R, size_t I) {
  Cons<Dim> Q;
  Q.Rho = R.C[0][I];
  for (unsigned D = 0; D < Dim; ++D)
    Q.Mom[D] = R.C[1 + D][I];
  Q.E = R.C[Dim + 1][I];
  return Q;
}
template <unsigned Dim>
inline void storeCons(const Run<Dim> &R, size_t I, const Cons<Dim> &Q) {
  R.C[0][I] = Q.Rho;
  for (unsigned D = 0; D < Dim; ++D)
    R.C[1 + D][I] = Q.Mom[D];
  R.C[Dim + 1][I] = Q.E;
}

/// True when this build compiled simdimpl:: with host-ISA acceleration
/// (the -march/-fopenmp-simd TU); false means simdimpl is a plain
/// recompile and `--no-simd` is only a dispatch formality.
bool simdAccelerated();

// Per-TU implementations.  scalarimpl is compiled with vectorization
// disabled; simdimpl with the host ISA and contraction off.  Both are
// defined out-of-line (KernelsScalar.cpp / KernelsSimd.cpp) with
// explicit instantiations for Dim = 1, 2.
#define SACFD_KERNELS_DECLARE                                                  \
  template <unsigned Dim>                                                      \
  void copyState(const ConstRun<Dim> &Src, const Run<Dim> &Dst, size_t N);     \
  template <unsigned Dim> void zeroState(const Run<Dim> &Dst, size_t N);       \
  template <unsigned Dim>                                                      \
  void sspUpdate(const Run<Dim> &U, const ConstRun<Dim> &Un,                   \
                 const ConstRun<Dim> &Res, double A, double B, double Dt,      \
                 size_t N);                                                    \
  template <unsigned Dim>                                                      \
  double maxEigen(const ConstRun<Dim> &U, const Gas &G, const double *InvDx,   \
                  double Acc, size_t N);                                       \
  template <unsigned Dim>                                                      \
  void accumDivergence(const Run<Dim> &Res, const ConstRun<Dim> &Lo,           \
                       const ConstRun<Dim> &Hi, double InvDx, size_t N);       \
  template <unsigned Dim>                                                      \
  void fluxFaces(const ConstRun<Dim> &L, const ConstRun<Dim> &R,               \
                 const Run<Dim> &F, const Gas &G, unsigned Axis,               \
                 RiemannKind Kind, size_t N);                                  \
  template <unsigned Dim>                                                      \
  void reconstructFaces(const ConstRun<Dim> &U, ptrdiff_t AxisStride,          \
                        const Run<Dim> &L, const Run<Dim> &R, const Gas &G,    \
                        unsigned Axis, ReconstructionKind Kind,                \
                        LimiterKind Limiter, ReconstructVariables Vars,        \
                        size_t N);

namespace scalarimpl {
SACFD_KERNELS_DECLARE
}
namespace simdimpl {
SACFD_KERNELS_DECLARE
}
#undef SACFD_KERNELS_DECLARE

// Public dispatchers: one runtime branch per kernel call (calls cover
// whole lines, so the branch is noise).

template <unsigned Dim>
inline void copyState(const ConstRun<Dim> &Src, const Run<Dim> &Dst, size_t N,
                      bool Simd) {
  (Simd ? simdimpl::copyState<Dim> : scalarimpl::copyState<Dim>)(Src, Dst, N);
}

template <unsigned Dim>
inline void zeroState(const Run<Dim> &Dst, size_t N, bool Simd) {
  (Simd ? simdimpl::zeroState<Dim> : scalarimpl::zeroState<Dim>)(Dst, N);
}

template <unsigned Dim>
inline void sspUpdate(const Run<Dim> &U, const ConstRun<Dim> &Un,
                      const ConstRun<Dim> &Res, double A, double B, double Dt,
                      size_t N, bool Simd) {
  (Simd ? simdimpl::sspUpdate<Dim> : scalarimpl::sspUpdate<Dim>)(U, Un, Res, A,
                                                                 B, Dt, N);
}

template <unsigned Dim>
inline double maxEigen(const ConstRun<Dim> &U, const Gas &G,
                       const double *InvDx, double Acc, size_t N, bool Simd) {
  return (Simd ? simdimpl::maxEigen<Dim> : scalarimpl::maxEigen<Dim>)(
      U, G, InvDx, Acc, N);
}

template <unsigned Dim>
inline void accumDivergence(const Run<Dim> &Res, const ConstRun<Dim> &Lo,
                            const ConstRun<Dim> &Hi, double InvDx, size_t N,
                            bool Simd) {
  (Simd ? simdimpl::accumDivergence<Dim>
        : scalarimpl::accumDivergence<Dim>)(Res, Lo, Hi, InvDx, N);
}

template <unsigned Dim>
inline void fluxFaces(const ConstRun<Dim> &L, const ConstRun<Dim> &R,
                      const Run<Dim> &F, const Gas &G, unsigned Axis,
                      RiemannKind Kind, size_t N, bool Simd) {
  // The branch-free SIMD mirror covers the three algebraic solvers;
  // Roe's eigen-decomposition stays on the reference loop.
  bool Vector = Simd && Kind != RiemannKind::Roe;
  (Vector ? simdimpl::fluxFaces<Dim> : scalarimpl::fluxFaces<Dim>)(
      L, R, F, G, Axis, Kind, N);
}

/// Reconstructs the left/right face states of a row of \p N faces normal
/// to \p Axis (reconstructFaceStates, lane by lane).  Lanes are
/// consecutive cells along the contiguous last axis: lane I's face has
/// its right-hand cell at U[I], and window cell K of its stencil (cell 3
/// is U[I]) sits at U[I + (K - 3) * AxisStride] — so one kernel serves
/// every axis in every Dim.  Only the window cells the scheme reads are
/// loaded: 3 - ghostCells(Kind) .. 2 + ghostCells(Kind).  The states land
/// in the SoA rows \p L and \p R, ready for fluxFaces.
template <unsigned Dim>
inline void reconstructFaces(const ConstRun<Dim> &U, ptrdiff_t AxisStride,
                             const Run<Dim> &L, const Run<Dim> &R,
                             const Gas &G, unsigned Axis,
                             ReconstructionKind Kind, LimiterKind Limiter,
                             ReconstructVariables Vars, size_t N, bool Simd) {
  (Simd ? simdimpl::reconstructFaces<Dim>
        : scalarimpl::reconstructFaces<Dim>)(U, AxisStride, L, R, G, Axis,
                                              Kind, Limiter, Vars, N);
}

} // namespace kernels
} // namespace sacfd

#endif // SACFD_KERNELS_KERNELS_H
