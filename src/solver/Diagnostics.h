//===- solver/Diagnostics.h - Field integrals and sanity checks -*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Total variation, positivity and error norms — with
/// EulerSolver::conservedTotals, the quantities the test suite and
/// EXPERIMENTS.md report.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_DIAGNOSTICS_H
#define SACFD_SOLVER_DIAGNOSTICS_H

#include "euler/ExactRiemann.h"
#include "solver/EulerSolver.h"

#include <cmath>

namespace sacfd {

/// Smallest density/pressure over the interior, and finiteness.
template <unsigned Dim> struct FieldHealth {
  double MinDensity = 0.0;
  double MinPressure = 0.0;
  bool AllFinite = true;
};

template <unsigned Dim>
FieldHealth<Dim> fieldHealth(const EulerSolver<Dim> &Solver) {
  const Grid<Dim> &G = Solver.problem().Domain;
  const Gas &Gas_ = Solver.problem().G;

  FieldHealth<Dim> H;
  H.MinDensity = std::numeric_limits<double>::infinity();
  H.MinPressure = std::numeric_limits<double>::infinity();

  Shape Interior = G.interiorShape();
  Index Iv = Interior.delinearize(0);
  do {
    const Cons<Dim> &Q = Solver.field().at(G.toStorage(Iv));
    for (unsigned K = 0; K < NumVars<Dim>; ++K)
      if (!std::isfinite(Q.comp(K)))
        H.AllFinite = false;
    if (!H.AllFinite) {
      // The scan stops at the first bad cell; the partial minima would be
      // misleading ("min density 1.0" over a NaN field), so report NaN.
      H.MinDensity = std::numeric_limits<double>::quiet_NaN();
      H.MinPressure = std::numeric_limits<double>::quiet_NaN();
      return H;
    }
    Prim<Dim> W = toPrim(Q, Gas_);
    H.MinDensity = std::min(H.MinDensity, W.Rho);
    H.MinPressure = std::min(H.MinPressure, W.P);
  } while (Interior.increment(Iv));
  return H;
}

/// Total variation of the density field (1D): sum |rho_{i+1} - rho_i|.
/// TVD schemes must not increase it on monotone profiles.
inline double densityTotalVariation(const EulerSolver<1> &Solver) {
  const Grid<1> &G = Solver.problem().Domain;
  double Tv = 0.0;
  for (size_t I = 0; I + 1 < G.cells(0); ++I) {
    double A =
        Solver.field().at(G.toStorage(Index{(std::ptrdiff_t)I})).Rho;
    double B =
        Solver.field().at(G.toStorage(Index{(std::ptrdiff_t)I + 1})).Rho;
    Tv += std::fabs(B - A);
  }
  return Tv;
}

/// Per-variable L1 errors of a 1D solver field against the exact Riemann
/// solution with initial states (\p L, \p R) and diaphragm at \p X0.
struct RiemannErrors {
  double Rho = 0.0;
  double U = 0.0;
  double P = 0.0;
  bool Valid = false;
};

inline RiemannErrors
riemannL1Error(const EulerSolver<1> &Solver, const Prim<1> &L,
               const Prim<1> &R, double X0) {
  RiemannErrors E;
  ExactRiemannSolver RS(L, R, Solver.problem().G);
  if (!RS.valid() || Solver.time() <= 0.0)
    return E;
  E.Valid = true;

  const Grid<1> &G = Solver.problem().Domain;
  double Dx = G.dx(0);
  for (size_t I = 0; I < G.cells(0); ++I) {
    double X = G.cellCenter(0, static_cast<std::ptrdiff_t>(I));
    Prim<1> Exact = RS.sample((X - X0) / Solver.time());
    Prim<1> Got = Solver.primitiveAt(Index{(std::ptrdiff_t)I});
    E.Rho += std::fabs(Got.Rho - Exact.Rho) * Dx;
    E.U += std::fabs(Got.Vel[0] - Exact.Vel[0]) * Dx;
    E.P += std::fabs(Got.P - Exact.P) * Dx;
  }
  return E;
}

/// Maximum absolute field difference between two solvers on the same
/// grid (engine-equivalence checks).  A NaN difference anywhere is
/// returned as NaN, never absorbed by the max, so two NaN-poisoned
/// fields do not compare as identical.
template <unsigned Dim>
double maxFieldDifference(const EulerSolver<Dim> &A,
                          const EulerSolver<Dim> &B) {
  assert(A.problem().Domain == B.problem().Domain && "grid mismatch");
  const Grid<Dim> &G = A.problem().Domain;
  double MaxDiff = 0.0;
  Shape Interior = G.interiorShape();
  Index Iv = Interior.delinearize(0);
  do {
    Index S = G.toStorage(Iv);
    const Cons<Dim> &Qa = A.field().at(S);
    const Cons<Dim> &Qb = B.field().at(S);
    for (unsigned K = 0; K < NumVars<Dim>; ++K) {
      double D = std::fabs(Qa.comp(K) - Qb.comp(K));
      if (std::isnan(D))
        return D;
      MaxDiff = std::max(MaxDiff, D);
    }
  } while (Interior.increment(Iv));
  return MaxDiff;
}

} // namespace sacfd

#endif // SACFD_SOLVER_DIAGNOSTICS_H
