//===- tests/RiemannSolverTest.cpp - Approximate Riemann solver tests -----===//
//
// Contract for every numerical flux:
//   consistency    F(q, q) = f(q)
//   conservativity mirror symmetry under coordinate reflection
//   upwinding      supersonic data passes the upwind physical flux
//   accuracy       close to the exact Godunov flux on standard problems
//
//===----------------------------------------------------------------------===//

#include "euler/ExactRiemann.h"
#include "numerics/RiemannSolvers.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sacfd;

namespace {

const RiemannKind AllSolvers[] = {RiemannKind::Rusanov, RiemannKind::Hll,
                                  RiemannKind::Hllc, RiemannKind::Roe};

class RiemannSolverSweep : public ::testing::TestWithParam<RiemannKind> {};

template <unsigned Dim> Prim<Dim> randomPrim(unsigned &Seed) {
  auto Next = [&Seed] {
    Seed = Seed * 1664525u + 1013904223u;
    return static_cast<double>(Seed % 10000) / 10000.0;
  };
  Prim<Dim> W;
  W.Rho = 0.1 + 2.0 * Next();
  for (unsigned D = 0; D < Dim; ++D)
    W.Vel[D] = 3.0 * Next() - 1.5;
  W.P = 0.1 + 2.0 * Next();
  return W;
}

Prim<1> prim1(double Rho, double U, double P) {
  Prim<1> W;
  W.Rho = Rho;
  W.Vel = {U};
  W.P = P;
  return W;
}

/// Mirror a 2D state along \p Axis.
Prim<2> mirrored(const Prim<2> &W, unsigned Axis) {
  Prim<2> M = W;
  M.Vel[Axis] = -M.Vel[Axis];
  return M;
}

/// Exact Godunov flux via the exact Riemann solver (1D reference).
Cons<1> godunovFlux(const Prim<1> &L, const Prim<1> &R, const Gas &G) {
  ExactRiemannSolver RS(L, R, G);
  EXPECT_TRUE(RS.valid());
  Prim<1> FaceState = RS.sample(0.0);
  return physicalFlux(FaceState, G, 0);
}

} // namespace

TEST_P(RiemannSolverSweep, ConsistencyOnRandomStates1D) {
  Gas G;
  unsigned Seed = 5;
  for (int Trial = 0; Trial < 100; ++Trial) {
    Prim<1> W = randomPrim<1>(Seed);
    Cons<1> Q = toCons(W, G);
    Cons<1> F = numericalFlux(GetParam(), Q, Q, G, 0);
    Cons<1> Exact = physicalFlux(Q, G, 0);
    for (unsigned C = 0; C < 3; ++C)
      ASSERT_NEAR(F.comp(C), Exact.comp(C),
                  1e-12 * (1.0 + std::fabs(Exact.comp(C))));
  }
}

TEST_P(RiemannSolverSweep, ConsistencyOnRandomStates2DBothAxes) {
  Gas G;
  unsigned Seed = 17;
  for (int Trial = 0; Trial < 100; ++Trial) {
    Prim<2> W = randomPrim<2>(Seed);
    Cons<2> Q = toCons(W, G);
    for (unsigned Axis = 0; Axis < 2; ++Axis) {
      Cons<2> F = numericalFlux(GetParam(), Q, Q, G, Axis);
      Cons<2> Exact = physicalFlux(Q, G, Axis);
      for (unsigned C = 0; C < 4; ++C)
        ASSERT_NEAR(F.comp(C), Exact.comp(C),
                    1e-12 * (1.0 + std::fabs(Exact.comp(C))));
    }
  }
}

TEST_P(RiemannSolverSweep, MirrorSymmetry) {
  // Reflecting both states across the face negates mass/energy flux and
  // preserves normal-momentum flux.
  Gas G;
  unsigned Seed = 23;
  for (int Trial = 0; Trial < 100; ++Trial) {
    Prim<2> L = randomPrim<2>(Seed);
    Prim<2> R = randomPrim<2>(Seed);
    for (unsigned Axis = 0; Axis < 2; ++Axis) {
      Cons<2> F = numericalFlux(GetParam(), toCons(L, G), toCons(R, G), G,
                                Axis);
      Cons<2> FM = numericalFlux(GetParam(), toCons(mirrored(R, Axis), G),
                                 toCons(mirrored(L, Axis), G), G, Axis);
      double Tol = 1e-10;
      ASSERT_NEAR(F.Rho, -FM.Rho, Tol * (1.0 + std::fabs(F.Rho)));
      ASSERT_NEAR(F.Mom[Axis], FM.Mom[Axis],
                  Tol * (1.0 + std::fabs(F.Mom[Axis])));
      ASSERT_NEAR(F.Mom[1 - Axis], -FM.Mom[1 - Axis],
                  Tol * (1.0 + std::fabs(F.Mom[1 - Axis])));
      ASSERT_NEAR(F.E, -FM.E, Tol * (1.0 + std::fabs(F.E)));
    }
  }
}

TEST_P(RiemannSolverSweep, SupersonicUpwinding) {
  // Supersonic rightward flow: the Godunov-type solvers (HLL family,
  // Roe) must return the upwind physical flux exactly; Rusanov is a
  // central flux with scalar dissipation and is only approximately
  // upwind, so it gets a loose bound.
  Gas G;
  double Tol = GetParam() == RiemannKind::Rusanov ? 4.0 : 1e-9;

  Prim<1> L = prim1(1.0, 3.0, 1.0); // M ~ 2.5
  Prim<1> R = prim1(0.5, 3.5, 0.8);
  Cons<1> F = numericalFlux(GetParam(), toCons(L, G), toCons(R, G), G, 0);
  Cons<1> FL = physicalFlux(L, G, 0);
  for (unsigned C = 0; C < 3; ++C)
    EXPECT_NEAR(F.comp(C), FL.comp(C), Tol * (1.0 + std::fabs(FL.comp(C))))
        << riemannKindName(GetParam());

  // Supersonic leftward flow: the right flux.
  Prim<1> L2 = prim1(0.5, -3.5, 0.8);
  Prim<1> R2 = prim1(1.0, -3.0, 1.0);
  Cons<1> F2 = numericalFlux(GetParam(), toCons(L2, G), toCons(R2, G), G, 0);
  Cons<1> FR = physicalFlux(R2, G, 0);
  for (unsigned C = 0; C < 3; ++C)
    EXPECT_NEAR(F2.comp(C), FR.comp(C),
                Tol * (1.0 + std::fabs(FR.comp(C))));
}

TEST_P(RiemannSolverSweep, CloseToGodunovFluxOnSod) {
  Gas G;
  Prim<1> L = prim1(1.0, 0.0, 1.0);
  Prim<1> R = prim1(0.125, 0.0, 0.1);
  Cons<1> F = numericalFlux(GetParam(), toCons(L, G), toCons(R, G), G, 0);
  Cons<1> Exact = godunovFlux(L, R, G);
  // Approximate solvers act on the raw initial jump (the hardest case) and
  // differ from the sampled Godunov flux by bounded dissipation; HLLC on
  // Sod sits ~0.18 off in momentum, Rusanov ~0.3.
  for (unsigned C = 0; C < 3; ++C)
    EXPECT_NEAR(F.comp(C), Exact.comp(C), 0.35)
        << riemannKindName(GetParam()) << " component " << C;
}

TEST_P(RiemannSolverSweep, StationaryContactDissipation) {
  // A stationary contact: the exact flux is pure pressure.  HLLC and Roe
  // must resolve it exactly; Rusanov/HLL smear it.
  Gas G;
  Prim<1> L = prim1(1.0, 0.0, 1.0);
  Prim<1> R = prim1(0.25, 0.0, 1.0);
  Cons<1> F = numericalFlux(GetParam(), toCons(L, G), toCons(R, G), G, 0);
  if (GetParam() == RiemannKind::Hllc || GetParam() == RiemannKind::Roe) {
    EXPECT_NEAR(F.Rho, 0.0, 1e-12);
    EXPECT_NEAR(F.Mom[0], 1.0, 1e-12);
    EXPECT_NEAR(F.E, 0.0, 1e-12);
  } else {
    // Dissipative solvers produce a spurious mass flux here.
    EXPECT_GT(std::fabs(F.Rho), 1e-3);
    EXPECT_NEAR(F.Mom[0], 1.0, 0.2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, RiemannSolverSweep,
                         ::testing::ValuesIn(AllSolvers),
                         [](const ::testing::TestParamInfo<RiemannKind> &I) {
                           return riemannKindName(I.param);
                         });

//===----------------------------------------------------------------------===//
// Solver-specific checks
//===----------------------------------------------------------------------===//

TEST(RiemannSolvers, DissipationOrdering) {
  // On Sod data, |mass-flux error vs Godunov| should not increase as the
  // solver gets more sophisticated: rusanov >= hll >= hllc(~roe).
  Gas G;
  Prim<1> L = prim1(1.0, 0.0, 1.0);
  Prim<1> R = prim1(0.125, 0.0, 0.1);
  Cons<1> Exact = godunovFlux(L, R, G);

  auto Error = [&](RiemannKind K) {
    Cons<1> F = numericalFlux(K, toCons(L, G), toCons(R, G), G, 0);
    return std::fabs(F.Rho - Exact.Rho);
  };
  double ERus = Error(RiemannKind::Rusanov);
  double EHll = Error(RiemannKind::Hll);
  double EHllc = Error(RiemannKind::Hllc);
  EXPECT_GE(ERus + 1e-12, EHll);
  EXPECT_GE(EHll + 1e-12, EHllc);
}

TEST(RiemannSolvers, RoeEntropyFixPreventsExpansionShock) {
  // Transonic rarefaction data (sonic point inside the left fan): plain
  // Roe produces an entropy-violating jump; the fix must add dissipation
  // so the flux departs from the upwind value.
  Gas G;
  Prim<1> L = prim1(1.0, -0.5, 0.2);
  Prim<1> R = prim1(0.2, 1.5, 0.02);
  Cons<1> FRoe = roeFlux(toCons(L, G), toCons(R, G), G, 0);
  // Compare against the exact Godunov flux: with the entropy fix the Roe
  // flux stays within the dissipation band of it (without the fix the
  // momentum flux error on this transonic fan is far larger).
  Cons<1> Exact = godunovFlux(L, R, G);
  for (unsigned C = 0; C < 3; ++C)
    EXPECT_NEAR(FRoe.comp(C), Exact.comp(C), 0.35) << "component " << C;
}

TEST(RiemannSolvers, HllcPreservesIsolatedShearWave2D) {
  // Pure tangential velocity jump: HLLC advects it without normal flux.
  Gas G;
  Prim<2> L, R;
  L.Rho = 1.0;
  L.Vel = {0.0, 1.0};
  L.P = 1.0;
  R = L;
  R.Vel[1] = -1.0;
  Cons<2> F = hllcFlux(toCons(L, G), toCons(R, G), G, 0);
  EXPECT_NEAR(F.Rho, 0.0, 1e-12);
  EXPECT_NEAR(F.Mom[0], 1.0, 1e-12);
  EXPECT_NEAR(F.E, 0.0, 1e-12);
}

TEST(RiemannSolvers, RandomProblemsStayNearGodunovFlux) {
  // Cross-validation against the exact solver: for random physical
  // Riemann data (vacuum excluded), every approximate flux must stay
  // within a dissipation-bounded distance of the exact Godunov flux.
  Gas G;
  unsigned Seed = 2024;
  int Checked = 0;
  for (int Trial = 0; Trial < 200; ++Trial) {
    Prim<1> L = randomPrim<1>(Seed);
    Prim<1> R = randomPrim<1>(Seed);
    ExactRiemannSolver RS(L, R, G);
    if (!RS.valid())
      continue;
    ++Checked;
    Cons<1> Exact = physicalFlux(RS.sample(0.0), G, 0);
    // Dissipation budget: Rusanov adds up to smax * |dQ| / 2, so the
    // bound scales with both the jump and the fastest signal speed.
    double Jump = 0.0;
    for (unsigned C = 0; C < 3; ++C)
      Jump = std::max(Jump, std::fabs(toCons(R, G).comp(C) -
                                      toCons(L, G).comp(C)));
    double Smax =
        std::max(maxWaveSpeed(L, G, 0), maxWaveSpeed(R, G, 0));
    double Bound = std::max(1.0, 1.5 * Smax * Jump);
    for (RiemannKind K : AllSolvers) {
      Cons<1> F = numericalFlux(K, toCons(L, G), toCons(R, G), G, 0);
      for (unsigned C = 0; C < 3; ++C)
        ASSERT_NEAR(F.comp(C), Exact.comp(C), Bound)
            << riemannKindName(K) << " trial " << Trial;
    }
  }
  EXPECT_GT(Checked, 150) << "most random problems should be solvable";
}

TEST(RiemannSolvers, NameParsingRoundTrip) {
  for (RiemannKind K : AllSolvers)
    EXPECT_EQ(parseRiemannKind(riemannKindName(K)), K);
  EXPECT_EQ(parseRiemannKind("llf"), RiemannKind::Rusanov);
  EXPECT_FALSE(parseRiemannKind("osher").has_value());
}

TEST(RiemannSolvers3D, ConsistencyAtRankThree) {
  Gas G;
  Prim<3> W;
  W.Rho = 1.2;
  W.Vel = {0.5, -0.1, 0.3};
  W.P = 0.8;
  Cons<3> Q = toCons(W, G);
  for (RiemannKind K : {RiemannKind::Rusanov, RiemannKind::Hll,
                        RiemannKind::Hllc, RiemannKind::Roe})
    for (unsigned Axis = 0; Axis < 3; ++Axis) {
      Cons<3> F = numericalFlux(K, Q, Q, G, Axis);
      Cons<3> Exact = physicalFlux(Q, G, Axis);
      for (unsigned Comp = 0; Comp < 5; ++Comp)
        EXPECT_NEAR(F.comp(Comp), Exact.comp(Comp), 1e-12)
            << riemannKindName(K) << " axis " << Axis;
    }
}
