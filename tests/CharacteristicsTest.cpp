//===- tests/CharacteristicsTest.cpp - Eigen-decomposition invariants -----===//
//
// The characteristic projection must satisfy, for any physical average
// state and axis:
//   (1) L R = I           (toCharacteristic inverts fromCharacteristic)
//   (2) A r_k = lambda_k r_k with A = dF/dQ (checked via finite
//       differences of the physical flux)
//   (3) eigenvalues ordered u-c <= u <= u+c
//
//===----------------------------------------------------------------------===//

#include "euler/Characteristics.h"
#include "euler/Flux.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sacfd;

namespace {

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

/// Finite-difference directional flux Jacobian times vector:
/// A v ~= (F(Q + eps v) - F(Q - eps v)) / (2 eps).
template <unsigned Dim>
Cons<Dim> jacobianApply(const Cons<Dim> &Q, const Cons<Dim> &V,
                        const Gas &G, unsigned Axis) {
  double Eps = 1e-7;
  Cons<Dim> Fp = physicalFlux(Q + V * Eps, G, Axis);
  Cons<Dim> Fm = physicalFlux(Q - V * Eps, G, Axis);
  return (Fp - Fm) / (2.0 * Eps);
}

template <unsigned Dim> void checkRoundTrip(unsigned Seed0) {
  Gas G;
  unsigned Seed = Seed0;
  for (int Trial = 0; Trial < 100; ++Trial) {
    Prim<Dim> Wl = randomPrim<Dim>(Seed);
    Prim<Dim> Wr = randomPrim<Dim>(Seed);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      EigenSystem<Dim> ES(roeAverage(Wl, Wr, G), G, Axis);
      Cons<Dim> Q = toCons(randomPrim<Dim>(Seed), G);
      Cons<Dim> Back = ES.fromCharacteristic(ES.toCharacteristic(Q));
      for (unsigned K = 0; K < NumVars<Dim>; ++K)
        ASSERT_NEAR(Back.comp(K), Q.comp(K),
                    1e-11 * (1.0 + std::fabs(Q.comp(K))))
            << "axis " << Axis << " comp " << K;
    }
  }
}

template <unsigned Dim> void checkEigenvectors(unsigned Seed0) {
  Gas G;
  unsigned Seed = Seed0;
  for (int Trial = 0; Trial < 50; ++Trial) {
    Prim<Dim> W = randomPrim<Dim>(Seed);
    for (unsigned Axis = 0; Axis < Dim; ++Axis) {
      // Use the Roe average of identical states: the decomposition is
      // then exactly the Jacobian eigensystem at W.
      EigenSystem<Dim> ES(roeAverage(W, W, G), G, Axis);
      Cons<Dim> Q = toCons(W, G);
      for (unsigned K = 0; K < NumVars<Dim>; ++K) {
        Cons<Dim> R = ES.rightVector(K);
        Cons<Dim> AR = jacobianApply(Q, R, G, Axis);
        for (unsigned J = 0; J < NumVars<Dim>; ++J)
          ASSERT_NEAR(AR.comp(J), ES.lambda(K) * R.comp(J), 2e-5)
              << "axis " << Axis << " wave " << K << " comp " << J;
      }
    }
  }
}

} // namespace

TEST(Characteristics, LeftInvertsRight1D) { checkRoundTrip<1>(11); }
TEST(Characteristics, LeftInvertsRight2D) { checkRoundTrip<2>(22); }

TEST(Characteristics, RightVectorsAreJacobianEigenvectors1D) {
  checkEigenvectors<1>(33);
}
TEST(Characteristics, RightVectorsAreJacobianEigenvectors2D) {
  checkEigenvectors<2>(44);
}

TEST(Characteristics, EigenvalueOrderingAndValues) {
  Gas G;
  Prim<2> W;
  W.Rho = 1.0;
  W.Vel = {0.75, -0.3};
  W.P = 1.0;
  FaceAverage<2> Avg = roeAverage(W, W, G);
  double C = G.soundSpeed(1.0, 1.0);

  EigenSystem<2> X(Avg, G, 0);
  EXPECT_NEAR(X.lambda(0), 0.75 - C, 1e-12);
  EXPECT_NEAR(X.lambda(1), 0.75, 1e-12);
  EXPECT_NEAR(X.lambda(2), 0.75, 1e-12);
  EXPECT_NEAR(X.lambda(3), 0.75 + C, 1e-12);

  EigenSystem<2> Y(Avg, G, 1);
  EXPECT_NEAR(Y.lambda(0), -0.3 - C, 1e-12);
  EXPECT_NEAR(Y.lambda(3), -0.3 + C, 1e-12);
}

TEST(RoeAverage, ReducesToStateForEqualInputs) {
  Gas G;
  Prim<2> W;
  W.Rho = 0.8;
  W.Vel = {1.1, -2.2};
  W.P = 0.6;
  FaceAverage<2> Avg = roeAverage(W, W, G);
  EXPECT_NEAR(Avg.Vel[0], 1.1, 1e-14);
  EXPECT_NEAR(Avg.Vel[1], -2.2, 1e-14);
  double E = G.totalEnergy(W.P, W.kineticEnergyDensity());
  EXPECT_NEAR(Avg.H, G.totalEnthalpy(W.Rho, W.P, E), 1e-13);
  EXPECT_NEAR(Avg.C, G.soundSpeed(W.Rho, W.P), 1e-13);
}

TEST(RoeAverage, IsBetweenStatesAndSqrtWeighted) {
  Gas G;
  Prim<1> L, R;
  L.Rho = 1.0;
  L.Vel = {0.0};
  L.P = 1.0;
  R.Rho = 4.0;
  R.Vel = {2.0};
  R.P = 1.0;
  FaceAverage<1> Avg = roeAverage(L, R, G);
  // sqrt-rho weights 1 and 2: u_roe = (0*1 + 2*2)/3.
  EXPECT_NEAR(Avg.Vel[0], 4.0 / 3.0, 1e-13);
  EXPECT_GT(Avg.C, 0.0);
}

TEST(SimpleAverage, MatchesArithmeticMeans) {
  Gas G;
  Prim<1> L, R;
  L.Rho = 1.0;
  L.Vel = {1.0};
  L.P = 2.0;
  R.Rho = 3.0;
  R.Vel = {3.0};
  R.P = 4.0;
  FaceAverage<1> Avg = simpleAverage(L, R, G);
  EXPECT_NEAR(Avg.Vel[0], 2.0, 1e-14);
  EXPECT_NEAR(Avg.C, G.soundSpeed(2.0, 3.0), 1e-14);
}

TEST(Characteristics, ContactWaveIsolatedByDecomposition) {
  // A pure density jump at equal u and p excites only the entropy wave.
  Gas G;
  Prim<1> L, R;
  L.Rho = 1.0;
  L.Vel = {0.4};
  L.P = 0.7;
  R = L;
  R.Rho = 2.5;

  EigenSystem<1> ES(roeAverage(L, R, G), G, 0);
  Cons<1> DQ = toCons(R, G) - toCons(L, G);
  auto W = ES.toCharacteristic(DQ);
  EXPECT_NEAR(W[0], 0.0, 1e-12) << "acoustic- amplitude";
  EXPECT_NEAR(W[2], 0.0, 1e-12) << "acoustic+ amplitude";
  EXPECT_GT(std::fabs(W[1]), 0.1) << "entropy amplitude carries the jump";
}

TEST(Characteristics, ShearWaveIsolatedByDecomposition2D) {
  // A pure tangential-velocity jump excites only the shear wave.
  Gas G;
  Prim<2> L, R;
  L.Rho = 1.0;
  L.Vel = {0.5, -1.0};
  L.P = 1.0;
  R = L;
  R.Vel[1] = 2.0;

  EigenSystem<2> ES(roeAverage(L, R, G), G, 0);
  Cons<2> DQ = toCons(R, G) - toCons(L, G);
  auto W = ES.toCharacteristic(DQ);
  EXPECT_NEAR(W[0], 0.0, 1e-12);
  EXPECT_NEAR(W[1], 0.0, 1e-12);
  EXPECT_NEAR(W[3], 0.0, 1e-12);
  EXPECT_GT(std::fabs(W[2]), 0.5);
}

TEST(Characteristics3D, RoundTripAtRankThree) {
  Gas G;
  Prim<3> W;
  W.Rho = 0.9;
  W.Vel = {0.4, -0.7, 0.2};
  W.P = 1.3;
  for (unsigned Axis = 0; Axis < 3; ++Axis) {
    EigenSystem<3> ES(roeAverage(W, W, G), G, Axis);
    Cons<3> Q = toCons(W, G);
    Cons<3> Back = ES.fromCharacteristic(ES.toCharacteristic(Q));
    for (unsigned K = 0; K < 5; ++K)
      EXPECT_NEAR(Back.comp(K), Q.comp(K), 1e-12) << "axis " << Axis;
  }
}
