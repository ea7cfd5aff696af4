//===- tests/ConservationTest.cpp - Closed-box conservation regression ----===//
//
// A finite-volume scheme in a closed box (solid reflective walls on every
// side) must conserve mass and total energy to round-off: interior flux
// contributions telescope, and the mirrored wall states make the wall
// mass/energy fluxes exactly zero.  This regression drives an acoustic
// pulse around a sealed 2D box for 200 steps and measures the drift
// through the telemetry conserved-total gauges — the same channel the
// --telemetry CLI exposes — for both engines.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sacfd;

namespace {

constexpr unsigned kSteps = 200;

/// Sealed 2D box: reflective walls all around, fluid at rest with a
/// Gaussian pressure bump off-center (so waves hit every wall at
/// non-normal incidence before step 200).
Problem<2> closedBox(size_t N) {
  Problem<2> P;
  P.Name = "closed-box";
  P.Domain = Grid<2>({N, N}, {0.0, 0.0}, {1.0, 1.0}, 2);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Reflective);
  P.InitialState = [](const std::array<double, 2> &X) {
    Prim<2> W;
    W.Rho = 1.0;
    W.Vel = {0.0, 0.0};
    double R2 = (X[0] - 0.4) * (X[0] - 0.4) + (X[1] - 0.55) * (X[1] - 0.55);
    W.P = 1.0 + 1.5 * std::exp(-60.0 * R2);
    return W;
  };
  P.EndTime = 1.0;
  return P;
}

template <typename SolverT>
void checkClosedBoxConservation(const SchemeConfig &Scheme) {
  telemetry::reset();
  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);

  auto Exec = createBackend(BackendKind::Serial, 1);
  SolverT S(closedBox(32), Scheme, *Exec);
  S.advanceSteps(kSteps);

  telemetry::MetricsReport R = telemetry::snapshot();
  telemetry::setEnabled(false);

  const telemetry::GaugeSeries *Mass = R.findGauge("step.mass");
  const telemetry::GaugeSeries *Energy = R.findGauge("step.energy");
  ASSERT_NE(Mass, nullptr);
  ASSERT_NE(Energy, nullptr);
  ASSERT_EQ(Mass->Samples.size(), kSteps);
  ASSERT_EQ(Energy->Samples.size(), kSteps);

  // Round-off accumulation over 200 steps on a 32x32 interior sits far
  // below 1e-12 relative; anything above it means a conservation bug
  // (lossy boundary flux, non-telescoping update), not rounding.
  EXPECT_LT(Mass->maxRelativeDrift(), 1e-12);
  EXPECT_LT(Energy->maxRelativeDrift(), 1e-12);

  // The gauge channel must agree with the direct diagnostic on the final
  // state — same serial interior sum, so to the last ulp.
  ConservedTotals<2> Final = S.conservedTotals();
  EXPECT_DOUBLE_EQ(Mass->last(), Final.Mass);
  EXPECT_DOUBLE_EQ(Energy->last(), Final.Energy);

  // The pulse must actually be moving (dt gauge present, eigenvalue
  // above the quiescent sound speed) or the test proves nothing.
  const telemetry::GaugeSeries *Ev = R.findGauge("step.max_eigen");
  ASSERT_NE(Ev, nullptr);
  EXPECT_GT(Ev->first(), std::sqrt(1.4));
}

class ConservationTest : public ::testing::Test {
protected:
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

} // namespace

TEST_F(ConservationTest, ClosedBoxArraySolverFirstOrder) {
  checkClosedBoxConservation<ArraySolver<2>>(
      SchemeConfig::benchmarkScheme());
}

TEST_F(ConservationTest, ClosedBoxFusedSolverFirstOrder) {
  checkClosedBoxConservation<FusedSolver<2>>(
      SchemeConfig::benchmarkScheme());
}

TEST_F(ConservationTest, ClosedBoxArraySolverSecondOrder) {
  checkClosedBoxConservation<ArraySolver<2>>(SchemeConfig::figureScheme());
}
