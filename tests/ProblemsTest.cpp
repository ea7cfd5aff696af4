//===- tests/ProblemsTest.cpp - Workload factory unit tests ----------------===//

#include "euler/RankineHugoniot.h"
#include "solver/Problems.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sacfd;

TEST(Problems, SodInitialStates) {
  Problem<1> P = sodProblem(100);
  EXPECT_EQ(P.Name, "sod");
  EXPECT_EQ(P.Domain.cells(0), 100u);
  Prim<1> Left = P.InitialState({0.25});
  Prim<1> Right = P.InitialState({0.75});
  EXPECT_EQ(Left.Rho, 1.0);
  EXPECT_EQ(Left.P, 1.0);
  EXPECT_EQ(Right.Rho, 0.125);
  EXPECT_EQ(Right.P, 0.1);
  EXPECT_DOUBLE_EQ(P.EndTime, 0.2);
  EXPECT_EQ(P.Boundary.Side[0].front().Kind, BcKind::Transmissive);
}

TEST(Problems, BlastWavesHasReflectiveWallsAndThreeZones) {
  Problem<1> P = blastWavesProblem(100);
  EXPECT_EQ(P.Boundary.Side[0].front().Kind, BcKind::Reflective);
  EXPECT_EQ(P.Boundary.Side[1].front().Kind, BcKind::Reflective);
  EXPECT_EQ(P.InitialState({0.05}).P, 1000.0);
  EXPECT_EQ(P.InitialState({0.5}).P, 0.01);
  EXPECT_EQ(P.InitialState({0.95}).P, 100.0);
}

TEST(Problems, ShockInteractionBoundaryLayout) {
  double H = 50.0, Ms = 2.2;
  Problem<2> P = shockInteraction2D(100, Ms, H);
  // Domain is 2h x 2h with dx = 1.
  EXPECT_DOUBLE_EQ(P.Domain.hi(0), 2.0 * H);
  EXPECT_DOUBLE_EQ(P.Domain.dx(0), 1.0);

  // Left side: inflow below y = h, wall above.
  const auto &Left = P.Boundary.Side[boundarySide(0, false)];
  ASSERT_EQ(Left.size(), 2u);
  EXPECT_EQ(Left[0].Kind, BcKind::Inflow);
  EXPECT_EQ(Left[1].Kind, BcKind::Reflective);
  EXPECT_DOUBLE_EQ(Left[0].TangentialHi, H);

  // The inflow state is the Rankine-Hugoniot post-shock state along +x.
  PostShockState Post = postShockState(Ms, 1.0, 1.0, P.G);
  Prim<2> In = toPrim(Left[0].InflowState, P.G);
  EXPECT_NEAR(In.Rho, Post.Rho, 1e-13);
  EXPECT_NEAR(In.Vel[0], Post.U, 1e-13);
  EXPECT_NEAR(In.Vel[1], 0.0, 1e-13);
  EXPECT_NEAR(In.P, Post.P, 1e-13);

  // Bottom mirrors it along +y; right/top are open.
  const auto &Bottom = P.Boundary.Side[boundarySide(1, false)];
  Prim<2> InB = toPrim(Bottom[0].InflowState, P.G);
  EXPECT_NEAR(InB.Vel[1], Post.U, 1e-13);
  EXPECT_EQ(P.Boundary.Side[boundarySide(0, true)].front().Kind,
            BcKind::Transmissive);
  EXPECT_EQ(P.Boundary.Side[boundarySide(1, true)].front().Kind,
            BcKind::Transmissive);

  // EndTime is the transit time h / (Ms c0).
  double C0 = P.G.soundSpeed(1.0, 1.0);
  EXPECT_NEAR(P.EndTime, H / (Ms * C0), 1e-12);
}

TEST(Problems, Riemann2DConfigurationSelection) {
  Problem<2> C4 = riemann2D(16);
  EXPECT_EQ(C4.Name, "riemann-2d-c4");
  Problem<2> C6 = riemann2D(16, 2, 6);
  EXPECT_EQ(C6.Name, "riemann-2d-c6");
  EXPECT_DOUBLE_EQ(C6.EndTime, 0.3);
  Problem<2> C12 = riemann2D(16, 2, 12);
  EXPECT_EQ(C12.Name, "riemann-2d-c12");

  // Config 6 is all-contacts: pressure uniform everywhere.
  for (double X : {0.25, 0.75})
    for (double Y : {0.25, 0.75})
      EXPECT_DOUBLE_EQ(C6.InitialState({X, Y}).P, 1.0);
  // Config 4 quadrants differ in pressure.
  EXPECT_NE(C4.InitialState({0.75, 0.75}).P,
            C4.InitialState({0.25, 0.75}).P);
}

TEST(Problems, Riemann2DConfig3QuadrantStates) {
  Problem<2> P = riemann2D(16, 2, 3);
  EXPECT_EQ(P.Name, "riemann-2d-c3");
  EXPECT_DOUBLE_EQ(P.EndTime, 0.3);
  // Lax-Liu configuration 3: four shocks, the SW quadrant is the
  // low-density high-speed corner.
  Prim<2> NE = P.InitialState({0.75, 0.75});
  Prim<2> SW = P.InitialState({0.25, 0.25});
  EXPECT_DOUBLE_EQ(NE.Rho, 1.5);
  EXPECT_DOUBLE_EQ(NE.P, 1.5);
  EXPECT_NEAR(SW.Rho, 0.138, 1e-12);
  EXPECT_NEAR(SW.Vel[0], 1.206, 1e-12);
  EXPECT_NEAR(SW.Vel[1], 1.206, 1e-12);
  // NW and SE mirror each other across the diagonal.
  Prim<2> NW = P.InitialState({0.25, 0.75});
  Prim<2> SE = P.InitialState({0.75, 0.25});
  EXPECT_DOUBLE_EQ(NW.Rho, SE.Rho);
  EXPECT_DOUBLE_EQ(NW.Vel[0], SE.Vel[1]);
  EXPECT_DOUBLE_EQ(NW.P, SE.P);
}

TEST(Problems, SedovBlastGeometry) {
  Problem<2> P = sedovBlast2D(64);
  EXPECT_EQ(P.Name, "sedov");
  EXPECT_EQ(P.Domain.cells(0), 64u);
  // Centered disc of hot gas, uniform density everywhere.
  Prim<2> Center = P.InitialState({0.0, 0.0});
  Prim<2> Ambient = P.InitialState({0.3, 0.3});
  EXPECT_DOUBLE_EQ(Center.Rho, 1.0);
  EXPECT_DOUBLE_EQ(Ambient.Rho, 1.0);
  EXPECT_DOUBLE_EQ(Ambient.P, 0.01);
  // p = (gamma - 1) E / (pi r0^2) with E = 1, r0 = 0.1.
  EXPECT_NEAR(Center.P, (P.G.Gamma - 1.0) / (M_PI * 0.01), 1e-12);
  // Just outside the deposition radius the gas is ambient.
  EXPECT_DOUBLE_EQ(P.InitialState({0.11, 0.0}).P, 0.01);
  EXPECT_DOUBLE_EQ(P.EndTime, 0.1);
  EXPECT_EQ(P.Boundary.Side[0].front().Kind, BcKind::Transmissive);
}

TEST(Problems, DoubleMachReflectionLayout) {
  Problem<2> P = doubleMachReflection(60);
  EXPECT_EQ(P.Name, "double-mach");
  EXPECT_EQ(P.Domain.cells(0), 240u);
  EXPECT_EQ(P.Domain.cells(1), 60u);
  EXPECT_DOUBLE_EQ(P.Domain.hi(0), 4.0);

  // Initial shock line x = 1/6 + y / sqrt(3): post-shock left of it.
  double X0 = 1.0 / 6.0;
  Prim<2> Behind = P.InitialState({X0 - 0.05, 0.0});
  Prim<2> Ahead = P.InitialState({X0 + 0.05, 0.0});
  EXPECT_DOUBLE_EQ(Behind.Rho, 8.0);
  EXPECT_NEAR(Behind.Vel[0], 8.25 * std::sqrt(3.0) / 2.0, 1e-12);
  EXPECT_NEAR(Behind.Vel[1], -8.25 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(Ahead.Rho, 1.4);
  EXPECT_DOUBLE_EQ(Ahead.P, 1.0);
  // The shock is oblique: at y = 0.5 the front sits further right.
  EXPECT_DOUBLE_EQ(P.InitialState({X0 + 0.2, 0.5}).Rho, 8.0);

  // Bottom: inflow strip before the wall start, wall from x0 on.
  const auto &Bottom = P.Boundary.Side[boundarySide(1, false)];
  ASSERT_EQ(Bottom.size(), 2u);
  EXPECT_EQ(Bottom[0].Kind, BcKind::Inflow);
  EXPECT_EQ(Bottom[1].Kind, BcKind::Reflective);
  EXPECT_DOUBLE_EQ(Bottom[1].TangentialLo, X0);

  // Top: the time-dependent prescribed shock trace.
  const auto &Top = P.Boundary.Side[boundarySide(1, true)].front();
  ASSERT_EQ(Top.Kind, BcKind::Prescribed);
  ASSERT_TRUE(static_cast<bool>(Top.StateAt));
  // At t = 0 the trace crosses y = 1 at x0 + 1/sqrt(3) ~ 0.744.
  double Trace0 = X0 + 1.0 / std::sqrt(3.0);
  EXPECT_DOUBLE_EQ(Top.StateAt(Trace0 - 0.01, 0.0).Rho, 8.0);
  EXPECT_DOUBLE_EQ(Top.StateAt(Trace0 + 0.01, 0.0).Rho, 1.4);
  // The trace moves right at speed 20/sqrt(3): by t = 0.2 the point
  // that was pre-shock is behind the front.
  EXPECT_DOUBLE_EQ(Top.StateAt(Trace0 + 0.01, 0.2).Rho, 8.0);

  EXPECT_DOUBLE_EQ(P.EndTime, 0.2);
}

TEST(Problems, ShockBubbleLayout) {
  Problem<2> P = shockBubble2D(50);
  EXPECT_EQ(P.Name, "shock-bubble");
  EXPECT_EQ(P.Domain.cells(0), 100u);
  EXPECT_EQ(P.Domain.cells(1), 50u);

  // Three regions: post-shock inflow, light bubble, quiescent ambient.
  PostShockState Post = postShockState(2.0, 1.0, 1.0, P.G);
  Prim<2> In = P.InitialState({0.1, 0.5});
  EXPECT_NEAR(In.Rho, Post.Rho, 1e-12);
  EXPECT_NEAR(In.Vel[0], Post.U, 1e-12);
  Prim<2> Bubble = P.InitialState({0.8, 0.5});
  EXPECT_DOUBLE_EQ(Bubble.Rho, 0.1387);
  EXPECT_DOUBLE_EQ(Bubble.P, 1.0) << "pressure-matched bubble";
  Prim<2> Ambient = P.InitialState({1.5, 0.1});
  EXPECT_DOUBLE_EQ(Ambient.Rho, 1.0);
  EXPECT_DOUBLE_EQ(Ambient.Vel[0], 0.0);

  // Channel: inflow left, outflow right, walls top and bottom.
  EXPECT_EQ(P.Boundary.Side[boundarySide(0, false)].front().Kind,
            BcKind::Inflow);
  EXPECT_EQ(P.Boundary.Side[boundarySide(0, true)].front().Kind,
            BcKind::Transmissive);
  EXPECT_EQ(P.Boundary.Side[boundarySide(1, false)].front().Kind,
            BcKind::Reflective);
  EXPECT_EQ(P.Boundary.Side[boundarySide(1, true)].front().Kind,
            BcKind::Reflective);
  EXPECT_DOUBLE_EQ(P.EndTime, 0.4);
}

TEST(Problems, SmoothAdvectionExactSolutionsArePeriodic) {
  EXPECT_NEAR(smoothAdvectionDensity1D(0.3, 0.0),
              smoothAdvectionDensity1D(1.3, 0.0), 1e-12);
  EXPECT_NEAR(smoothAdvectionDensity1D(0.3, 1.0),
              smoothAdvectionDensity1D(0.3, 0.0), 1e-12)
      << "period-1 translation";
  EXPECT_NEAR(smoothAdvectionDensity2D(0.2, 0.7, 1.0),
              smoothAdvectionDensity2D(0.2, 0.7, 0.0), 1e-12);
}

TEST(Problems, IsentropicVortexExactFreeStreamFarField) {
  // Far from the core the state approaches the (1,1,1,1) free stream.
  Prim<2> Far = isentropicVortexExact(0.2, 0.2, 0.0); // core at (5,5)
  EXPECT_NEAR(Far.Rho, 1.0, 1e-4);
  EXPECT_NEAR(Far.Vel[0], 1.0, 1e-3);
  EXPECT_NEAR(Far.Vel[1], 1.0, 1e-3);
  EXPECT_NEAR(Far.P, 1.0, 1e-4);

  // At the core center the velocity equals the free stream and the
  // density dips.
  Prim<2> Core = isentropicVortexExact(5.0, 5.0, 0.0);
  EXPECT_NEAR(Core.Vel[0], 1.0, 1e-12);
  EXPECT_NEAR(Core.Vel[1], 1.0, 1e-12);
  EXPECT_LT(Core.Rho, 0.6);
}

TEST(Problems, IsentropicVortexTranslatesWithPeriodicWrap) {
  // After t = 10 the vortex has crossed the periodic box exactly once.
  Prim<2> A = isentropicVortexExact(3.0, 7.0, 0.0);
  Prim<2> B = isentropicVortexExact(3.0, 7.0, 10.0);
  EXPECT_NEAR(A.Rho, B.Rho, 1e-12);
  EXPECT_NEAR(A.Vel[0], B.Vel[0], 1e-12);
  EXPECT_NEAR(A.P, B.P, 1e-12);
}

TEST(Problems, UniformFlowsAreActuallyUniform) {
  Problem<1> P1 = uniformFlow1D(8);
  Problem<2> P2 = uniformFlow2D(8);
  EXPECT_EQ(P1.InitialState({0.1}).Rho, P1.InitialState({0.9}).Rho);
  EXPECT_EQ(P2.InitialState({0.1, 0.2}).P,
            P2.InitialState({0.8, 0.6}).P);
}
