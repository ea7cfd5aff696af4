//===- solver/Problems.cpp - Concrete workload setups ---------------------===//

#include "solver/Problems.h"

#include "euler/RankineHugoniot.h"

#include <cmath>

using namespace sacfd;

namespace {

Prim<1> prim1(double Rho, double U, double P) {
  Prim<1> W;
  W.Rho = Rho;
  W.Vel = {U};
  W.P = P;
  return W;
}

Prim<2> prim2(double Rho, double U, double V, double P) {
  Prim<2> W;
  W.Rho = Rho;
  W.Vel = {U, V};
  W.P = P;
  return W;
}

/// 1D problem on [Lo, Hi] with transmissive ends.
Problem<1> tube(std::string Name, size_t Cells, unsigned Ghost, double Lo,
                double Hi, double EndTime) {
  Problem<1> P;
  P.Name = std::move(Name);
  P.Domain = Grid<1>({Cells}, {Lo}, {Hi}, Ghost);
  P.Boundary = BoundarySpec<1>::uniform(BcKind::Transmissive);
  P.EndTime = EndTime;
  return P;
}

} // namespace

Problem<1> sacfd::sodProblem(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("sod", Cells, GhostLayers, 0.0, 1.0, 0.2);
  P.InitialState = [](const std::array<double, 1> &X) {
    return X[0] < 0.5 ? prim1(1.0, 0.0, 1.0) : prim1(0.125, 0.0, 0.1);
  };
  return P;
}

Problem<1> sacfd::laxProblem(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("lax", Cells, GhostLayers, 0.0, 1.0, 0.13);
  P.InitialState = [](const std::array<double, 1> &X) {
    return X[0] < 0.5 ? prim1(0.445, 0.698, 3.528)
                      : prim1(0.5, 0.0, 0.571);
  };
  return P;
}

Problem<1> sacfd::shuOsherProblem(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("shu-osher", Cells, GhostLayers, -5.0, 5.0, 1.8);
  P.InitialState = [](const std::array<double, 1> &X) {
    if (X[0] < -4.0)
      return prim1(3.857143, 2.629369, 10.33333);
    return prim1(1.0 + 0.2 * std::sin(5.0 * X[0]), 0.0, 1.0);
  };
  return P;
}

Problem<1> sacfd::blastWavesProblem(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("blast-waves", Cells, GhostLayers, 0.0, 1.0, 0.038);
  P.Boundary = BoundarySpec<1>::uniform(BcKind::Reflective);
  P.InitialState = [](const std::array<double, 1> &X) {
    if (X[0] < 0.1)
      return prim1(1.0, 0.0, 1000.0);
    if (X[0] > 0.9)
      return prim1(1.0, 0.0, 100.0);
    return prim1(1.0, 0.0, 0.01);
  };
  return P;
}

Problem<1> sacfd::movingContactProblem(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("moving-contact", Cells, GhostLayers, 0.0, 1.0, 0.2);
  P.InitialState = [](const std::array<double, 1> &X) {
    return X[0] < 0.4 ? prim1(2.0, 1.0, 1.0) : prim1(1.0, 1.0, 1.0);
  };
  return P;
}

Problem<1> sacfd::uniformFlow1D(size_t Cells, unsigned GhostLayers) {
  Problem<1> P = tube("uniform-1d", Cells, GhostLayers, 0.0, 1.0, 1.0);
  P.InitialState = [](const std::array<double, 1> &) {
    return prim1(1.0, 0.5, 1.0);
  };
  return P;
}

Problem<2> sacfd::shockInteraction2D(size_t Cells, double Ms,
                                     double ChannelWidth,
                                     unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "shock-interaction-2d";
  double H = ChannelWidth;
  P.Domain = Grid<2>::square(Cells, 2.0 * H, GhostLayers);

  // Quiescent gas fills the domain at t = 0.
  Prim<2> Quiescent = prim2(1.0, 0.0, 0.0, 1.0);
  P.InitialState = [Quiescent](const std::array<double, 2> &) {
    return Quiescent;
  };

  // Axis convention: storage axis 0 is x (the left/right sides), axis 1
  // is y (the bottom/top sides).  Tangential coordinate of the left side
  // is y; of the bottom side is x.
  const Gas &G = P.G;
  Cons<2> FromLeft = toCons(postShockInflow(Ms, Quiescent, 0, G), G);
  Cons<2> FromBottom = toCons(postShockInflow(Ms, Quiescent, 1, G), G);

  // Left boundary: channel exit on y in [0, h), solid wall above.
  BcSegment<2> LeftExit;
  LeftExit.Kind = BcKind::Inflow;
  LeftExit.InflowState = FromLeft;
  LeftExit.TangentialLo = 0.0;
  LeftExit.TangentialHi = H;
  BcSegment<2> LeftWall;
  LeftWall.Kind = BcKind::Reflective;
  LeftWall.TangentialLo = H;
  LeftWall.TangentialHi = std::numeric_limits<double>::infinity();
  P.Boundary.Side[boundarySide(0, false)] = {LeftExit, LeftWall};

  // Bottom boundary: channel exit on x in [0, h), solid wall right of it.
  BcSegment<2> BottomExit;
  BottomExit.Kind = BcKind::Inflow;
  BottomExit.InflowState = FromBottom;
  BottomExit.TangentialLo = 0.0;
  BottomExit.TangentialHi = H;
  BcSegment<2> BottomWall;
  BottomWall.Kind = BcKind::Reflective;
  BottomWall.TangentialLo = H;
  BottomWall.TangentialHi = std::numeric_limits<double>::infinity();
  P.Boundary.Side[boundarySide(1, false)] = {BottomExit, BottomWall};

  // Open right and top boundaries (waves leave the domain).
  BcSegment<2> Open;
  Open.Kind = BcKind::Transmissive;
  P.Boundary.setSide(boundarySide(0, true), Open);
  P.Boundary.setSide(boundarySide(1, true), Open);

  // Time for the primary shocks to cross ~half the domain.
  double ShockSpeed = Ms * P.G.soundSpeed(Quiescent.Rho, Quiescent.P);
  P.EndTime = H / ShockSpeed;
  return P;
}

Problem<2> sacfd::riemann2D(size_t CellsPerAxis, unsigned GhostLayers,
                            unsigned Configuration) {
  Problem<2> P;
  P.Name = "riemann-2d-c" + std::to_string(Configuration);
  P.Domain = Grid<2>::square(CellsPerAxis, 1.0, GhostLayers);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Transmissive);

  // Quadrant states ordered NE, NW, SW, SE (Lax-Liu numbering).
  struct Quadrants {
    Prim<2> NE, NW, SW, SE;
    double EndTime;
  };
  Quadrants Q;
  switch (Configuration) {
  case 3: // four shocks, the classic mushroom-jet case
    Q.NE = prim2(1.5, 0.0, 0.0, 1.5);
    Q.NW = prim2(0.5323, 1.206, 0.0, 0.3);
    Q.SW = prim2(0.138, 1.206, 1.206, 0.029);
    Q.SE = prim2(0.5323, 0.0, 1.206, 0.3);
    Q.EndTime = 0.3;
    break;
  case 6: // four contacts rolling into a spiral
    Q.NE = prim2(1.0, 0.75, -0.5, 1.0);
    Q.NW = prim2(2.0, 0.75, 0.5, 1.0);
    Q.SW = prim2(1.0, -0.75, 0.5, 1.0);
    Q.SE = prim2(3.0, -0.75, -0.5, 1.0);
    Q.EndTime = 0.3;
    break;
  case 12: // two shocks (N/E faces) + two contacts
    Q.NE = prim2(0.5313, 0.0, 0.0, 0.4);
    Q.NW = prim2(1.0, 0.7276, 0.0, 1.0);
    Q.SW = prim2(0.8, 0.0, 0.0, 1.0);
    Q.SE = prim2(1.0, 0.0, 0.7276, 1.0);
    Q.EndTime = 0.25;
    break;
  case 4:
  default: // four shocks, diagonal-symmetric
    Q.NE = prim2(1.1, 0.0, 0.0, 1.1);
    Q.NW = prim2(0.5065, 0.8939, 0.0, 0.35);
    Q.SW = prim2(1.1, 0.8939, 0.8939, 1.1);
    Q.SE = prim2(0.5065, 0.0, 0.8939, 0.35);
    Q.EndTime = 0.25;
    break;
  }

  P.InitialState = [Q](const std::array<double, 2> &X) {
    bool Right = X[0] >= 0.5;
    bool Top = X[1] >= 0.5;
    if (Right && Top)
      return Q.NE;
    if (!Right && Top)
      return Q.NW;
    if (!Right && !Top)
      return Q.SW;
    return Q.SE;
  };
  P.EndTime = Q.EndTime;
  return P;
}

Problem<2> sacfd::sedovBlast2D(size_t CellsPerAxis, unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "sedov";
  P.Domain = Grid<2>({CellsPerAxis, CellsPerAxis}, {-0.5, -0.5},
                     {0.5, 0.5}, GhostLayers);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Transmissive);
  // Total blast energy 1 deposited as pressure in a disc of radius 0.1:
  // p = (gamma - 1) E / (pi r0^2).  The ambient pressure is small but
  // finite so the pre-shock sound speed stays representable.
  double Gamma = P.G.Gamma;
  double R0 = 0.1;
  double PIn = (Gamma - 1.0) * 1.0 / (M_PI * R0 * R0);
  P.InitialState = [R0, PIn](const std::array<double, 2> &X) {
    double R2 = X[0] * X[0] + X[1] * X[1];
    return prim2(1.0, 0.0, 0.0, R2 < R0 * R0 ? PIn : 0.01);
  };
  P.EndTime = 0.1; // shock reaches ~80% of the half-width
  return P;
}

Problem<2> sacfd::doubleMachReflection(size_t CellsPerUnit,
                                       unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "double-mach";
  P.Domain = Grid<2>({4 * CellsPerUnit, CellsPerUnit}, {0.0, 0.0},
                     {4.0, 1.0}, GhostLayers);

  // Mach 10 shock at 60 degrees to the wall.  Pre-shock gas (1.4, 0, 0,
  // 1); the post-shock state follows from the Rankine-Hugoniot relations
  // with the velocity rotated onto the shock normal.
  const double Sqrt3 = std::sqrt(3.0);
  const double X0 = 1.0 / 6.0; // foot of the shock / start of the wall
  Prim<2> Pre = prim2(1.4, 0.0, 0.0, 1.0);
  Prim<2> Post = prim2(8.0, 8.25 * Sqrt3 / 2.0, -8.25 * 0.5, 116.5);
  const Gas &G = P.G;
  Cons<2> PreC = toCons(Pre, G);
  Cons<2> PostC = toCons(Post, G);

  // Initial shock line: x = x0 + y / sqrt(3).
  P.InitialState = [Pre, Post, X0, Sqrt3](const std::array<double, 2> &X) {
    return X[0] < X0 + X[1] / Sqrt3 ? Post : Pre;
  };

  // Left: frozen post-shock inflow.  Right: outflow.
  BcSegment<2> Left;
  Left.Kind = BcKind::Inflow;
  Left.InflowState = PostC;
  P.Boundary.setSide(boundarySide(0, false), Left);
  BcSegment<2> Right;
  Right.Kind = BcKind::Transmissive;
  P.Boundary.setSide(boundarySide(0, true), Right);

  // Bottom: post-shock inflow ahead of the wall start, reflecting wall
  // from x0 on.
  BcSegment<2> BottomPost;
  BottomPost.Kind = BcKind::Inflow;
  BottomPost.InflowState = PostC;
  BottomPost.TangentialLo = -std::numeric_limits<double>::infinity();
  BottomPost.TangentialHi = X0;
  BcSegment<2> BottomWall;
  BottomWall.Kind = BcKind::Reflective;
  BottomWall.TangentialLo = X0;
  BottomWall.TangentialHi = std::numeric_limits<double>::infinity();
  P.Boundary.Side[boundarySide(1, false)] = {BottomPost, BottomWall};

  // Top: the exact shock trace x_s(t) = x0 + (1 + 20 t) / sqrt(3) at
  // y = 1 — post-shock to its left, pre-shock to its right.  The shock
  // speed along the top is 10 c_pre / sin(60), i.e. ds/dt = 20 / sqrt(3)
  // with c_pre = sqrt(gamma p / rho) = 1.
  BcSegment<2> Top;
  Top.Kind = BcKind::Prescribed;
  Top.StateAt = [PreC, PostC, X0, Sqrt3](double Tangential, double Time) {
    double ShockX = X0 + (1.0 + 20.0 * Time) / Sqrt3;
    return Tangential < ShockX ? PostC : PreC;
  };
  P.Boundary.setSide(boundarySide(1, true), Top);

  P.EndTime = 0.2;
  return P;
}

Problem<2> sacfd::shockBubble2D(size_t CellsPerUnit, unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "shock-bubble";
  P.Domain = Grid<2>({2 * CellsPerUnit, CellsPerUnit}, {0.0, 0.0},
                     {2.0, 1.0}, GhostLayers);

  Prim<2> Quiescent = prim2(1.0, 0.0, 0.0, 1.0);
  Prim<2> Post = postShockInflow(2.0, Quiescent, 0, P.G);
  const double ShockX = 0.25;
  const double BubbleX = 0.8, BubbleY = 0.5, BubbleR = 0.2;
  const double BubbleRho = 0.1387; // helium-like density contrast

  P.InitialState = [=](const std::array<double, 2> &X) {
    if (X[0] < ShockX)
      return Post;
    double Dx = X[0] - BubbleX, Dy = X[1] - BubbleY;
    if (Dx * Dx + Dy * Dy < BubbleR * BubbleR)
      return prim2(BubbleRho, 0.0, 0.0, 1.0);
    return Quiescent;
  };

  // Left: frozen post-shock inflow.  Right: outflow.  Channel walls top
  // and bottom.
  BcSegment<2> Left;
  Left.Kind = BcKind::Inflow;
  Left.InflowState = toCons(Post, P.G);
  P.Boundary.setSide(boundarySide(0, false), Left);
  BcSegment<2> Right;
  Right.Kind = BcKind::Transmissive;
  P.Boundary.setSide(boundarySide(0, true), Right);
  BcSegment<2> Wall;
  Wall.Kind = BcKind::Reflective;
  P.Boundary.setSide(boundarySide(1, false), Wall);
  P.Boundary.setSide(boundarySide(1, true), Wall);

  P.EndTime = 0.4; // shock crosses the bubble and the wake develops
  return P;
}

double sacfd::smoothAdvectionDensity1D(double X, double T) {
  return 1.0 + 0.2 * std::sin(2.0 * M_PI * (X - T));
}

double sacfd::smoothAdvectionDensity2D(double X, double Y, double T) {
  return 1.0 + 0.2 * std::sin(2.0 * M_PI * (X - T)) *
                   std::sin(2.0 * M_PI * (Y - T));
}

Problem<1> sacfd::smoothAdvectionProblem(size_t Cells,
                                         unsigned GhostLayers) {
  Problem<1> P = tube("smooth-advection", Cells, GhostLayers, 0.0, 1.0,
                      1.0);
  P.Boundary = BoundarySpec<1>::uniform(BcKind::Periodic);
  P.InitialState = [](const std::array<double, 1> &X) {
    return prim1(smoothAdvectionDensity1D(X[0], 0.0), 1.0, 1.0);
  };
  return P;
}

Problem<2> sacfd::smoothAdvection2D(size_t CellsPerAxis,
                                    unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "smooth-advection-2d";
  P.Domain = Grid<2>::square(CellsPerAxis, 1.0, GhostLayers);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Periodic);
  P.InitialState = [](const std::array<double, 2> &X) {
    return prim2(smoothAdvectionDensity2D(X[0], X[1], 0.0), 1.0, 1.0,
                 1.0);
  };
  P.EndTime = 1.0;
  return P;
}

Problem<2> sacfd::uniformFlow2D(size_t CellsPerAxis, unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "uniform-2d";
  P.Domain = Grid<2>::square(CellsPerAxis, 1.0, GhostLayers);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Transmissive);
  P.InitialState = [](const std::array<double, 2> &) {
    return prim2(1.0, 0.3, -0.2, 1.0);
  };
  P.EndTime = 1.0;
  return P;
}

Prim<2> sacfd::isentropicVortexExact(double X, double Y, double T) {
  constexpr double Gam = 1.4;
  constexpr double Beta = 5.0;
  constexpr double L = 10.0; // box extent
  // Vortex center translates at (1, 1) from (5, 5); wrap periodically.
  double Xc = std::fmod(5.0 + T, L);
  double Yc = std::fmod(5.0 + T, L);
  // Nearest periodic image offsets.
  double Dx = X - Xc;
  double Dy = Y - Yc;
  if (Dx > 0.5 * L)
    Dx -= L;
  if (Dx < -0.5 * L)
    Dx += L;
  if (Dy > 0.5 * L)
    Dy -= L;
  if (Dy < -0.5 * L)
    Dy += L;

  double R2 = Dx * Dx + Dy * Dy;
  double Factor = Beta / (2.0 * M_PI) * std::exp(0.5 * (1.0 - R2));
  double DT = -(Gam - 1.0) * Beta * Beta /
              (8.0 * Gam * M_PI * M_PI) * std::exp(1.0 - R2);
  double Temp = 1.0 + DT;

  Prim<2> W;
  W.Rho = std::pow(Temp, 1.0 / (Gam - 1.0));
  W.Vel = {1.0 - Factor * Dy, 1.0 + Factor * Dx};
  W.P = std::pow(Temp, Gam / (Gam - 1.0));
  return W;
}

Problem<2> sacfd::isentropicVortex2D(size_t CellsPerAxis,
                                     unsigned GhostLayers) {
  Problem<2> P;
  P.Name = "isentropic-vortex";
  P.Domain = Grid<2>::square(CellsPerAxis, 10.0, GhostLayers);
  P.Boundary = BoundarySpec<2>::uniform(BcKind::Periodic);
  P.InitialState = [](const std::array<double, 2> &X) {
    return isentropicVortexExact(X[0], X[1], 0.0);
  };
  P.EndTime = 10.0; // one full periodic transit
  return P;
}
