//===- solver/Problems.h - Concrete workload setups ------------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two experiments plus the standard gas-dynamics test
/// problems used for validation and the extra examples:
///
///   sodProblem            the paper's 1D experiment (Fig. 1)
///   shockInteraction2D    the paper's 2D experiment (Figs. 2/3 and the
///                         Fig. 4 benchmark configuration)
///   laxProblem, shuOsherProblem, blastWavesProblem, movingContactProblem
///                         classical 1D validation cases
///   riemann2D             a four-quadrant 2D Riemann problem
///   uniformFlow           free-stream preservation check
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_PROBLEMS_H
#define SACFD_SOLVER_PROBLEMS_H

#include "solver/Problem.h"

namespace sacfd {

/// Sod's shock tube [16] on [0, 1], diaphragm at 0.5: top state
/// (1, 0, 1), bottom state (0.125, 0, 0.1); run to t = 0.2.
Problem<1> sodProblem(size_t Cells, unsigned GhostLayers = 2);

/// Lax's shock tube on [0, 1]: (0.445, 0.698, 3.528) | (0.5, 0, 0.571);
/// run to t = 0.13.
Problem<1> laxProblem(size_t Cells, unsigned GhostLayers = 2);

/// Shu-Osher shock/entropy-wave interaction on [-5, 5]; run to t = 1.8.
Problem<1> shuOsherProblem(size_t Cells, unsigned GhostLayers = 2);

/// Woodward-Colella interacting blast waves on [0, 1] between reflecting
/// walls; run to t = 0.038.
Problem<1> blastWavesProblem(size_t Cells, unsigned GhostLayers = 2);

/// An isolated contact discontinuity advecting at u = 1 (tests contact
/// preservation); run to t = 0.2.
Problem<1> movingContactProblem(size_t Cells, unsigned GhostLayers = 2);

/// The paper's 2D configuration (Fig. 2): a 2h x 2h quiescent box;
/// shocks of Mach number \p Ms exhaust from two channels of width h —
/// the lower half of the left boundary and the left half of the bottom
/// boundary — with solid walls on the rest of those sides and open
/// right/top boundaries.  Post-shock inflow states come from the
/// Rankine-Hugoniot relations (supersonic for Ms = 2.2, so they stay
/// frozen).  h = 200 in the paper's units; \p Cells is per axis (the
/// paper uses 400 and 2000).
Problem<2> shockInteraction2D(size_t Cells, double Ms = 2.2,
                              double ChannelWidth = 200.0,
                              unsigned GhostLayers = 2);

/// Four-quadrant 2D Riemann problems of Schulz-Rinne/Lax-Liu on
/// [0, 1]^2.  Supported configurations:
///   3   four shocks, the classic mushroom-jet case (run to t = 0.3)
///   4   four shocks, diagonal-symmetric (default; run to t = 0.25)
///   6   four contacts forming a spiral (run to t = 0.3)
///   12  two shocks + two contacts (run to t = 0.25)
Problem<2> riemann2D(size_t CellsPerAxis, unsigned GhostLayers = 2,
                     unsigned Configuration = 4);

/// Sedov-style cylindrical blast on [-0.5, 0.5]^2: unit-density gas with
/// a finite-energy hot disc of radius 0.1 at the origin driving a
/// radially expanding shock into a cold ambient; run to t = 0.1.  The
/// diverging-shock positivity workload of the gallery.
Problem<2> sedovBlast2D(size_t CellsPerAxis, unsigned GhostLayers = 2);

/// Woodward-Colella double Mach reflection: a Mach 10 shock inclined 60
/// degrees to a reflecting wall that starts at x = 1/6, on [0, 4] x
/// [0, 1] (\p CellsPerUnit cells per unit length, so the grid is
/// 4N x N); run to t = 0.2.  The top boundary prescribes the exact
/// moving-shock trace as a time-dependent state — the workload that
/// forces BcKind::Prescribed.
Problem<2> doubleMachReflection(size_t CellsPerUnit,
                                unsigned GhostLayers = 2);

/// Shock-bubble interaction on [0, 2] x [0, 1]: a Mach 2 planar shock
/// (initially at x = 0.25) sweeps over a low-density circular bubble at
/// (0.8, 0.5), radius 0.2, between reflecting channel walls; run to
/// t = 0.4.  \p CellsPerUnit cells per unit length (grid 2N x N).
Problem<2> shockBubble2D(size_t CellsPerUnit, unsigned GhostLayers = 2);

/// Uniform free stream in \p Dim dimensions (any scheme must preserve it
/// to round-off).
Problem<1> uniformFlow1D(size_t Cells, unsigned GhostLayers = 2);
Problem<2> uniformFlow2D(size_t CellsPerAxis, unsigned GhostLayers = 2);

/// Smooth density wave rho = 1 + 0.2 sin(2 pi x) advecting at u = 1 with
/// constant pressure on periodic [0, 1]: the exact solution translates,
/// so this is the convergence-order workload.  Ghost default 3 so WENO5
/// runs too.
Problem<1> smoothAdvectionProblem(size_t Cells, unsigned GhostLayers = 3);

/// 2D variant advecting diagonally at (1, 1) on periodic [0, 1]^2.
Problem<2> smoothAdvection2D(size_t CellsPerAxis, unsigned GhostLayers = 3);

/// Exact density of the smooth-advection solution at (x..., t).
double smoothAdvectionDensity1D(double X, double T);
double smoothAdvectionDensity2D(double X, double Y, double T);

/// Isentropic vortex (Shu) advecting diagonally across a periodic
/// [0, 10]^2 box at free-stream (1, 1): a smooth 2D exact solution of
/// the full Euler system, the standard multi-dimensional order test.
Problem<2> isentropicVortex2D(size_t CellsPerAxis,
                              unsigned GhostLayers = 3);

/// Exact primitive state of the isentropic vortex at (x, y, t)
/// (periodic wrap of the translating vortex).
Prim<2> isentropicVortexExact(double X, double Y, double T);

} // namespace sacfd

#endif // SACFD_SOLVER_PROBLEMS_H
