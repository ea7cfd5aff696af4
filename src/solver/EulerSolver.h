//===- solver/EulerSolver.h - Solver engine interface ----------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common driver for the two solver engines under comparison.
///
/// ArraySolver (the SaC port) and FusedSolver (the Fortran original) are
/// two implementations of the same numerical method; both derive from
/// EulerSolver, which owns the field, the clock and the step loop.  The
/// engines implement computeDt() (the GetDT kernel) and stepWithDt() (one
/// full multi-stage time step).  For identical scheme settings the two
/// engines produce bit-identical fields — the executable form of the
/// paper's claim that the SaC code is a faithful port.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_EULERSOLVER_H
#define SACFD_SOLVER_EULERSOLVER_H

#include "array/FieldPool.h"
#include "array/NDArray.h"
#include "runtime/Backend.h"
#include "solver/Field.h"
#include "solver/Problem.h"
#include "solver/SchemeConfig.h"
#include "support/Error.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

namespace sacfd {

/// True when the interval [Now, EndTime] is below the rounding noise of
/// the solver clock — smaller than a few ulps of Now.  Stepping through
/// such a remainder grinds out denormal-sized dt values (and
/// `Time += Dt` may not even change Time, looping forever); callers snap
/// the clock onto EndTime instead.
inline bool stepRemainderNegligible(double Now, double EndTime) {
  return EndTime - Now <
         4.0 * std::numeric_limits<double>::epsilon() *
             std::max(std::abs(Now), 1.0);
}

/// Domain integrals of the conserved variables (the conservation laws'
/// invariants on closed/periodic domains).
template <unsigned Dim> struct ConservedTotals {
  double Mass = 0.0;
  std::array<double, Dim> Momentum = {};
  double Energy = 0.0;
};

/// Abstract Euler solver: owns the field and the time loop; engines
/// supply the per-step numerics.
template <unsigned Dim> class EulerSolver {
  // The paper's runs are 1D and 2D; the line decomposition and the
  // kernels are instantiated for those ranks only.
  static_assert(Dim == 1 || Dim == 2, "solvers are 1D or 2D");

public:
  EulerSolver(Problem<Dim> Prob, SchemeConfig Scheme, Backend &Exec,
              bool Simd = true)
      : Prob(std::move(Prob)), Scheme(Scheme), Exec(Exec),
        U(Pool, this->Prob.Domain.storageShape()), SimdEnabled(Simd) {
    // The face kernels load the scheme's whole stencil reach from the
    // ghost layers; fewer layers would read outside the field.
    if (this->Prob.Domain.ghost() < ghostCells(Scheme.Recon))
      sacfdUnreachable("grid ghost layers insufficient for the "
                       "reconstruction");
    const Grid<Dim> &G = this->Prob.Domain;
    Shape Storage = G.storageShape();
    for (unsigned A = 0; A < Dim; ++A)
      N[A] = G.cells(A);
    // Row-major strides.
    StorageStride[Dim - 1] = 1;
    InteriorStride[Dim - 1] = 1;
    for (unsigned A = Dim - 1; A-- > 0;) {
      StorageStride[A] = StorageStride[A + 1] * Storage.dim(A + 1);
      InteriorStride[A] = InteriorStride[A + 1] * N[A + 1];
    }
    Ng = G.ghost();
    initializeField();
  }
  virtual ~EulerSolver() = default;

  EulerSolver(const EulerSolver &) = delete;
  EulerSolver &operator=(const EulerSolver &) = delete;

  const Problem<Dim> &problem() const { return Prob; }
  const SchemeConfig &scheme() const { return Scheme; }
  Backend &backend() { return Exec; }

  double time() const { return Time; }
  unsigned stepCount() const { return Steps; }

  /// Result of the last GetDT reduction (0 before the first computeDt).
  /// The shard coordinator reduces these across shards to form the
  /// global CFL step.
  double lastMaxEigen() const { return LastMaxEigen; }

  /// Called at the top of every ghost fill, before the boundary
  /// conditions are applied (shard halo exchange: neighbor interiors
  /// land in the axis-0 ghost rows, then the physical BC pass fills the
  /// remaining sides — BcKind::Halo sides are left untouched by it).
  using GhostFillHook = std::function<void(Field<Dim> &U, double Time)>;

  /// Installs \p Hook; pass an empty function to remove it.  The hook
  /// runs on the driving thread once per stage fill.
  void setGhostFillHook(GhostFillHook Hook) { GhostHook = std::move(Hook); }

  /// The full field including ghost cells (shape == storageShape()).
  /// Element access goes through Field::at()/set(); bulk transfers
  /// through Field::exportTo()/importFrom().
  const Field<Dim> &field() const { return U; }
  Field<Dim> &field() { return U; }

  /// Whether stage kernels may use the vectorized build.
  bool simdEnabled() const { return SimdEnabled; }

  /// Primitive state of interior cell \p Interior.
  Prim<Dim> primitiveAt(const Index &Interior) const {
    return toPrim(U.at(Prob.Domain.toStorage(Interior)), Prob.G);
  }

  /// Integrates Q over the interior (sum times cell volume).  One serial
  /// row-major walk over the SoA planes, so the totals are bit-identical
  /// across backends and worker counts.
  ConservedTotals<Dim> conservedTotals() const {
    constexpr unsigned LineAxis = Dim - 1;
    ConservedTotals<Dim> T;
    for (size_t Line = 0, Lines = lineCount(LineAxis); Line != Lines;
         ++Line) {
      kernels::ConstRun<Dim> R = U.crun(lineStorageBase(LineAxis, Line));
      for (size_t I = 0; I != N[LineAxis]; ++I) {
        T.Mass += R.C[0][I];
        for (unsigned A = 0; A < Dim; ++A)
          T.Momentum[A] += R.C[1 + A][I];
        T.Energy += R.C[Dim + 1][I];
      }
    }
    double Volume = 1.0;
    for (unsigned A = 0; A < Dim; ++A)
      Volume *= Prob.Domain.dx(A);
    T.Mass *= Volume;
    for (unsigned A = 0; A < Dim; ++A)
      T.Momentum[A] *= Volume;
    T.Energy *= Volume;
    return T;
  }

  /// CFL-limited time step of the current field (the GetDT kernel).
  virtual double computeDt() = 0;

  /// Advances one step with the CFL time step.  \returns the dt taken.
  double advance() {
    double Dt = computeDt();
    stepWithDt(Dt);
    Time += Dt;
    ++Steps;
    recordStepTelemetry(Dt);
    return Dt;
  }

  /// Advances one step with a caller-chosen dt (the step-guard retry loop
  /// drives this with scaled/clamped steps).  \returns the dt taken.
  double advanceWithDt(double Dt) {
    stepWithDt(Dt);
    Time += Dt;
    ++Steps;
    recordStepTelemetry(Dt);
    return Dt;
  }

  /// Advances exactly \p N steps (the paper's fixed-step benchmark loop).
  void advanceSteps(unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      advance();
  }

  /// Advances until \p EndTime, clamping the final step onto it.  A
  /// remainder below clock rounding noise is snapped rather than stepped
  /// (see stepRemainderNegligible) so adversarial end times cannot grind
  /// the loop through denormal-sized steps.
  void advanceTo(double EndTime) {
    while (Time < EndTime) {
      if (stepRemainderNegligible(Time, EndTime)) {
        // Snap through restoreClock, not a bare assignment: engines cache
        // state keyed on the clock (the DAG GetDT cache), and Prescribed
        // boundary segments read the clock — both must observe the snap
        // exactly like a checkpoint-resume overwrite.
        restoreClock(EndTime, Steps);
        break;
      }
      double Dt = std::min(computeDt(), EndTime - Time);
      stepWithDt(Dt);
      Time += Dt;
      ++Steps;
      recordStepTelemetry(Dt);
    }
  }

  /// Engine name for reports ("array" / "fused").
  virtual const char *engineName() const = 0;

  /// Overwrites the solver clock; checkpoint-restore hook (the field is
  /// restored through the mutable field() accessor).  Fires
  /// onClockRestored() so engines can drop any state derived from the
  /// pre-restore field (e.g. a cached GetDT result).
  void restoreClock(double NewTime, unsigned NewSteps) {
    Time = NewTime;
    Steps = NewSteps;
    onClockRestored();
  }

  /// The solver's buffer arena.  Engines lease every stage temporary from
  /// here; the step guard leases its rollback snapshot from it too, so the
  /// guard must not outlive the solver.
  FieldPool &fieldPool() { return Pool; }

protected:
  /// One full multi-stage step with the given dt.
  virtual void stepWithDt(double Dt) = 0;

  /// The per-stage ghost fill both engines call: the ghost-fill hook
  /// first (halo exchange), then the physical boundary conditions.  All
  /// engine step modes route their applyBoundaries calls through here so
  /// a sharded sub-solver exchanges halos exactly once per stage.
  void fillGhosts(double FillTime) {
    if (GhostHook)
      GhostHook(U, FillTime);
    applyBoundaries(U, Prob.Domain, Prob.Boundary, Exec, FillTime);
  }

  /// Line decomposition shared by the engines and the kernel routing: a
  /// "line" is a run of interior cells along \p Axis; contiguous in
  /// storage when Axis is the last (row-major) axis.

  /// Number of tangential lines perpendicular to \p Axis.
  size_t lineCount(unsigned Axis) const {
    size_t Count = 1;
    for (unsigned A = 0; A < Dim; ++A)
      if (A != Axis)
        Count *= N[A];
    return Count;
  }

  /// Storage offset of interior cell 0 of tangential line \p Line along
  /// \p Axis.
  size_t lineStorageBase(unsigned Axis, size_t Line) const {
    size_t Base = 0;
    // Decompose Line over the tangential axes in row-major order.
    for (unsigned A = Dim; A-- > 0;) {
      if (A == Axis)
        continue;
      size_t Coord = Line % N[A];
      Line /= N[A];
      Base += (Coord + Ng) * StorageStride[A];
    }
    Base += Ng * StorageStride[Axis];
    return Base;
  }

  /// Interior (residual) offset of cell 0 of the same line.
  size_t lineInteriorBase(unsigned Axis, size_t Line) const {
    size_t Base = 0;
    for (unsigned A = Dim; A-- > 0;) {
      if (A == Axis)
        continue;
      size_t Coord = Line % N[A];
      Line /= N[A];
      Base += Coord * InteriorStride[A];
    }
    return Base;
  }

  /// Fluxes of \p Count consecutive faces normal to \p Axis into \p F.
  /// Lane i's face has its right-hand cell at storage offset RCell + i
  /// (lanes run along the contiguous last axis) and its left-hand cell
  /// one \p Axis stride below.  Piecewise-constant reconstruction hands
  /// the two adjacent cell runs straight to the Riemann kernel; every
  /// other scheme first reconstructs the face states into the scratch
  /// rows \p Ls / \p Rs.  Per face the result is bit-identical to
  /// numericalFlux(reconstructFaceStates(...)) on the face's stencil.
  void faceFluxRow(unsigned Axis, size_t RCell, const kernels::Run<Dim> &F,
                   const kernels::Run<Dim> &Ls, const kernels::Run<Dim> &Rs,
                   size_t Count) const {
    const std::ptrdiff_t AxisStride =
        static_cast<std::ptrdiff_t>(StorageStride[Axis]);
    kernels::ConstRun<Dim> R = U.crun(RCell);
    if (Scheme.Recon == ReconstructionKind::PiecewiseConstant) {
      kernels::fluxFaces<Dim>(kernels::advance(R, -AxisStride), R, F, Prob.G,
                              Axis, Scheme.Riemann, Count, SimdEnabled);
      return;
    }
    kernels::reconstructFaces<Dim>(R, AxisStride, Ls, Rs, Prob.G, Axis,
                                   Scheme.Recon, Scheme.Limiter, Scheme.Vars,
                                   Count, SimdEnabled);
    kernels::fluxFaces<Dim>(Ls, Rs, F, Prob.G, Axis, Scheme.Riemann, Count,
                            SimdEnabled);
  }

  /// Called whenever restoreClock rewinds or overwrites the clock (step-
  /// guard rollback, checkpoint resume, end-time snapping).  Engines that
  /// cache anything derived from the field state must invalidate it here.
  virtual void onClockRestored() {}

  /// Engines route their GetDT reduction result through this instead of
  /// SchemeConfig::dtFromMaxEigen directly, so the max eigenvalue is
  /// remembered for the "step.max_eigen" telemetry gauge.
  double dtFromMaxEigen(double EvMax) {
    LastMaxEigen = EvMax;
    return Scheme.dtFromMaxEigen(EvMax);
  }

  /// Feeds the "solver.steps" counter and, at the configured gauge
  /// stride, the per-step gauges: dt, the GetDT max eigenvalue, and the
  /// conserved totals (mass, momentum per axis, energy) whose drift is
  /// the conservation regression's measurement channel.
  void recordStepTelemetry(double Dt) {
    if (!telemetry::enabled())
      return;
    static const unsigned StepsTaken = telemetry::counterId("solver.steps");
    telemetry::addCounter(StepsTaken);
    if (!telemetry::gaugeDue(Steps))
      return;
    static const unsigned GaugeDt = telemetry::gaugeId("step.dt");
    static const unsigned GaugeEv = telemetry::gaugeId("step.max_eigen");
    static const unsigned GaugeMass = telemetry::gaugeId("step.mass");
    static const unsigned GaugeEnergy = telemetry::gaugeId("step.energy");
    static const std::array<unsigned, Dim> GaugeMom = [] {
      std::array<unsigned, Dim> Ids{};
      for (unsigned A = 0; A < Dim; ++A) {
        std::string Name = "step.momentum" + std::to_string(A);
        Ids[A] = telemetry::gaugeId(Name.c_str());
      }
      return Ids;
    }();

    telemetry::recordGauge(GaugeDt, Steps, Dt);
    telemetry::recordGauge(GaugeEv, Steps, LastMaxEigen);

    ConservedTotals<Dim> T = conservedTotals();
    telemetry::recordGauge(GaugeMass, Steps, T.Mass);
    for (unsigned A = 0; A < Dim; ++A)
      telemetry::recordGauge(GaugeMom[A], Steps, T.Momentum[A]);
    telemetry::recordGauge(GaugeEnergy, Steps, T.Energy);

    // Pool stats are a pure function of the step structure (acquisitions
    // happen only on the driving thread), so these gauges stay
    // bit-identical across backends and worker counts.
    Pool.recordTelemetry(Steps);
  }

  void initializeField() {
    const Grid<Dim> &G = Prob.Domain;
    Shape Interior = G.interiorShape();
    Index Iv = Interior.delinearize(0);
    // One run over the whole field, built once: the per-cell set() would
    // rebuild the plane pointers around every opaque InitialState call.
    kernels::Run<Dim> All = U.run();
    if (Interior.count() > 0) {
      do {
        std::array<double, Dim> X;
        for (unsigned A = 0; A < Dim; ++A)
          X[A] = G.cellCenter(A, Iv.Coord[A]);
        kernels::storeCons<Dim>(All, U.shape().linearize(G.toStorage(Iv)),
                                toCons(Prob.InitialState(X), Prob.G));
      } while (Interior.increment(Iv));
    }
    applyBoundaries(U, G, Prob.Boundary, Exec, Time);
  }

  Problem<Dim> Prob;
  SchemeConfig Scheme;
  Backend &Exec;
  /// Declared before U and before any derived-class lease members: leases
  /// (destroyed in derived destructors, before this) return their buffers
  /// here, so the pool must be destroyed last.
  FieldPool Pool;
  Field<Dim> U;
  /// Stage kernels dispatch into the vectorized TU when set (the
  /// --no-simd ablation clears it).
  bool SimdEnabled = true;
  /// Cached grid geometry for the line decomposition.
  size_t N[Dim] = {};
  size_t StorageStride[Dim] = {};
  size_t InteriorStride[Dim] = {};
  unsigned Ng = 0;
  double Time = 0.0;
  unsigned Steps = 0;
  /// Result of the last GetDT reduction (0 until computeDt runs).
  double LastMaxEigen = 0.0;
  /// Optional pre-BC ghost fill (shard halo exchange); empty by default.
  GhostFillHook GhostHook;
};

} // namespace sacfd

#endif // SACFD_SOLVER_EULERSOLVER_H
