//===- solver/RunRecorder.h - Time-series run diagnostics ------*- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records per-step diagnostics (t, dt, conserved integrals, positivity)
/// over a run, for CSV export and regression analysis.  The bench
/// harness and examples use it to document that long runs stay healthy;
/// the conservation columns should be constant to round-off on closed
/// domains.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_RUNRECORDER_H
#define SACFD_SOLVER_RUNRECORDER_H

#include "solver/Diagnostics.h"
#include "solver/StepGuard.h"

#include <string>
#include <vector>

namespace sacfd {

/// One recorded step.
template <unsigned Dim> struct RunSample {
  unsigned Step;
  double Time;
  double Dt;
  ConservedTotals<Dim> Totals;
  double MinDensity;
  double MinPressure;
};

/// Collects a diagnostic sample every \p Stride steps of a solver run.
template <unsigned Dim> class RunRecorder {
public:
  explicit RunRecorder(unsigned Stride = 1) : Stride(Stride) {}

  /// Advances \p Solver one step and records if due. \returns dt taken.
  double advanceAndRecord(EulerSolver<Dim> &Solver) {
    double TBefore = Solver.time();
    double Dt = Solver.advance();
    if (Solver.stepCount() % Stride == 0)
      record(Solver, TBefore, Dt);
    return Dt;
  }

  /// Runs \p Steps steps with recording.
  void advanceSteps(EulerSolver<Dim> &Solver, unsigned Steps) {
    for (unsigned I = 0; I < Steps; ++I)
      advanceAndRecord(Solver);
  }

  /// Guarded variant: advances one scan window through \p Guard, records
  /// if due, and mirrors any new breakdown reports into breakdowns().
  /// \returns the dt of the window's first accepted step (0 once the
  /// guard has failed — no further progress is possible).
  double advanceAndRecord(StepGuard<Dim> &Guard) {
    GuardStepResult R = Guard.advanceWindow();
    const std::vector<BreakdownReport> &All = Guard.reports();
    for (; SeenReports < All.size(); ++SeenReports)
      Breakdowns.push_back(All[SeenReports]);
    if (R.Action != GuardAction::Failed &&
        Guard.solver().stepCount() % Stride == 0)
      record(Guard.solver(), Guard.solver().time() - R.Dt, R.Dt);
    return R.Action == GuardAction::Failed ? 0.0 : R.Dt;
  }

  /// Breakdown reports mirrored from the guarded run.
  const std::vector<BreakdownReport> &breakdowns() const {
    return Breakdowns;
  }

  /// Appends an externally produced breakdown report (tools that drive
  /// the guard themselves but want the recorder to own the run record).
  void noteBreakdown(BreakdownReport Report) {
    Breakdowns.push_back(std::move(Report));
  }

  const std::vector<RunSample<Dim>> &samples() const { return Samples; }

  /// Largest relative drift of mass over the recorded window (0 when
  /// fewer than two samples).
  double massDrift() const {
    if (Samples.size() < 2)
      return 0.0;
    double First = Samples.front().Totals.Mass;
    double MaxDrift = 0.0;
    for (const RunSample<Dim> &S : Samples)
      MaxDrift = std::max(MaxDrift,
                          std::fabs(S.Totals.Mass - First) /
                              std::fabs(First));
    return MaxDrift;
  }

  /// Smallest density/pressure seen across all samples.
  double minDensitySeen() const {
    double Min = std::numeric_limits<double>::infinity();
    for (const RunSample<Dim> &S : Samples)
      Min = std::min(Min, S.MinDensity);
    return Min;
  }
  double minPressureSeen() const {
    double Min = std::numeric_limits<double>::infinity();
    for (const RunSample<Dim> &S : Samples)
      Min = std::min(Min, S.MinPressure);
    return Min;
  }

  /// Serializes the samples as CSV rows (step, t, dt, mass, mom...,
  /// energy, min_rho, min_p).
  std::vector<std::vector<double>> csvRows() const {
    std::vector<std::vector<double>> Rows;
    Rows.reserve(Samples.size());
    for (const RunSample<Dim> &S : Samples) {
      std::vector<double> Row = {static_cast<double>(S.Step), S.Time,
                                 S.Dt, S.Totals.Mass};
      for (unsigned A = 0; A < Dim; ++A)
        Row.push_back(S.Totals.Momentum[A]);
      Row.push_back(S.Totals.Energy);
      Row.push_back(S.MinDensity);
      Row.push_back(S.MinPressure);
      Rows.push_back(std::move(Row));
    }
    return Rows;
  }

  /// Header matching csvRows().
  static std::vector<std::string> csvHeader() {
    std::vector<std::string> H = {"step", "t", "dt", "mass"};
    for (unsigned A = 0; A < Dim; ++A)
      H.push_back("momentum" + std::to_string(A));
    H.push_back("energy");
    H.push_back("min_rho");
    H.push_back("min_p");
    return H;
  }

private:
  void record(const EulerSolver<Dim> &Solver, double TimeBefore,
              double Dt) {
    (void)TimeBefore;
    FieldHealth<Dim> H = fieldHealth(Solver);
    Samples.push_back({Solver.stepCount(), Solver.time(), Dt,
                       Solver.conservedTotals(), H.MinDensity,
                       H.MinPressure});
  }

  unsigned Stride;
  std::vector<RunSample<Dim>> Samples;
  std::vector<BreakdownReport> Breakdowns;
  size_t SeenReports = 0;
};

} // namespace sacfd

#endif // SACFD_SOLVER_RUNRECORDER_H
