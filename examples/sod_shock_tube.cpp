//===- examples/sod_shock_tube.cpp - Configurable 1D tube runs ------------===//
//
// The paper's Fig. 1 experiment with every numerical knob exposed through
// the shared RunConfig surface: reconstruction, limiter, Riemann solver,
// integrator, resolution, backend, engine, schedule, guard and
// telemetry are all selectable, the profile can be written to CSV, and
// the error against the exact solution is reported.
//
// Examples:
//   ./examples/sod_shock_tube --recon tvd2 --limiter superbee
//   ./examples/sod_shock_tube --engine fused --backend fortran --threads 4
//   ./examples/sod_shock_tube --cells 2000 --csv sod.csv
//   ./examples/sod_shock_tube --cfl 10 --guard --guard-checkpoint em.ckpt
//
//===----------------------------------------------------------------------===//

#include "io/AsciiPlot.h"
#include "io/Checkpoint.h"
#include "io/CsvWriter.h"
#include "io/RunIo.h"
#include "solver/Diagnostics.h"
#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <cstdio>

using namespace sacfd;

int main(int Argc, const char **Argv) {
  int Cells = 400;
  double EndTime = 0.2;
  std::string CsvPath;
  std::string SavePath;
  std::string LoadPath;
  bool Quiet = false;
  RunConfig Cfg;

  CommandLine CL("sod_shock_tube",
                 "Sod shock tube (paper Fig. 1) with a configurable "
                 "scheme, engine and backend");
  CL.addInt("cells", Cells, "grid cells");
  CL.addDouble("end-time", EndTime, "simulated end time");
  CL.addString("csv", CsvPath, "write final profile to this CSV file");
  CL.addString("save", SavePath, "write a checkpoint at the end");
  CL.addString("load", LoadPath, "restore a checkpoint before running");
  CL.addFlag("quiet", Quiet, "suppress the ASCII plot");
  Cfg.registerAll(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  Cfg.resolveOrExit();

  // --scenario swaps in any registered 1D workload (its end time too,
  // unless --end-time was given explicitly).
  Problem<1> Prob =
      resolveProblem(sodProblem(static_cast<size_t>(Cells)), Cfg);
  if (Cfg.hasScenario() && !Cfg.flagWasSet("end-time"))
    EndTime = Prob.EndTime;
  SolverRun<1> Run = makeSolverRun(Prob, Cfg);
  DurabilitySetup Durable = setupDurableRun(Run);
  if (!Durable.Ok)
    reportFatalError("--resume: no loadable checkpoint generation");
  EulerSolver<1> &Solver = Run.solver();
  if (Durable.Resumed)
    std::printf("resumed from %s at t=%.4f (%u steps)\n",
                Durable.ResumePath.c_str(), Solver.time(),
                Solver.stepCount());

  if (!LoadPath.empty()) {
    if (CheckpointStatus St = loadCheckpoint(LoadPath, Solver); !St.ok())
      reportFatalError(("cannot restore checkpoint: " + St.str()).c_str());
    std::printf("restored checkpoint %s at t=%.4f (%u steps)\n",
                LoadPath.c_str(), Solver.time(), Solver.stepCount());
  }

  WallTimer Timer;
  bool GuardFailed = !Run.advanceTo(EndTime);
  Run.printGuardReport();
  double Seconds = Timer.seconds();

  if (!SavePath.empty()) {
    if (CheckpointStatus St = saveCheckpoint(SavePath, Solver); !St.ok())
      reportFatalError(("cannot write checkpoint: " + St.str()).c_str());
    std::printf("checkpoint written to %s\n", SavePath.c_str());
  }

  std::printf("%s: N=%zu scheme=%s engine=%s backend=%s(%u) "
              "steps=%u t=%.4f wall=%.3fs\n",
              Prob.Name.c_str(), Prob.Domain.cells(0),
              Cfg.Scheme.str().c_str(), Solver.engineName(),
              Run.backend().name(), Run.backend().workerCount(),
              Solver.stepCount(), Solver.time(), Seconds);

  std::vector<ProfileSample> Profile = profileOf(Solver);
  if (!Quiet) {
    std::vector<double> Density;
    for (const ProfileSample &S : Profile)
      Density.push_back(S.Rho);
    std::printf("%s", asciiLinePlot(Density).c_str());
  }

  if (Prob.Name == "sod") {
    // The exact-solution comparison only applies to the Sod data.
    Prim<1> L, R;
    L.Rho = 1.0;
    L.Vel = {0.0};
    L.P = 1.0;
    R.Rho = 0.125;
    R.Vel = {0.0};
    R.P = 0.1;
    RiemannErrors E = riemannL1Error(Solver, L, R, 0.5);
    std::printf("L1 errors vs exact: rho=%.6f u=%.6f p=%.6f\n", E.Rho, E.U,
                E.P);
  }

  FieldHealth<1> H = fieldHealth(Solver);
  std::printf("min density %.6f, min pressure %.6f\n", H.MinDensity,
              H.MinPressure);

  if (!CsvPath.empty()) {
    if (!writeProfileCsv(CsvPath, Profile))
      reportFatalError("cannot write CSV output file");
    std::printf("profile written to %s\n", CsvPath.c_str());
  }

  std::string TelemetryError;
  if (!writeRunTelemetry(Run, "sod_shock_tube",
                         {{"cells", std::to_string(Cells)}},
                         &TelemetryError))
    reportFatalError(TelemetryError.c_str());
  return GuardFailed ? 1 : 0;
}
