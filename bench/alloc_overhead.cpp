//===- bench/alloc_overhead.cpp - A6: field-buffer pooling ----------------===//
//
// A6: the FieldPool's allocation record on the Fig. 4 workload (2D shock
// interaction, benchmark scheme).  For each engine the harness times the
// stepping loop and reports NDArray heap allocations per step (total and
// steady-state, i.e. after the first warmup step) and the pool's resident
// footprint.  The acceptance gate is steady-state allocations pinned at
// zero: the binary exits nonzero otherwise.
//
// --json writes the table as a machine-readable artifact
// (artifacts/BENCH_alloc.json in CI).
//
//===----------------------------------------------------------------------===//

#include "array/AllocCounter.h"
#include "solver/Problems.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace sacfd;

namespace {

struct AllocRow {
  std::string Engine;
  double Seconds;
  double AllocsPerStep;       ///< all steps, warmup included
  double SteadyAllocsPerStep; ///< after the first step
  uint64_t PoolResidentBytes;
};

struct RunResult {
  double Seconds = 0.0;
  uint64_t TotalAllocs = 0;
  uint64_t SteadyAllocs = 0;
  uint64_t ResidentBytes = 0;
};

RunResult runOnce(const RunConfig &Cfg, size_t Cells, unsigned Steps,
                  unsigned Repeats) {
  RunResult Best;
  Best.Seconds = 1e300;
  for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
    Problem<2> Prob = shockInteraction2D(Cells, 2.2,
                                         static_cast<double>(Cells) / 2.0);
    SolverRun<2> Run = makeSolverRun(Prob, Cfg);
    uint64_t Before = alloctrack::allocationCount();
    WallTimer Timer;
    Run.advanceSteps(1);
    uint64_t AfterWarmup = alloctrack::allocationCount();
    Run.advanceSteps(Steps - 1);
    double Seconds = Timer.seconds();
    uint64_t After = alloctrack::allocationCount();
    if (Seconds < Best.Seconds) {
      Best.Seconds = Seconds;
      Best.TotalAllocs = After - Before;
      Best.SteadyAllocs = After - AfterWarmup;
      Best.ResidentBytes = Run.solver().fieldPool().stats().BytesResident;
    }
  }
  return Best;
}

bool writeJson(const std::string &Path, size_t Cells, unsigned Steps,
               unsigned Threads, const std::vector<AllocRow> &Rows) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F,
               "{\n  \"experiment\": \"alloc_ablation\",\n"
               "  \"cells\": %zu,\n  \"steps\": %u,\n"
               "  \"threads\": %u,\n  \"rows\": [\n",
               Cells, Steps, Threads);
  for (size_t I = 0; I < Rows.size(); ++I) {
    const AllocRow &R = Rows[I];
    std::fprintf(F,
                 "    {\"engine\": \"%s\", \"seconds\": %.6f, "
                 "\"allocs_per_step\": %.2f, "
                 "\"steady_allocs_per_step\": %.2f, "
                 "\"pool_resident_bytes\": %llu}%s\n",
                 R.Engine.c_str(), R.Seconds, R.AllocsPerStep,
                 R.SteadyAllocsPerStep,
                 static_cast<unsigned long long>(R.PoolResidentBytes),
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  return true;
}

} // namespace

int main(int Argc, const char **Argv) {
  bool Full = false;
  int Cells = 160;
  unsigned Steps = 30;
  unsigned Repeats = 1;
  std::string JsonPath;
  RunConfig Cfg;
  Cfg.Scheme = SchemeConfig::benchmarkScheme();

  CommandLine CL("alloc_overhead",
                 "A6: steady-state field-buffer allocations on the "
                 "Fig. 4 workload");
  CL.addFlag("full", Full, "larger grid and more steps");
  CL.addInt("cells", Cells, "grid cells per axis");
  CL.addUnsigned("steps", Steps, "time steps per run");
  CL.addUnsigned("repeats", Repeats, "repetitions per config (min wins)");
  CL.addString("json", JsonPath, "write the table to this JSON file");
  Cfg.registerBackendFlags(CL);
  Cfg.registerSchemeFlags(CL);
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 1;
  if (Full) {
    Cells = 400;
    Steps = 100;
  }
  if (Repeats == 0)
    Repeats = 1;
  if (Steps < 2)
    Steps = 2;
  Cfg.resolveOrExit();

  const EngineKind Engines[] = {EngineKind::Array, EngineKind::Fused};

  std::printf("# A6: %dx%d grid, %u steps, %u threads, min of %u\n", Cells,
              Cells, Steps, Cfg.Threads, Repeats);
  std::printf("%-8s %10s %12s %14s %12s\n", "engine", "wall[s]",
              "allocs/step", "steady a/step", "pool[KiB]");

  std::vector<AllocRow> Rows;
  bool SteadyClean = true;
  for (EngineKind Engine : Engines) {
    RunConfig Leg = Cfg;
    Leg.Engine = Engine;
    RunResult R = runOnce(Leg, static_cast<size_t>(Cells), Steps, Repeats);
    double PerStep = static_cast<double>(R.TotalAllocs) / Steps;
    double SteadyPerStep = static_cast<double>(R.SteadyAllocs) / (Steps - 1);
    SteadyClean = SteadyClean && R.SteadyAllocs == 0;
    Rows.push_back({engineKindName(Engine), R.Seconds, PerStep, SteadyPerStep,
                    R.ResidentBytes});
    std::printf("%-8s %10.3f %12.2f %14.2f %12.1f\n", engineKindName(Engine),
                R.Seconds, PerStep, SteadyPerStep, R.ResidentBytes / 1024.0);
  }
  std::printf("# steady-state allocations: %s\n",
              SteadyClean ? "0 (clean)" : "NONZERO");

  if (!JsonPath.empty()) {
    if (!writeJson(JsonPath, static_cast<size_t>(Cells), Steps, Cfg.Threads,
                   Rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }
  return SteadyClean ? 0 : 1;
}
