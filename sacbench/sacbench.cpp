//===- sacbench/sacbench.cpp - SacFD end-to-end benchmark program ---------===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
//
// Measures the paper's two-channel shock interaction as a closed loop: one
// process advances one solver (or one shard fleet) and issues a step only
// after the previous one completed.  A trial is "set up, then advance a
// fixed number of steps"; trials repeat until --seconds has elapsed.  Every
// trial's final state is checked against a serial fused-engine reference
// hash computed by `--reference` (run.py caches it per seed and tree).
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
// untraced and then traced (benchmark spans around every public call it
// makes), followed by probes that time single layers from outside, and
// prints the per-layer metrics.  See README.md for the metric map.
//
// The last stdout line is the result object; the line before it carries
// the host fingerprint, sample counts and the base of every ratio.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "array/AllocCounter.h"
#include "io/CheckpointStore.h"
#include "kernels/Kernels.h"
#include "numerics/Reconstruction.h"
#include "numerics/RiemannSolvers.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardPlan.h"
#include "solver/Diagnostics.h"
#include "solver/Field.h"
#include "solver/Problems.h"
#include "solver/Scenario.h"
#include "solver/SolverFactory.h"
#include "support/CommandLine.h"
#include "telemetry/Telemetry.h"

#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <vector>

using namespace sacfd;
using sacbench::median;
using sacbench::percentile;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double msSince(Clock::time_point T0) { return msBetween(T0, Clock::now()); }

/// Steps at the start of every trial that count toward time to solution
/// but not toward steady-state step latency or mcups.
constexpr unsigned WarmupSteps = 2;

/// Set-ups per phase beyond the trials' own (see repeatSetUps).
constexpr unsigned SetupRepeats = 10;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  bool FigureScheme; ///< figureScheme() (WENO3); else benchmarkScheme() (PC1)
  size_t Cells;      ///< per axis
  unsigned Steps;    ///< per trial; fig4 and shard share it (one reference)
  bool Sharded;
  unsigned CkptEvery; ///< shard checkpoint cadence in steps (0 = none)
  bool AllCores;      ///< nproc threads / shards; otherwise 1 thread
};

const Workload Workloads[] = {
    {"fig4_pc1_mt", false, 400, 110, false, 0, true},
    {"fig3_weno3_serial", true, 64, 110, false, 0, false},
    {"shard_pc1_ckpt", false, 400, 110, true, 10, true},
};

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

/// The seed only moves the shock Mach number inside a narrow band around
/// the paper's Ms = 2.2; grid, scheme and step count are fixed per
/// workload, so every seed costs the same work per step.
double machFromSeed(uint64_t Seed) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL; // splitmix64
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  double U = static_cast<double>(Z >> 11) * 0x1.0p-53;
  return 2.1 + 0.2 * U;
}

struct Setup {
  const Workload *W;
  size_t Cells;
  unsigned Steps;
  unsigned Workers; ///< threads or shards
  double Ms;
  Problem<2> Prob;
  SchemeConfig Scheme;
};

Setup makeSetup(const Workload &W, uint64_t Seed, size_t Cells,
                unsigned Steps) {
  double Ms = machFromSeed(Seed);
  // dx = 1 at every size, like the paper's 400x400 grid (h = Cells / 2).
  Problem<2> Prob =
      shockInteraction2D(Cells, Ms, static_cast<double>(Cells) / 2.0);
  SchemeConfig S = W.FigureScheme ? SchemeConfig::figureScheme()
                                  : SchemeConfig::benchmarkScheme();
  return Setup{&W, Cells, Steps, W.AllCores ? nproc() : 1u, Ms,
               std::move(Prob), S};
}

/// The workload's single-process configuration: everything at the
/// RunConfig defaults except scheme and thread count.
RunConfig workloadConfig(const Setup &S) {
  RunConfig Cfg;
  Cfg.Scheme = S.Scheme;
  Cfg.Threads = S.Workers;
  return Cfg;
}

/// Serial, single-process, fused-engine configuration of the reference.
RunConfig referenceConfig(const Setup &S) {
  RunConfig Cfg;
  Cfg.Scheme = S.Scheme;
  Cfg.Engine = EngineKind::Fused;
  Cfg.Backend = BackendKind::Serial;
  Cfg.Threads = 1;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

enum class Layer : uint8_t {
  Bench,
  Runtime,
  Solver,
  Kernels,
  Numerics,
  Array,
  Shard,
  Io,
  Telemetry,
  Count
};

const char *const LayerNames[] = {"bench",    "runtime", "solver",
                                  "kernels",  "numerics", "array",
                                  "shard",    "io",       "telemetry"};

/// In-memory span recorder: one record per call the benchmark makes into
/// a layer, with its parent, written out once at exit.  Single-threaded
/// (the benchmark's driving thread).  A null Tracer* means untraced.
class Tracer {
public:
  struct Span {
    uint32_t Parent; ///< index + 1; 0 = root
    Layer L;
    const char *Name;
    uint64_t Start, End; ///< ns since tracer construction
  };

  uint32_t open(Layer L, const char *Name) {
    uint32_t Parent = Stack.empty() ? 0 : Stack.back() + 1;
    Spans.push_back({Parent, L, Name, now(), 0});
    Stack.push_back(static_cast<uint32_t>(Spans.size() - 1));
    return Stack.back();
  }
  void close(uint32_t Id) {
    Spans[Id].End = now();
    Stack.pop_back();
  }

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover (children nest strictly on one thread).
  std::vector<double> selfSeconds() const {
    std::vector<double> Self(static_cast<size_t>(Layer::Count), 0.0);
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent)
        ChildNs[S.Parent - 1] += S.End - S.Start;
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[static_cast<size_t>(Spans[I].L)] +=
          static_cast<double>(Spans[I].End - Spans[I].Start - ChildNs[I]) *
          1e-9;
    return Self;
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"spans\": [";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << (I ? ",\n" : "\n") << "{\"id\": " << I + 1
          << ", \"parent\": " << S.Parent << ", \"layer\": \""
          << LayerNames[static_cast<size_t>(S.L)] << "\", \"name\": \""
          << S.Name << "\", \"start_ns\": " << S.Start
          << ", \"end_ns\": " << S.End << "}";
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

private:
  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
  }
  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
};

/// RAII span; a no-op when \p T is null.
class Scope {
public:
  Scope(Tracer *T, Layer L, const char *Name) : T(T) {
    if (T)
      Id = T->open(L, Name);
  }
  ~Scope() {
    if (T)
      T->close(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  uint32_t Id = 0;
};

//===----------------------------------------------------------------------===//
// Closed loop
//===----------------------------------------------------------------------===//

/// What one measured phase (a sequence of trials) observed.
struct Phase {
  unsigned Attempted = 0; ///< trials started plus set-up repeats
  unsigned Trials = 0;    ///< trials whose steps all ran
  unsigned Failed = 0;
  std::vector<std::string> Failures;
  std::vector<double> SetupS;     ///< per set-up (trials and repeats)
  std::vector<double> SolutionS;  ///< per trial: setup + every step
  std::vector<double> SteadyMs;   ///< per steady step, all trials
  double SteadyWallS = 0.0;       ///< sum of steady step times
  /// Per trial: its steady steps' tail percentile (see tailPercentile).
  std::vector<double> TrialTailMs;
  std::vector<double> TrialMs; ///< the current trial's steady steps
  // Layer observations, read by the traced run only.
  std::vector<double> GetDtMs, StagesMs, StartS;
  uint64_t SteadyAllocs = 0;
  uint64_t Regions = 0;
  FieldPool::Stats Pool;
  double CoordCpuS = 0.0, SteppingWallS = 0.0;
  double WorkersCpuS = 0.0, WorkersWallS = 0.0;
  unsigned Restarts = 0;
  /// Peak RSS once the first trial has finished (see peakRssMb).
  double FirstTrialRssMb = 0.0;
  /// Interior of the last trial's final state (probes run on it).
  std::vector<Cons<2>> Warm;
  /// Halo traffic of the fleet, computed from blocks()/stagesPerStep().
  double HaloBytesPerStep = 0.0, MessagesPerStep = 0.0;

  void addSteadyStep(double Ms) {
    SteadyMs.push_back(Ms);
    SteadyWallS += Ms * 1e-3;
    TrialMs.push_back(Ms);
  }
  void endTrial() {
    ++Trials;
    TrialTailMs.push_back(
        percentile(TrialMs, sacbench::tailPercentile(TrialMs.size())));
    TrialMs.clear();
  }

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(std::move(Why));
  }
};

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

bool allFinite(const std::vector<Cons<2>> &Cells) {
  for (const Cons<2> &Q : Cells)
    for (unsigned K = 0; K < NumVars<2>; ++K)
      if (!std::isfinite(Q.comp(K)))
        return false;
  return true;
}

std::vector<Cons<2>> interiorOf(const EulerSolver<2> &S) {
  const Grid<2> &G = S.problem().Domain;
  std::vector<Cons<2>> Out;
  Out.reserve(G.cells(0) * G.cells(1));
  Shape Interior = G.interiorShape();
  Index Iv = Interior.delinearize(0);
  do
    Out.push_back(S.field().at(G.toStorage(Iv)));
  while (Interior.increment(Iv));
  return Out;
}

double cpuSecondsSelf() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         1e-9 * static_cast<double>(Ts.tv_nsec);
}

double cpuSecondsChildren() {
  rusage R{};
  getrusage(RUSAGE_CHILDREN, &R);
  return static_cast<double>(R.ru_utime.tv_sec + R.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(R.ru_utime.tv_usec + R.ru_stime.tv_usec);
}

/// makeSolverRun under a span, recorded as one set-up sample.
SolverRun<2> setUpSolver(const Setup &S, Phase &P, Tracer *T) {
  Scope Sp(T, Layer::Solver, "makeSolverRun");
  auto T0 = Clock::now();
  SolverRun<2> Run = makeSolverRun<2>(S.Prob, workloadConfig(S));
  P.SetupS.push_back(secondsSince(T0));
  return Run;
}

/// The shard fleet's set-up: ShardCoordinator constructor + start(), each
/// under a span, recorded as one set-up sample.  The coordinator is heap
/// held because it is neither copyable nor movable.
std::unique_ptr<ShardCoordinator> setUpFleet(const Setup &S,
                                             const std::string &CkptDir,
                                             Phase &P, Tracer *T) {
  ShardOptions Opt;
  Opt.Shards = S.Workers;
  Opt.Scheme = S.Scheme;
  Opt.CheckpointDir = CkptDir;
  Opt.CheckpointEvery = S.W->CkptEvery;
  auto T0 = Clock::now();
  std::unique_ptr<ShardCoordinator> Coord;
  {
    Scope Sp(T, Layer::Shard, "ShardCoordinator");
    Coord = std::make_unique<ShardCoordinator>(S.Prob, Opt);
  }
  bool Ok;
  {
    Scope Sp(T, Layer::Shard, "start");
    auto Ts = Clock::now();
    Ok = Coord->start();
    P.StartS.push_back(secondsSince(Ts));
  }
  P.SetupS.push_back(secondsSince(T0));
  if (!Ok) {
    P.fail("ShardCoordinator::start failed");
    return nullptr;
  }
  return Coord;
}

struct StepSplit {
  double GetDtMs, StagesMs;
};

/// One step as computeDt() + advanceWithDt(), each under its own span.
StepSplit splitStep(EulerSolver<2> &Solver, Tracer *T) {
  auto Ts = Clock::now();
  double Dt;
  {
    Scope Sp(T, Layer::Solver, "computeDt");
    Dt = Solver.computeDt();
  }
  auto Tm = Clock::now();
  {
    Scope Sp(T, Layer::Solver, "advanceWithDt");
    Solver.advanceWithDt(Dt);
  }
  return {msBetween(Ts, Tm), msSince(Tm)};
}

/// One single-process trial: makeSolverRun, Steps x (computeDt +
/// advanceWithDt), then the untimed correctness gate.
void threadTrial(const Setup &S, uint64_t Expect, Phase &P, Tracer *T,
                 bool KeepWarm) {
  Scope Trial(T, Layer::Bench, "trial");
  auto T0 = Clock::now();
  SolverRun<2> Run = setUpSolver(S, P, T);
  EulerSolver<2> &Solver = Run.solver();
  uint64_t Allocs0 = 0, RegionsWarm = 0;
  for (unsigned K = 0; K < S.Steps; ++K) {
    if (K == WarmupSteps) {
      Allocs0 = alloctrack::allocationCount();
      RegionsWarm = Run.backend().regionsDispatched();
    }
    StepSplit Split = splitStep(Solver, T);
    if (K >= WarmupSteps) {
      P.addSteadyStep(Split.GetDtMs + Split.StagesMs);
      P.GetDtMs.push_back(Split.GetDtMs);
      P.StagesMs.push_back(Split.StagesMs);
    }
  }
  P.SolutionS.push_back(secondsSince(T0));
  P.SteadyAllocs += alloctrack::allocationCount() - Allocs0;
  P.Regions += Run.backend().regionsDispatched() - RegionsWarm;
  P.Pool = Solver.fieldPool().stats();
  P.endTrial();

  Scope Check(T, Layer::Bench, "check");
  if (!fieldHealth(Solver).AllFinite)
    P.fail("non-finite field");
  else if (uint64_t H = fieldStateHash(Solver); H != Expect)
    P.fail("hash " + hex(H) + " != reference " + hex(Expect));
  if (KeepWarm)
    P.Warm = interiorOf(Solver);
}

/// One sharded trial: ShardCoordinator + start(), Steps x advanceSteps(1)
/// with per-shard checkpoints on the workload's cadence, then the gate.
void shardTrial(const Setup &S, uint64_t Expect, const std::string &CkptDir,
                Phase &P, Tracer *T, bool KeepWarm) {
  Scope Trial(T, Layer::Bench, "trial");
  std::filesystem::remove_all(CkptDir);
  const double Children0 = cpuSecondsChildren();
  auto T0 = Clock::now();
  std::unique_ptr<ShardCoordinator> Coord = setUpFleet(S, CkptDir, P, T);
  if (!Coord)
    return;
  bool Ok = true;
  const double Cpu0 = cpuSecondsSelf();
  auto Tstep = Clock::now();
  for (unsigned K = 0; Ok && K < S.Steps; ++K) {
    auto Ts = Clock::now();
    {
      Scope Sp(T, Layer::Shard, "advanceSteps");
      Ok = Coord->advanceSteps(1);
    }
    double Ms = msSince(Ts);
    if (!Ok)
      P.fail("ShardCoordinator::advanceSteps failed");
    else if (K >= WarmupSteps)
      P.addSteadyStep(Ms);
  }
  P.SolutionS.push_back(secondsSince(T0));
  P.SteppingWallS += secondsSince(Tstep);
  P.CoordCpuS += cpuSecondsSelf() - Cpu0;
  P.endTrial();

  unsigned Restarts = Coord->restartCount() + Coord->fullRestartCount();
  P.Restarts += Restarts;
  const size_t Ng = S.Prob.Domain.ghost();
  const double SlabBytes = static_cast<double>(
      Ng * (S.Prob.Domain.cells(1) + 2 * Ng) * sizeof(Cons<2>));
  const double Edges = static_cast<double>(Coord->blocks().size() - 1);
  P.MessagesPerStep = 2.0 * Edges * Coord->stagesPerStep();
  P.HaloBytesPerStep = P.MessagesPerStep * SlabBytes;

  if (Ok) {
    Scope Check(T, Layer::Bench, "check");
    std::vector<Cons<2>> Interior;
    uint64_t H;
    {
      Scope Sp(T, Layer::Shard, "stateHash");
      H = Coord->stateHash();
    }
    if (Restarts != 0)
      P.fail("shard restarts " + std::to_string(Restarts));
    else if (!Coord->stitchInterior(Interior) || !allFinite(Interior))
      P.fail("non-finite stitched field");
    else if (H != Expect)
      P.fail("hash " + hex(H) + " != reference " + hex(Expect));
    if (KeepWarm)
      P.Warm = std::move(Interior);
  }
  {
    Scope Sp(T, Layer::Shard, "shutdown");
    Coord->shutdown();
  }
  Coord.reset();
  P.WorkersCpuS += cpuSecondsChildren() - Children0;
  P.WorkersWallS += secondsSince(T0) * S.Workers;
  std::filesystem::remove_all(CkptDir);
}

/// Peak resident set of this process plus the largest reaped child (the
/// shard workers), in MiB.  Self comes from VmHWM: getrusage's ru_maxrss
/// survives execve, so it would report the launching interpreter's peak
/// whenever that exceeds ours.
double peakRssMb() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  double SelfKb = static_cast<double>(Self.ru_maxrss);
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      SelfKb = std::strtod(Line.c_str() + 6, nullptr);
  return (SelfKb + static_cast<double>(Kids.ru_maxrss)) / 1024.0;
}

/// One trial into \p P, traced when \p T is non-null.  Only traced
/// trials keep the final state for the probes: the copy would otherwise
/// show up in the untraced run's peak RSS.
void runTrial(const Setup &S, uint64_t Expect, const std::string &Scratch,
              Phase &P, Tracer *T) {
  ++P.Attempted;
  if (S.W->Sharded)
    shardTrial(S, Expect, Scratch + "/ckpt", P, T, /*KeepWarm=*/T);
  else
    threadTrial(S, Expect, P, T, /*KeepWarm=*/T);
  if (P.Attempted == 1)
    P.FirstTrialRssMb = peakRssMb();
}

/// setup_s is a median; the long sharded trials alone would give only a
/// handful of samples, so add set-ups that are torn down unstepped.
void repeatSetUps(const Setup &S, const std::string &Scratch, Phase &P,
                  Tracer *T) {
  for (unsigned I = 0; I < SetupRepeats && !P.Failed; ++I) {
    ++P.Attempted;
    if (!S.W->Sharded) {
      setUpSolver(S, P, T);
    } else if (auto Coord = setUpFleet(S, Scratch + "/ckpt", P, T)) {
      Scope Sp(T, Layer::Shard, "shutdown");
      Coord->shutdown();
    }
  }
}

/// Runs rounds until \p Seconds have elapsed: each round is one untraced
/// trial into \p Main and, when \p Traced is given, one traced trial into
/// it, so both sides see the same drift of a shared host.  At least one
/// round; no new round once the median round would overrun the budget.
/// A failed gate ends the run; the result reports it.
void runRounds(const Setup &S, uint64_t Expect, const std::string &Scratch,
               double Seconds, Phase &Main, Phase *Traced, Tracer *T) {
  auto Failed = [&] { return Main.Failed || (Traced && Traced->Failed); };
  auto T0 = Clock::now();
  std::vector<double> RoundS;
  do {
    auto Ts = Clock::now();
    runTrial(S, Expect, Scratch, Main, nullptr);
    if (Traced && !Failed())
      runTrial(S, Expect, Scratch, *Traced, T);
    RoundS.push_back(secondsSince(Ts));
  } while (!Failed() && secondsSince(T0) + median(RoundS) <= Seconds);
  repeatSetUps(S, Scratch, Main, nullptr);
  if (Traced)
    repeatSetUps(S, Scratch, *Traced, T);
}

//===----------------------------------------------------------------------===//
// Layer probes (traced run only)
//===----------------------------------------------------------------------===//

/// Repeats \p Sweep (one pass over \p Items elements) until ~Budget
/// seconds, returning the median ns per element.
template <typename Fn>
double nsPerItem(Tracer *T, Layer L, const char *Name, double Items,
                 double Budget, Fn &&Sweep) {
  std::vector<double> PerItem;
  auto T0 = Clock::now();
  while (PerItem.size() < 3 || secondsSince(T0) < Budget) {
    Scope Sp(T, L, Name);
    auto Ts = Clock::now();
    Sweep();
    PerItem.push_back(msSince(Ts) * 1e6 / Items);
  }
  return median(PerItem);
}

volatile double Sink = 0.0;

struct KernelNumbers {
  double FluxNs, EigenNs, SspNs, DivNs;
};

/// Times the four kernels:: entry points on SoA runs of the warm field
/// (one run per grid row), at the default SIMD dispatch.
KernelNumbers probeKernels(const Setup &S, const std::vector<Cons<2>> &Warm,
                           Tracer *T) {
  const size_t Rows = S.Prob.Domain.cells(0), Cols = S.Prob.Domain.cells(1);
  const bool Simd = RunConfig().Simd;
  const Gas &G = S.Prob.G;
  FieldPool Pool;
  Pool.setLayout(Layout::SoA);
  Shape Sh({Rows, Cols});
  Field<2> U(Pool, Sh, Layout::SoA), U2(Pool, Sh, Layout::SoA),
      F(Pool, Sh, Layout::SoA), Res(Pool, Sh, Layout::SoA);
  U.importFrom(Warm.data());
  U2.importFrom(Warm.data());
  const double InvDx[2] = {1.0 / S.Prob.Domain.dx(0),
                           1.0 / S.Prob.Domain.dx(1)};
  const double Faces = static_cast<double>(Rows * (Cols - 1));
  const double CellsN = static_cast<double>(Rows * Cols);
  KernelNumbers K{};
  K.FluxNs = nsPerItem(T, Layer::Kernels, "fluxFaces", Faces, 0.15, [&] {
    for (size_t R = 0; R < Rows; ++R)
      kernels::fluxFaces<2>(U.crun(R * Cols), U.crun(R * Cols + 1),
                            F.run(R * Cols), G, 1, S.Scheme.Riemann,
                            Cols - 1, Simd);
  });
  K.EigenNs = nsPerItem(T, Layer::Kernels, "maxEigen", CellsN, 0.15, [&] {
    double Acc = 0.0;
    for (size_t R = 0; R < Rows; ++R)
      Acc = kernels::maxEigen<2>(U.crun(R * Cols), G, InvDx, Acc, Cols, Simd);
    Sink = Acc;
  });
  K.SspNs = nsPerItem(T, Layer::Kernels, "sspUpdate", CellsN, 0.15, [&] {
    for (size_t R = 0; R < Rows; ++R)
      kernels::sspUpdate<2>(U2.run(R * Cols), U.crun(R * Cols),
                            F.crun(R * Cols), 0.75, 0.25, 1e-6, Cols, Simd);
  });
  K.DivNs = nsPerItem(T, Layer::Kernels, "accumDivergence", Faces, 0.15, [&] {
    for (size_t R = 0; R < Rows; ++R)
      kernels::accumDivergence<2>(Res.run(R * Cols), F.crun(R * Cols),
                                  F.crun(R * Cols + 1), InvDx[1], Cols - 1,
                                  Simd);
  });
  return K;
}

struct NumericsNumbers {
  double ReconNs, HllcNs;
};

/// Times reconstructFaceStates (characteristic WENO3) and hllcFlux per
/// face on row stencils gathered from the warm field.
NumericsNumbers probeNumerics(const Setup &S, const std::vector<Cons<2>> &Warm,
                              Tracer *T) {
  const size_t Rows = S.Prob.Domain.cells(0), Cols = S.Prob.Domain.cells(1);
  const Gas &G = S.Prob.G;
  const SchemeConfig Fig = SchemeConfig::figureScheme();
  std::vector<std::array<Cons<2>, 6>> Stencils;
  const size_t RowStep = std::max<size_t>(1, Rows / 32);
  for (size_t R = 0; R < Rows; R += RowStep)
    for (size_t C = 2; C + 3 < Cols; ++C) {
      std::array<Cons<2>, 6> St;
      for (size_t I = 0; I < 6; ++I)
        St[I] = Warm[R * Cols + C - 2 + I];
      Stencils.push_back(St);
    }
  const double Faces = static_cast<double>(Stencils.size());
  NumericsNumbers N{};
  N.ReconNs = nsPerItem(
      T, Layer::Numerics, "reconstructFaceStates", Faces, 0.15, [&] {
        double Acc = 0.0;
        for (const auto &St : Stencils)
          Acc += reconstructFaceStates<2>(ReconstructionKind::Weno3,
                                          Fig.Limiter,
                                          ReconstructVariables::Characteristic,
                                          St, G, 1)
                     .L.Rho;
        Sink = Acc;
      });
  N.HllcNs = nsPerItem(T, Layer::Numerics, "hllcFlux", Faces, 0.15, [&] {
    double Acc = 0.0;
    for (const auto &St : Stencils)
      Acc += hllcFlux<2>(St[2], St[3], G, 1).Rho;
    Sink = Acc;
  });
  return N;
}

/// Empty parallelFor on \p B: dispatch plus barrier cost per region.
std::vector<double> probeDispatch(Backend &B, Tracer *T) {
  const size_t Width = std::max(1u, B.workerCount());
  auto Empty = [](size_t, size_t) {};
  for (unsigned I = 0; I < 200; ++I)
    B.parallelFor(0, Width, Empty);
  std::vector<double> Us;
  for (unsigned I = 0; I < 2000; ++I) {
    Scope Sp(T, Layer::Runtime, "parallelFor");
    auto Ts = Clock::now();
    B.parallelFor(0, Width, Empty);
    Us.push_back(msSince(Ts) * 1e3);
  }
  return Us;
}

/// A serial fused solver over shard block 0 of an nproc-way row split:
/// the exact sub-problem and configuration one shard worker runs.
Problem<2> shardBlockProblem(const Setup &S) {
  unsigned Shards = nproc();
  std::vector<RowBlock> Blocks = rowBlocks(S.Prob.Domain.cells(0), Shards);
  return shardProblem(S.Prob, Blocks[0], false, Shards > 1);
}

RunConfig shardWorkerConfig(const Setup &S) {
  RunConfig Cfg;
  Cfg.Scheme = S.Scheme;
  Cfg.Engine = ShardOptions().Engine;
  Cfg.Backend = BackendKind::Serial;
  Cfg.Threads = 1;
  return Cfg;
}

struct IoNumbers {
  double WriteMs, ResumeMs, Bytes;
};

IoNumbers probeIo(const Setup &S, const std::string &Dir, Tracer *T) {
  std::filesystem::remove_all(Dir);
  SolverRun<2> Run = makeSolverRun<2>(shardBlockProblem(S),
                                      shardWorkerConfig(S));
  EulerSolver<2> &Solver = Run.solver();
  CheckpointStore Store(Dir);
  std::vector<double> WriteMs, ResumeMs;
  IoNumbers N{};
  for (unsigned I = 0; I < 8; ++I) {
    Solver.advanceSteps(1);
    Scope Sp(T, Layer::Io, "CheckpointStore::write");
    auto Ts = Clock::now();
    bool Ok = Store.write(Solver).ok();
    WriteMs.push_back(msSince(Ts));
    if (!Ok)
      return N;
  }
  std::vector<CheckpointStore::Generation> Gens = Store.generations();
  if (!Gens.empty())
    N.Bytes = static_cast<double>(std::filesystem::file_size(Gens[0].Path));
  for (unsigned I = 0; I < 8; ++I) {
    Scope Sp(T, Layer::Io, "CheckpointStore::resume");
    auto Ts = Clock::now();
    Store.resume(Solver);
    ResumeMs.push_back(msSince(Ts));
  }
  std::filesystem::remove_all(Dir);
  N.WriteMs = median(WriteMs);
  N.ResumeMs = median(ResumeMs);
  return N;
}

/// Steady step time with program telemetry on vs off, alternating blocks
/// on one warmed-up solver.  \returns on/off - 1.
double probeTelemetry(EulerSolver<2> &Solver, Tracer *T) {
  for (unsigned I = 0; I < WarmupSteps; ++I)
    Solver.advanceWithDt(Solver.computeDt());
  std::vector<double> On, Off;
  for (unsigned Block = 0; Block < 16; ++Block) {
    const bool Enable = Block % 2 == 1;
    telemetry::setEnabled(Enable);
    Scope Sp(T, Layer::Telemetry, Enable ? "telemetry on" : "telemetry off");
    for (unsigned I = 0; I < 6; ++I) {
      auto Ts = Clock::now();
      Solver.advanceWithDt(Solver.computeDt());
      double Ms = msSince(Ts);
      if (I > 0) // first step after a toggle re-warms the path
        (Enable ? On : Off).push_back(Ms);
    }
  }
  telemetry::setEnabled(false);
  {
    Scope Sp(T, Layer::Telemetry, "reset");
    telemetry::reset();
  }
  return median(On) / median(Off) - 1.0;
}

/// Times the serial reference over the workload's steps (untimed for the
/// gate, timed here as the base of both speedup metrics).  \returns the
/// median steady step in ms, or a negative value on a hash mismatch.
double timedReference(const Setup &S, uint64_t Expect, Tracer *T) {
  Scope Sp(T, Layer::Bench, "serial reference");
  SolverRun<2> Run = makeSolverRun<2>(S.Prob, referenceConfig(S));
  std::vector<double> Ms;
  for (unsigned K = 0; K < S.Steps; ++K) {
    auto Ts = Clock::now();
    Run.solver().advanceSteps(1);
    if (K >= WarmupSteps)
      Ms.push_back(msSince(Ts));
  }
  if (fieldStateHash(Run.solver()) != Expect)
    return -1.0;
  return median(Ms);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string num(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string fsTypeName(const std::string &Path) {
  struct statfs Fs{};
  std::filesystem::create_directories(Path);
  if (statfs(Path.c_str(), &Fs) != 0)
    return "unknown";
  switch (static_cast<unsigned long>(Fs.f_type)) {
  case 0x01021994UL: return "tmpfs";
  case 0xEF53UL: return "ext4";
  case 0x58465342UL: return "xfs";
  case 0x9123683EUL: return "btrfs";
  case 0x794c7630UL: return "overlayfs";
  case 0x6969UL: return "nfs";
  case 0x01021997UL: return "v9fs";
  case 0x65735546UL: return "fuse";
  default: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%lx",
                  static_cast<unsigned long>(Fs.f_type));
    return Buf;
  }
  }
}

struct Options {
  std::string WorkloadName;
  std::string Seed = "0";
  double Seconds = 10.0;
  unsigned Trace = 0;
  std::string ExpectHash;
  std::string Scratch = ".bench_build/scratch";
  std::string TraceOut;
  std::string GitSha = "unknown";
  std::string TreeHash = "unknown";
  unsigned Cells = 0; ///< 0 = the workload's size (self-test override)
  unsigned Steps = 0; ///< 0 = the workload's steps (self-test override)
  bool Reference = false;
  bool SelftestStats = false;
};

int selftestStats() {
  // Expected values computed with Python's statistics.quantiles(n=4) and
  // numpy.percentile (linear) on the same vectors.
  struct Case {
    std::vector<double> V;
    std::array<double, 3> Q;
    double P90;
  };
  const Case Cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25}, 9.1},
      {{5, 1, 4, 2, 3}, {1.5, 3.0, 4.5}, 4.6},
      {{7, 3}, {2.0, 5.0, 8.0}, 6.6},
      {{2, 4, 4, 4, 5, 5, 7, 9}, {4.0, 4.5, 6.5}, 7.6},
  };
  int Bad = 0;
  auto Near = [](double A, double B) { return std::fabs(A - B) < 1e-12; };
  for (const Case &C : Cases) {
    std::array<double, 3> Q = sacbench::quartiles(C.V);
    for (int I = 0; I < 3; ++I)
      if (!Near(Q[I], C.Q[I])) {
        std::printf("quartile %d: got %.17g want %.17g\n", I, Q[I], C.Q[I]);
        ++Bad;
      }
    double P = percentile(C.V, 90.0);
    if (!Near(P, C.P90)) {
      std::printf("p90: got %.17g want %.17g\n", P, C.P90);
      ++Bad;
    }
  }
  const std::pair<size_t, double> Tails[] = {
      {5, 50.0},     {99, 50.0},    {100, 90.0},   {199, 90.0},
      {200, 95.0},   {999, 95.0},   {1000, 99.0},  {9999, 99.0},
      {10000, 99.9}, {50000, 99.9},
  };
  for (auto [N, Want] : Tails)
    if (sacbench::tailPercentile(N) != Want) {
      std::printf("tailPercentile(%zu): got %g want %g\n", N,
                  sacbench::tailPercentile(N), Want);
      ++Bad;
    }
  std::printf("stats self-test: %s\n", Bad ? "FAILED" : "ok");
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, const char **Argv) {
  Options O;
  CommandLine CL("sacbench", "SacFD end-to-end benchmark (see README.md)");
  CL.addString("workload", O.WorkloadName,
               "fig4_pc1_mt | fig3_weno3_serial | shard_pc1_ckpt");
  CL.addString("seed", O.Seed, "input seed (unsigned 64-bit)");
  CL.addDouble("seconds", O.Seconds, "measured seconds per phase budget");
  CL.addUnsigned("trace", O.Trace, "0 = end-to-end metrics, 1 = per-layer");
  CL.addString("expect-hash", O.ExpectHash,
               "reference fieldStateHash (16 hex digits)");
  CL.addString("scratch", O.Scratch, "scratch directory (checkpoints)");
  CL.addString("trace-out", O.TraceOut, "span dump path (--trace 1)");
  CL.addString("git-sha", O.GitSha, "source revision for the fingerprint");
  CL.addString("tree-hash", O.TreeHash, "source tree digest");
  CL.addUnsigned("cells", O.Cells, "override grid size (self-test only)");
  CL.addUnsigned("steps", O.Steps, "override steps per trial (self-test)");
  CL.addFlag("reference", O.Reference,
             "print the serial reference hash and exit");
  CL.addFlag("selftest-stats", O.SelftestStats,
             "check the percentile/quartile helpers and exit");
  if (!CL.parse(Argc, Argv))
    return CL.helpRequested() ? 0 : 2;
  if (O.SelftestStats)
    return selftestStats();

  const Workload *W = findWorkload(O.WorkloadName);
  char *End = nullptr;
  const uint64_t Seed = std::strtoull(O.Seed.c_str(), &End, 10);
  if (!W || O.Seed.empty() || *End != '\0' || O.Trace > 1 ||
      !(O.Seconds > 0) || (O.Cells && O.Cells < 16)) {
    std::fprintf(stderr,
                 "sacbench: bad --workload/--seed/--trace/--seconds/--cells\n");
    return 2;
  }
  Setup S = makeSetup(*W, Seed, O.Cells ? O.Cells : W->Cells,
                      O.Steps ? O.Steps : W->Steps);

  if (O.Reference) {
    SolverRun<2> Ref = makeSolverRun<2>(S.Prob, referenceConfig(S));
    Ref.solver().advanceSteps(S.Steps);
    if (!fieldHealth(Ref.solver()).AllFinite) {
      std::fprintf(stderr, "sacbench: reference field is not finite\n");
      return 1;
    }
    std::printf("%s\n", hex(fieldStateHash(Ref.solver())).c_str());
    return 0;
  }

  uint64_t Expect = std::strtoull(O.ExpectHash.c_str(), &End, 16);
  if (O.ExpectHash.empty() || *End != '\0') {
    std::fprintf(stderr, "sacbench: --expect-hash is required\n");
    return 2;
  }
  std::filesystem::create_directories(O.Scratch);

  const double Cells =
      static_cast<double>(S.Prob.Domain.cells(0) * S.Prob.Domain.cells(1));
  std::vector<Metric> Out;
  std::vector<std::string> NotExercised;
  std::vector<std::pair<std::string, std::string>> Bases;
  std::vector<std::string> Failures;
  unsigned Attempted = 0, Failed = 0;
  Phase Main; // the untraced phase every metric set reads

  auto Account = [&](const Phase &P) {
    Attempted += P.Attempted;
    Failed += P.Failed;
    Failures.insert(Failures.end(), P.Failures.begin(), P.Failures.end());
  };

  if (O.Trace == 0) {
    runRounds(S, Expect, O.Scratch, O.Seconds, Main, nullptr, nullptr);
    Account(Main);
    Out = {
        {"time_to_solution_s", median(Main.SolutionS), "s"},
        {"setup_s", median(Main.SetupS), "s"},
        {"mcups",
         Cells * static_cast<double>(Main.SteadyMs.size()) /
             Main.SteadyWallS * 1e-6,
         "Mcell/s"},
        {"step_ms_p50", median(Main.SteadyMs), "ms"},
        {"step_ms_tail", median(Main.TrialTailMs), "ms"},
        {"peak_rss_mb", Main.FirstTrialRssMb, "MB"},
        {"pass_rate",
         Attempted ? 1.0 - static_cast<double>(Failed) / Attempted : 0.0,
         "fraction"},
    };
    Bases.push_back({"mcups", "interior cells x steady steps / summed steady "
                              "step wall time, all trials"});
    Bases.push_back({"step_ms_tail",
                     "median over trials of each trial's tail percentile "
                     "of its steady steps"});
    Bases.push_back({"peak_rss_mb",
                     "VmHWM + largest reaped child maxrss after the first "
                     "trial (one solution from a fresh process)"});
    Bases.push_back({"pass_rate", "1 - failed / attempted, where attempted "
                                  "counts trials and set-up repeats"});
  } else {
    // Untraced and traced halves of the budget, then the probes.
    Tracer Tr;
    Tracer *T = &Tr;
    Phase Traced;
    runRounds(S, Expect, O.Scratch, O.Seconds * 2.0 / 3.0, Main, &Traced, T);
    Account(Main);
    Account(Traced);
    const double StepP50 = median(Main.SteadyMs);
    const double TracedP50 = median(Traced.SteadyMs);
    const double RefMs = timedReference(S, Expect, T);
    ++Attempted;
    if (RefMs < 0) {
      ++Failed;
      Failures.push_back("timed serial reference hash mismatch");
    }

    // A metric of a layer the workload does not run reads 0 and is listed.
    auto If = [&](bool Exercised, const char *Name, double V) {
      if (!Exercised)
        NotExercised.push_back(Name);
      return Exercised ? V : 0.0;
    };

    // Runtime: regions per step and empty-region dispatch on the
    // workload's backend (the shard workers' serial backend for shards).
    std::unique_ptr<Backend> Exec =
        (W->Sharded ? shardWorkerConfig(S) : workloadConfig(S)).makeBackend();
    std::vector<double> DispatchUs = probeDispatch(*Exec, T);
    const double DispP50 = median(DispatchUs);
    const double DispTail = sacbench::tailPercentile(DispatchUs.size());
    const double RegionsPerStep =
        If(!W->Sharded, "runtime.regions_per_step",
           static_cast<double>(Traced.Regions) /
               static_cast<double>(Traced.SteadyMs.size()));

    // Solver/array/telemetry numbers come from the workload's own solver
    // for single-process runs and from a shard-block solver (the exact
    // sub-problem a worker steps) for the sharded run.
    std::vector<double> GetDtMs = Traced.GetDtMs, StagesMs = Traced.StagesMs;
    double AllocsPerStep = static_cast<double>(Traced.SteadyAllocs) /
                           static_cast<double>(Traced.SteadyMs.size());
    FieldPool::Stats Pool = Traced.Pool;
    double TelemetryFrac;
    {
      RunConfig Cfg = W->Sharded ? shardWorkerConfig(S) : workloadConfig(S);
      SolverRun<2> Run = makeSolverRun<2>(
          W->Sharded ? shardBlockProblem(S) : S.Prob, Cfg);
      if (W->Sharded) {
        GetDtMs.clear();
        StagesMs.clear();
        EulerSolver<2> &Solver = Run.solver();
        uint64_t A0 = 0;
        for (unsigned K = 0; K < S.Steps; ++K) {
          if (K == WarmupSteps)
            A0 = alloctrack::allocationCount();
          StepSplit Split = splitStep(Solver, T);
          if (K >= WarmupSteps) {
            GetDtMs.push_back(Split.GetDtMs);
            StagesMs.push_back(Split.StagesMs);
          }
        }
        AllocsPerStep =
            static_cast<double>(alloctrack::allocationCount() - A0) /
            static_cast<double>(S.Steps - WarmupSteps);
        Scope Sp(T, Layer::Array, "FieldPool::stats");
        Pool = Solver.fieldPool().stats();
      }
      TelemetryFrac = probeTelemetry(Run.solver(), T);
    }

    // The warm field is missing only when the traced phase failed its
    // gate; the run then reports failure and the probes read 0.
    KernelNumbers KN{};
    NumericsNumbers NN{};
    if (!Traced.Warm.empty()) {
      KN = probeKernels(S, Traced.Warm, T);
      NN = probeNumerics(S, Traced.Warm, T);
    }
    IoNumbers IoN = probeIo(S, O.Scratch + "/io-probe", T);
    if (IoN.WriteMs <= 0) {
      ++Failed;
      Failures.push_back("io probe: CheckpointStore::write failed");
    }

    const double Speedup = RefMs > 0 ? RefMs / StepP50 : 0.0;
    const double GetDt = median(GetDtMs), Stages = median(StagesMs);
    double SumGetDt = 0, SumStages = 0;
    for (double V : GetDtMs)
      SumGetDt += V;
    for (double V : StagesMs)
      SumStages += V;

    Out = {
        {"runtime.regions_per_step", RegionsPerStep, "count"},
        {"runtime.dispatch_us_p50", DispP50, "us"},
        {"runtime.dispatch_us_tail", percentile(DispatchUs, DispTail), "us"},
        {"runtime.dispatch_share",
         If(!W->Sharded, "runtime.dispatch_share",
            RegionsPerStep * DispP50 * 1e-3 / StepP50),
         "fraction"},
        {"runtime.speedup_vs_serial",
         If(!W->Sharded, "runtime.speedup_vs_serial", Speedup), "x"},
        {"solver.get_dt_ms", GetDt, "ms"},
        {"solver.stages_ms", Stages, "ms"},
        {"solver.get_dt_share", SumGetDt / (SumGetDt + SumStages), "fraction"},
        {"kernels.flux_faces_ns", KN.FluxNs, "ns"},
        {"kernels.flux_faces.gbps_computed", 96.0 / KN.FluxNs, "GB/s"},
        {"kernels.max_eigen_ns", KN.EigenNs, "ns"},
        {"kernels.max_eigen.gbps_computed", 32.0 / KN.EigenNs, "GB/s"},
        {"kernels.ssp_update_ns", KN.SspNs, "ns"},
        {"kernels.ssp_update.gbps_computed", 128.0 / KN.SspNs, "GB/s"},
        {"kernels.accum_divergence_ns", KN.DivNs, "ns"},
        {"kernels.accum_divergence.gbps_computed", 128.0 / KN.DivNs, "GB/s"},
        {"numerics.reconstruct_weno3_ns", NN.ReconNs, "ns"},
        {"numerics.riemann_hllc_ns", NN.HllcNs, "ns"},
        {"array.steady_allocs_per_step", AllocsPerStep, "count"},
        {"array.pool_hit_ratio",
         Pool.Acquisitions ? static_cast<double>(Pool.Hits) /
                                 static_cast<double>(Pool.Acquisitions)
                           : 0.0,
         "fraction"},
        {"array.pool_high_water_mb",
         static_cast<double>(Pool.HighWaterBytes) / (1024.0 * 1024.0), "MB"},
        {"shard.start_s",
         If(W->Sharded, "shard.start_s", median(Traced.StartS)), "s"},
        {"shard.coordinator_cpu_frac",
         If(W->Sharded, "shard.coordinator_cpu_frac",
            Traced.CoordCpuS / Traced.SteppingWallS),
         "fraction"},
        {"shard.workers_cpu_frac",
         If(W->Sharded, "shard.workers_cpu_frac",
            Traced.WorkersCpuS / Traced.WorkersWallS),
         "fraction"},
        {"shard.speedup_vs_serial",
         If(W->Sharded, "shard.speedup_vs_serial", Speedup), "x"},
        {"shard.efficiency",
         If(W->Sharded, "shard.efficiency", Speedup / S.Workers),
         "fraction"},
        {"shard.halo_bytes_per_step",
         If(W->Sharded, "shard.halo_bytes_per_step", Traced.HaloBytesPerStep),
         "bytes"},
        {"shard.messages_per_step",
         If(W->Sharded, "shard.messages_per_step", Traced.MessagesPerStep),
         "count"},
        {"shard.restarts",
         static_cast<double>(Main.Restarts + Traced.Restarts), "count"},
        {"io.ckpt_write_ms", IoN.WriteMs, "ms"},
        {"io.ckpt_bytes", IoN.Bytes, "bytes"},
        {"io.resume_ms", IoN.ResumeMs, "ms"},
        {"io.ckpt_share",
         If(W->CkptEvery > 0, "io.ckpt_share",
            IoN.WriteMs / std::max(1u, W->CkptEvery) / StepP50),
         "fraction"},
        {"telemetry.overhead_frac", TelemetryFrac, "fraction"},
        {"trace.overhead_frac", TracedP50 / StepP50 - 1.0, "fraction"},
    };
    std::vector<double> Self = T->selfSeconds();
    for (size_t L = 0; L < Self.size(); ++L)
      Out.push_back({std::string("trace.self_s.") + LayerNames[L], Self[L],
                     "s"});

    Bases = {
        {"runtime.dispatch_share",
         "regions_per_step x dispatch_us_p50 / untraced step_ms_p50"},
        {"runtime.speedup_vs_serial",
         "serial fused reference median steady step / untraced median "
         "steady step at " +
             std::to_string(S.Workers) + " threads"},
        {"solver.get_dt_share", "sum computeDt / sum (computeDt + "
                                "advanceWithDt) over steady steps"},
        {"kernels.*.gbps_computed",
         "bytes the kernel reads+writes per element from array sizes "
         "(flux 96, max_eigen 32, ssp_update 128, accum_divergence 128) / "
         "ns per element; ignores caches"},
        {"array.pool_hit_ratio", "FieldPool hits / acquisitions"},
        {"shard.coordinator_cpu_frac",
         "coordinator CPU time / wall time while stepping (one core = 1)"},
        {"shard.workers_cpu_frac",
         "reaped worker CPU time / (trial wall from constructor to shutdown "
         "x shards)"},
        {"shard.speedup_vs_serial",
         "serial fused reference median steady step / untraced median "
         "steady step at " +
             std::to_string(S.Workers) + " shards"},
        {"shard.efficiency", "shard.speedup_vs_serial / shards"},
        {"io.ckpt_share", "ckpt_write_ms / checkpoint cadence / untraced "
                          "step_ms_p50"},
        {"telemetry.overhead_frac",
         "median steady step with telemetry on / off - 1"},
        {"trace.overhead_frac",
         "traced median steady step / untraced median steady step - 1"},
    };
    if (!O.TraceOut.empty() && !T->write(O.TraceOut))
      std::fprintf(stderr, "sacbench: could not write %s\n",
                   O.TraceOut.c_str());
  }

  // Fingerprint and bookkeeping line, then the result line.
  const size_t PerTrial = S.Steps - WarmupSteps;
  const double PooledTail = sacbench::tailPercentile(Main.SteadyMs.size());
  const std::array<double, 3> Q = sacbench::quartiles(Main.SteadyMs);
  std::ostringstream D;
  D << "{\"sacbench_detail\": {\"workload\": " << quote(W->Name)
    << ", \"seed\": " << Seed << ", \"trace\": " << O.Trace
    << ", \"shock_mach\": " << num(S.Ms) << ", \"host\": {\"nproc\": "
    << nproc() << ", \"build_type\": " << quote(SACBENCH_BUILD_TYPE)
    << ", \"simd_accelerated\": "
    << (kernels::simdAccelerated() ? "true" : "false")
    << ", \"git_sha\": " << quote(O.GitSha)
    << ", \"tree_hash\": " << quote(O.TreeHash)
    << ", \"ckpt_fs\": " << quote(fsTypeName(O.Scratch)) << "}"
    << ", \"config\": {\"cells\": " << S.Cells << ", \"steps_per_trial\": "
    << S.Steps << ", \"warmup_steps\": " << WarmupSteps
    << ", \"scheme\": " << quote(S.Scheme.str()) << ", \"execution\": "
    << quote(W->Sharded ? "shards(" + std::to_string(S.Workers) + ")"
                        : workloadConfig(S).executionStr())
    << ", \"ckpt_every\": " << W->CkptEvery << "}"
    << ", \"samples\": {\"trials\": " << Main.Trials
    << ", \"steady_steps\": " << Main.SteadyMs.size()
    << ", \"steady_steps_per_trial\": " << PerTrial
    << ", \"step_ms_tail_percentile\": "
    << num(sacbench::tailPercentile(PerTrial))
    << ", \"pooled_tail_percentile\": " << num(PooledTail)
    << ", \"pooled_tail_ms\": " << num(percentile(Main.SteadyMs, PooledTail))
    << ", \"step_ms_quartiles\": [" << num(Q[0]) << ", " << num(Q[1]) << ", "
    << num(Q[2]) << "]}"
    << ", \"bases\": {";
  for (size_t I = 0; I < Bases.size(); ++I)
    D << (I ? ", " : "") << quote(Bases[I].first) << ": "
      << quote(Bases[I].second);
  D << "}, \"not_exercised\": [";
  for (size_t I = 0; I < NotExercised.size(); ++I)
    D << (I ? ", " : "") << quote(NotExercised[I]);
  D << "], \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I)
    D << (I ? ", " : "") << quote(Failures[I]);
  D << "]}}";
  std::printf("%s\n", D.str().c_str());

  std::ostringstream R;
  R << "{\"correct\": " << (Failed == 0 ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    R << (I ? ", " : "") << quote(Out[I].Name) << ": {\"value\": "
      << num(Out[I].Value) << ", \"unit\": " << quote(Out[I].Unit) << "}";
  R << "}}";
  std::printf("%s\n", R.str().c_str());
  std::fflush(stdout);
  return Failed == 0 ? 0 : 1;
}
