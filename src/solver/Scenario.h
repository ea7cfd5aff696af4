//===- solver/Scenario.h - Workload registry + pinned regressions *- C++ -*-===//
//
// Part of SacFD, a reproduction of "Numerical Simulations of Unsteady Shock
// Wave Interactions Using SaC and Fortran-90" (PaCT 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload gallery: every named simulation setup the repo ships,
/// selectable from any tool with one flag.
///
/// A Scenario is a named factory producing a Problem<1> or Problem<2>
/// plus the metadata a tool needs to run it well: a one-line summary,
/// the recommended resolution, optional scheme tuning (a CFL or
/// reconstruction the workload wants — applied only to knobs the user
/// did not set explicitly), declared parameters, and a pinned regression
/// run (small grid, few steps) whose field-state hash is checked against
/// a checked-in reference table.
///
/// Tools select workloads with a spec string:
///
///   --scenario sod
///   --scenario riemann2d:config=3
///   --scenario sedov:cells=400
///
/// Grammar: `name[:key=value[,key=value...]]`.  Every malformed spec,
/// unknown name, undeclared key or bad value is a structured error — no
/// silent fallback (the SpecParse contract shared with --schedule).  The
/// registry also rejects any factory that forgets to set a positive
/// Problem::EndTime, closing the old silently-default-to-1.0 hole.
///
/// Built-in scenarios live in src/solver/scenarios/, one translation
/// unit per family (Athena++ pgen-style).  Each TU exposes a
/// registration function that ScenarioRegistry::instance() calls on
/// first use — explicit calls rather than static-initializer tricks, so
/// static archives cannot dead-strip a workload and registration order
/// is deterministic.  Out-of-tree code (and tests) can still add
/// scenarios at static-init time through ScenarioRegistrar.
///
//===----------------------------------------------------------------------===//

#ifndef SACFD_SOLVER_SCENARIO_H
#define SACFD_SOLVER_SCENARIO_H

#include "runtime/Schedule.h" // SpecParse
#include "solver/EulerSolver.h"
#include "solver/Problem.h"
#include "solver/RunConfig.h"
#include "solver/SchemeConfig.h"
#include "support/Hash.h"

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sacfd {

/// A parsed `name[:key=value,...]` scenario selector.
struct ScenarioSpec {
  std::string Name;
  /// Key/value pairs in spec order (keys unique; parse() rejects dups).
  std::vector<std::pair<std::string, std::string>> Params;

  /// Parses the spec grammar.  Accepted names and keys are lowercase
  /// words of letters, digits and dashes; values are any non-empty text
  /// without ',' .  Errors name the offending piece and the grammar.
  static SpecParse<ScenarioSpec> parse(std::string_view Text);

  /// \returns the value bound to \p Key, or nullptr when absent.
  const std::string *find(std::string_view Key) const {
    for (const auto &KV : Params)
      if (KV.first == Key)
        return &KV.second;
    return nullptr;
  }

  /// Canonical spec text (round-trips through parse()).
  std::string str() const;
};

/// A parameter a scenario accepts in its spec, for --help style listings
/// and key validation.
struct ScenarioParam {
  std::string Key;
  std::string Help;
};

/// The cheap checked-in regression run of a scenario: \p Cells per unit
/// resolution and a fixed step count, hashed against the reference
/// table.  Fixed steps (not an end time) so the run cost is bounded and
/// the hash does not depend on CFL step-count drift.
struct PinnedRun {
  size_t Cells = 32;
  unsigned Steps = 5;
};

/// Scheme adjustments a workload recommends (a strong blast wants a
/// lower CFL, for example).  Applied by RunConfig::resolve() only to
/// knobs the user did not pass explicitly, and by the pinned runner
/// unconditionally so reference hashes are stable.
struct ScenarioTuning {
  std::optional<double> Cfl;
  std::optional<ReconstructionKind> Recon;
};

/// Resolved build inputs handed to a scenario factory.
class ScenarioArgs {
public:
  ScenarioArgs(const ScenarioSpec &Spec, size_t Cells, unsigned GhostLayers)
      : Spec(&Spec), CellCount(Cells), Ghost(GhostLayers) {}

  /// Cells per unit resolution (the scenario default, or `cells=N`).
  size_t cells() const { return CellCount; }
  /// Ghost layers the resolved reconstruction needs.
  unsigned ghostLayers() const { return Ghost; }

  /// Typed parameter accessors: the declared default when the key is
  /// absent, a structured error when the value does not parse.
  SpecParse<unsigned> getUnsigned(std::string_view Key,
                                  unsigned Default) const;
  SpecParse<double> getDouble(std::string_view Key, double Default) const;

private:
  const ScenarioSpec *Spec;
  size_t CellCount;
  unsigned Ghost;
};

/// One registered workload of rank \p Dim.
template <unsigned Dim> struct Scenario {
  /// Registry key; also the spec name (lowercase-dash).
  std::string Name;
  /// One-line description for gallery listings.
  std::string Summary;
  /// Recommended cells-per-unit resolution for a real run.
  size_t DefaultCells = 100;
  /// The pinned regression run (see PinnedRun).
  PinnedRun Pinned;
  /// Recommended scheme adjustments (may be empty).
  ScenarioTuning Tuning;
  /// Extra spec keys beyond the built-in `cells`.
  std::vector<ScenarioParam> Params;
  /// Factory: builds the problem or reports a structured error (bad
  /// parameter values).  The registry verifies hasEndTime() afterwards.
  std::function<SpecParse<Problem<Dim>>(const ScenarioArgs &)> Build;
};

/// Dim-agnostic scenario metadata for listings.
struct ScenarioInfo {
  std::string Name;
  unsigned Dim = 0;
  std::string Summary;
  size_t DefaultCells = 0;
  PinnedRun Pinned;
  std::vector<ScenarioParam> Params;
  /// Reference hash for the pinned run, when one is checked in.
  std::optional<uint64_t> Reference;
};

/// The process-wide scenario table.
class ScenarioRegistry {
public:
  /// The registry with every built-in scenario registered.
  static ScenarioRegistry &instance();

  /// Adds a scenario; later registrations of the same name win (the
  /// latest-wins rule lets tests shadow built-ins).
  void add(Scenario<1> S);
  void add(Scenario<2> S);

  /// Records the reference hash of \p Name's pinned run.
  void setReferenceHash(std::string Name, uint64_t Hash);
  /// \returns the checked-in pinned-run hash, if any.
  std::optional<uint64_t> referenceHash(std::string_view Name) const;

  /// \returns the scenario named \p Name at rank \p Dim, or nullptr.
  template <unsigned Dim>
  const Scenario<Dim> *find(std::string_view Name) const {
    for (const Scenario<Dim> &S : list<Dim>())
      if (S.Name == Name)
        return &S;
    return nullptr;
  }

  /// The rank of scenario \p Name, or 0 when unknown.
  unsigned dimOf(std::string_view Name) const;

  /// Recommended tuning for \p Name, or nullptr when unknown.
  const ScenarioTuning *tuningFor(std::string_view Name) const;

  /// Metadata for every scenario, sorted by (Dim, Name).
  std::vector<ScenarioInfo> infos() const;

  /// Comma-separated sorted scenario names (for error messages).
  std::string namesStr() const;

  /// Checks \p Spec against the table without building: unknown name and
  /// undeclared keys are structured errors.  \p Dim 0 accepts any rank;
  /// otherwise the scenario must have that rank.
  SpecParse<ScenarioSpec> validate(const ScenarioSpec &Spec,
                                   unsigned Dim = 0) const;

  /// Builds the problem \p Spec selects at rank \p Dim: validates the
  /// spec, resolves `cells` (scenario default when absent), sizes ghost
  /// layers for \p Scheme's reconstruction, runs the factory, and
  /// rejects any result without a positive EndTime.
  template <unsigned Dim>
  SpecParse<Problem<Dim>> buildProblem(const ScenarioSpec &Spec,
                                       const SchemeConfig &Scheme) const;

  /// The per-rank scenario lists, registration order.
  template <unsigned Dim> const std::vector<Scenario<Dim>> &list() const {
    if constexpr (Dim == 1)
      return S1;
    else
      return S2;
  }

private:
  ScenarioRegistry();

  template <unsigned Dim> std::vector<Scenario<Dim>> &mutableList() {
    if constexpr (Dim == 1)
      return S1;
    else
      return S2;
  }

  std::vector<Scenario<1>> S1;
  std::vector<Scenario<2>> S2;
  std::vector<std::pair<std::string, uint64_t>> References;
};

/// Static-init registration hook for out-of-tree/test scenarios:
///   static ScenarioRegistrar<2> X(myScenario());
template <unsigned Dim> struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario<Dim> S) {
    ScenarioRegistry::instance().add(std::move(S));
  }
};

/// FNV-1a hash of the solver's observable state: every interior
/// conserved component in row-major order (bitwise doubles), then the
/// step count and the bitwise clock.  Both engines produce bit-identical
/// fields, so one reference hash serves array and fused alike.
template <unsigned Dim> uint64_t fieldStateHash(const EulerSolver<Dim> &S) {
  const Grid<Dim> &G = S.problem().Domain;
  const Field<Dim> &U = S.field();
  uint64_t H = FnvOffsetBasis;
  auto HashDouble = [&H](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    H = fnv1a(&Bits, sizeof(Bits), H);
  };
  Shape Interior = G.interiorShape();
  Index Iv = Interior.delinearize(0);
  if (Interior.count() > 0) {
    do {
      const Cons<Dim> Q = U.at(G.toStorage(Iv));
      HashDouble(Q.Rho);
      for (unsigned A = 0; A < Dim; ++A)
        HashDouble(Q.Mom[A]);
      HashDouble(Q.E);
    } while (Interior.increment(Iv));
  }
  uint64_t Steps = S.stepCount();
  H = fnv1a(&Steps, sizeof(Steps), H);
  HashDouble(S.time());
  return H;
}

/// fieldStateHash over an already-stitched interior buffer (\p Count
/// cells in global row-major order) — the shard coordinator's view of
/// the same observable state.  Component order per cell matches the
/// solver overload exactly, so an N-shard stitched hash equals the
/// single-process hash when the fields match bit for bit.
template <unsigned Dim>
uint64_t fieldStateHash(const Cons<Dim> *Interior, size_t Count,
                        unsigned StepCount, double Time) {
  uint64_t H = FnvOffsetBasis;
  auto HashDouble = [&H](double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    H = fnv1a(&Bits, sizeof(Bits), H);
  };
  for (size_t I = 0; I < Count; ++I) {
    const Cons<Dim> &Q = Interior[I];
    HashDouble(Q.Rho);
    for (unsigned A = 0; A < Dim; ++A)
      HashDouble(Q.Mom[A]);
    HashDouble(Q.E);
  }
  uint64_t Steps = StepCount;
  H = fnv1a(&Steps, sizeof(Steps), H);
  HashDouble(Time);
  return H;
}

/// Outcome of one pinned regression run.
struct PinnedResult {
  std::string Name;
  unsigned Dim = 0;
  size_t Cells = 0;
  unsigned Steps = 0;
  double Time = 0.0;   ///< solver clock after the run
  double WallMs = 0.0; ///< wall-clock cost
  uint64_t Hash = 0;
  std::optional<uint64_t> Expected;

  /// True when a reference exists and the run reproduced it.
  bool matched() const { return Expected && Hash == *Expected; }
};

/// Runs scenario \p Name's pinned configuration on \p Engine (serial
/// backend, one thread, figure scheme with the scenario tuning applied)
/// and hashes the final state.  Structured error for unknown names or a
/// failing factory.
SpecParse<PinnedResult> runPinnedScenario(std::string_view Name,
                                          EngineKind Engine);

/// The one-line recipe for refreshing the reference table after an
/// intentional numerics change (printed by failing regression checks).
std::string rebaselineHint();

// --- implementation ----------------------------------------------------

template <unsigned Dim>
SpecParse<Problem<Dim>>
ScenarioRegistry::buildProblem(const ScenarioSpec &Spec,
                               const SchemeConfig &Scheme) const {
  using Result = SpecParse<Problem<Dim>>;
  SpecParse<ScenarioSpec> Checked = validate(Spec, Dim);
  if (!Checked)
    return Result::fail(Checked.Error);
  const Scenario<Dim> *S = find<Dim>(Spec.Name);
  // validate(Dim) guarantees presence at this rank.
  size_t Cells = S->DefaultCells;
  if (const std::string *Text = Spec.find("cells")) {
    SpecParse<unsigned> N = ScenarioArgs(Spec, 0, 0).getUnsigned("cells", 0);
    if (!N)
      return Result::fail(N.Error);
    if (*N.Value == 0)
      return Result::fail("scenario '" + Spec.Name +
                          "': cells must be positive, got '" + *Text + "'");
    Cells = *N.Value;
  }
  ScenarioArgs Args(Spec, Cells, ghostCells(Scheme.Recon));
  SpecParse<Problem<Dim>> Built = S->Build(Args);
  if (!Built)
    return Built;
  if (!Built.Value->hasEndTime())
    return Result::fail(
        "scenario '" + Spec.Name +
        "' produced a problem without an end time (EndTime must be " +
        "positive; factories may not rely on a default)");
  return Built;
}

} // namespace sacfd

#endif // SACFD_SOLVER_SCENARIO_H
