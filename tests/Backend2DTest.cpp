//===- tests/Backend2DTest.cpp - Rank-2 dispatch conformance tests --------===//
//
// The 2D iteration-space contract.  A rank-2 space reaches a backend in
// one of two shapes: row-flattened (the line range goes through
// parallelFor and every body sweeps whole lines — how every loop nest,
// with-loop and GetDT reduction runs) or as the TileGrid that is the DAG
// step mode's grain.  Every backend must visit each (row, col) cell
// exactly once in either shape — at any worker count and under every
// dealing schedule — count exactly one region per non-empty call, and
// reduce exactly.  The solver half pins the fields and telemetry of the
// real engines: how the lines are dealt (one block per worker, fixed
// chunks, dynamically) may only reorder the arithmetic, never change it.
//
//===----------------------------------------------------------------------===//

#include "runtime/BlockReduce.h"
#include "runtime/Runtime.h"
#include "solver/ArraySolver.h"
#include "solver/Diagnostics.h"
#include "solver/FusedSolver.h"
#include "solver/Problems.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace sacfd;

namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr BackendKind kAllKinds[] = {BackendKind::Serial,
                                     BackendKind::ForkJoin,
                                     BackendKind::SpinPool,
                                     BackendKind::Tasks};

/// How a case hands the 2D space to the backend.
struct Shape2D {
  enum class Kind { Rows, AutoTiles, SizedTiles };
  Kind K = Kind::Rows;
  size_t TileRows = 0;
  size_t TileCols = 0;
  /// The schedule the backend deals rows or tiles under.
  Schedule Dealing = Schedule::staticBlock();

  static Shape2D rows() { return {}; }
  static Shape2D autoTiles() { return {Kind::AutoTiles, 0, 0, {}}; }
  static Shape2D tiles(size_t R, size_t C,
                       Schedule D = Schedule::staticBlock()) {
    return {Kind::SizedTiles, R, C, D};
  }

  /// The tile decomposition of a (Rows x Cols) space: the DAG step
  /// mode's 32 x 128 grain for AutoTiles, the given size otherwise.
  TileGrid grid(size_t Rows, size_t Cols) const {
    if (K == Kind::AutoTiles)
      return FusedSolver<2>::stepDagTiles(Rows, Cols);
    return TileGrid(Rows, Cols, TileRows, TileCols);
  }

  std::string str() const {
    switch (K) {
    case Kind::Rows:
      return "off";
    case Kind::AutoTiles:
      return "auto_" + Dealing.str();
    case Kind::SizedTiles:
      return std::to_string(TileRows) + "x" + std::to_string(TileCols) +
             "_" + Dealing.str();
    }
    return "?";
  }
};

/// Visits the (Rows x Cols) space as rectangles through one parallelFor:
/// whole-line row blocks, or the tiles of \p Sh's grid in row-major
/// order.  Empty spaces dispatch nothing.
template <typename RectFn>
void dispatch2D(Backend &B, const Shape2D &Sh, size_t Rows, size_t Cols,
                RectFn &&Body) {
  if (Rows == 0 || Cols == 0)
    return;
  if (Sh.K == Shape2D::Kind::Rows) {
    B.parallelFor(0, Rows, [&](size_t RB, size_t RE) {
      Body(RB, RE, size_t{0}, Cols);
    });
    return;
  }
  TileGrid G = Sh.grid(Rows, Cols);
  B.parallelFor(0, G.count(), [&](size_t TB, size_t TE) {
    for (size_t T = TB; T != TE; ++T) {
      TileRect R = G.rect(T);
      Body(R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd);
    }
  });
}

struct Backend2DCase {
  BackendKind Kind;
  unsigned Threads;
  Shape2D Space;

  std::string label() const {
    std::string S = backendKindName(Kind);
    S += "_t" + std::to_string(Threads) + "_" + Space.str();
    for (char &C : S)
      if (C == '-' || C == ',')
        C = '_';
    return S;
  }
};

std::vector<Backend2DCase> allCases() {
  std::vector<Backend2DCase> Cases;
  const Shape2D Spaces[] = {
      Shape2D::rows(),
      Shape2D::autoTiles(),
      Shape2D::tiles(3, 5), // deliberately ragged vs the test extents
      Shape2D::tiles(4, 16, Schedule::staticChunk(2)),
      Shape2D::tiles(4, 16, Schedule::dynamic(1)),
  };
  for (BackendKind Kind : kAllKinds)
    for (unsigned Threads : kWorkerCounts) {
      if (Kind == BackendKind::Serial && Threads != 1)
        continue;
      for (const Shape2D &Sp : Spaces)
        Cases.push_back({Kind, Threads, Sp});
    }
  return Cases;
}

class ParallelFor2DTest : public ::testing::TestWithParam<Backend2DCase> {
protected:
  std::unique_ptr<Backend> makeBackend() const {
    const Backend2DCase &C = GetParam();
    return createBackend(C.Kind, C.Threads, C.Space.Dealing);
  }

  template <typename RectFn>
  void dispatch(Backend &B, size_t Rows, size_t Cols, RectFn &&Body) const {
    dispatch2D(B, GetParam().Space, Rows, Cols, std::forward<RectFn>(Body));
  }
};

} // namespace

TEST_P(ParallelFor2DTest, EachCellRunsExactlyOnce) {
  auto B = makeBackend();
  constexpr size_t Rows = 43, Cols = 67; // primes: ragged edge tiles
  std::vector<std::atomic<int>> Hits(Rows * Cols);
  for (auto &H : Hits)
    H.store(0);

  dispatch(*B, Rows, Cols,
           [&Hits](size_t RB, size_t RE, size_t CB, size_t CE) {
             for (size_t R = RB; R < RE; ++R)
               for (size_t C = CB; C < CE; ++C)
                 Hits[R * Cols + C].fetch_add(1, std::memory_order_relaxed);
           });

  for (size_t I = 0; I < Rows * Cols; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "cell " << I;
}

TEST_P(ParallelFor2DTest, RectsStayInBounds) {
  auto B = makeBackend();
  constexpr size_t Rows = 19, Cols = 31;
  std::atomic<bool> Ok{true};
  dispatch(*B, Rows, Cols, [&Ok](size_t RB, size_t RE, size_t CB, size_t CE) {
    if (RB >= RE || CB >= CE || RE > Rows || CE > Cols)
      Ok.store(false);
  });
  EXPECT_TRUE(Ok.load());
}

TEST_P(ParallelFor2DTest, CountsExactlyOneRegionPerCall) {
  auto B = makeBackend();
  uint64_t Before = B->regionsDispatched();
  dispatch(*B, 16, 16, [](size_t, size_t, size_t, size_t) {});
  EXPECT_EQ(B->regionsDispatched(), Before + 1);

  // Empty spaces dispatch nothing.
  dispatch(*B, 0, 16, [](size_t, size_t, size_t, size_t) {});
  dispatch(*B, 16, 0, [](size_t, size_t, size_t, size_t) {});
  EXPECT_EQ(B->regionsDispatched(), Before + 1);
}

TEST_P(ParallelFor2DTest, NestedCallsFallBackInline) {
  auto B = makeBackend();
  constexpr size_t Rows = 8, Cols = 8;
  std::vector<std::atomic<int>> Hits(Rows * Cols);
  for (auto &H : Hits)
    H.store(0);
  B->parallelFor(0, 2, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      dispatch(*B, Rows, Cols,
               [&](size_t RB, size_t RE, size_t CB, size_t CE) {
                 for (size_t R = RB; R < RE; ++R)
                   for (size_t C = CB; C < CE; ++C)
                     Hits[R * Cols + C].fetch_add(1,
                                                  std::memory_order_relaxed);
               });
  });
  for (size_t I = 0; I < Rows * Cols; ++I)
    ASSERT_EQ(Hits[I].load(), 2) << "cell " << I;
}

TEST_P(ParallelFor2DTest, BlockReduce2DMatchesSerialSum) {
  auto B = makeBackend();
  constexpr size_t Rows = 37, Cols = 53;
  // Max of a cell-unique function: exact under any grouping, so the
  // result must be identical no matter how the space is carved.
  auto FoldRect = [](size_t RB, size_t RE, size_t CB, size_t CE) {
    double M = -1.0;
    for (size_t R = RB; R < RE; ++R)
      for (size_t C = CB; C < CE; ++C)
        M = std::max(M, static_cast<double>(R * 1000 + C));
    return M;
  };
  auto Max = [](double A, double Bv) { return std::max(A, Bv); };
  const Shape2D &Sp = GetParam().Space;
  double Got;
  if (Sp.K == Shape2D::Kind::Rows) {
    // The GetDT shape: line blocks folded over whole lines.
    Got = blockReduce<double>(
        Rows, *B, -1.0,
        [&](size_t RB, size_t RE) { return FoldRect(RB, RE, 0, Cols); },
        Max);
  } else {
    // The DAG's: per-tile partials merged in tile order.
    TileGrid G = Sp.grid(Rows, Cols);
    Got = blockReduce<double>(
        G.count(), *B, -1.0,
        [&](size_t TB, size_t TE) {
          double M = -1.0;
          for (size_t T = TB; T != TE; ++T) {
            TileRect R = G.rect(T);
            M = std::max(M,
                         FoldRect(R.RowBegin, R.RowEnd, R.ColBegin, R.ColEnd));
          }
          return M;
        },
        Max);
  }
  EXPECT_EQ(Got, static_cast<double>((Rows - 1) * 1000 + (Cols - 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelFor2DTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<Backend2DCase> &Info) {
      return Info.param.label();
    });

TEST(TileGridTest, ResolvesAutomaticAndClampsToExtents) {
  // The DAG step mode's grain: 32 x 128 tiles whatever the grid.
  for (size_t Cells : {130u, 256u, 400u, 1000u}) {
    TileGrid G = FusedSolver<2>::stepDagTiles(Cells, Cells);
    EXPECT_EQ(G.tileRows(), 32u) << Cells;
    EXPECT_EQ(G.tileCols(), 128u) << Cells;
    EXPECT_EQ(G.rowTiles(), (Cells + 31) / 32) << Cells;
    EXPECT_EQ(G.colTiles(), (Cells + 127) / 128) << Cells;
  }
  // Clipped to the extents: a 96^2 grid runs three 32 x 96 tiles, and
  // a 1D line one tile per 128 cells.
  TileGrid Small = FusedSolver<2>::stepDagTiles(96, 96);
  EXPECT_EQ(Small.tileCols(), 96u);
  EXPECT_EQ(Small.count(), 3u);
  EXPECT_EQ(FusedSolver<1>::stepDagTiles(1, 400).count(), 4u);

  // Requested tiles larger than the space clamp to one tile.
  TileGrid Clamped(10, 20, 64, 64);
  EXPECT_EQ(Clamped.tileRows(), 10u);
  EXPECT_EQ(Clamped.tileCols(), 20u);
  EXPECT_EQ(Clamped.count(), 1u);

  // Zero-sized tiles clamp up to one cell.
  TileGrid Unit(3, 4, 0, 0);
  EXPECT_EQ(Unit.tileRows(), 1u);
  EXPECT_EQ(Unit.tileCols(), 1u);
  EXPECT_EQ(Unit.count(), 12u);

  TileGrid Empty(0, 50, 32, 128);
  EXPECT_EQ(Empty.count(), 0u);
  EXPECT_EQ(FusedSolver<2>::stepDagTiles(0, 50).count(), 0u);
}

//===----------------------------------------------------------------------===//
// Line-dealing bit-identity on the real solvers
//===----------------------------------------------------------------------===//

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

struct TelemetryDigest {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<telemetry::GaugeSeries> Gauges;
};

TelemetryDigest digest(const telemetry::MetricsReport &R) {
  TelemetryDigest D;
  for (const telemetry::CounterTotal &C : R.Counters)
    D.Counters.emplace_back(C.Name, C.Total);
  D.Gauges = R.Gauges;
  return D;
}

void expectSameTelemetry(const TelemetryDigest &Ref,
                         const TelemetryDigest &Got,
                         const std::string &Label) {
  ASSERT_EQ(Ref.Counters.size(), Got.Counters.size()) << Label;
  for (size_t I = 0; I < Ref.Counters.size(); ++I) {
    EXPECT_EQ(Ref.Counters[I].first, Got.Counters[I].first) << Label;
    EXPECT_EQ(Ref.Counters[I].second, Got.Counters[I].second)
        << Label << " counter " << Ref.Counters[I].first;
  }
  ASSERT_EQ(Ref.Gauges.size(), Got.Gauges.size()) << Label;
  for (size_t I = 0; I < Ref.Gauges.size(); ++I) {
    const telemetry::GaugeSeries &RG = Ref.Gauges[I];
    const telemetry::GaugeSeries &GG = Got.Gauges[I];
    EXPECT_EQ(RG.Name, GG.Name) << Label;
    ASSERT_EQ(RG.Samples.size(), GG.Samples.size())
        << Label << " gauge " << RG.Name;
    for (size_t S = 0; S < RG.Samples.size(); ++S)
      EXPECT_TRUE(sameBits(RG.Samples[S].Value, GG.Samples[S].Value))
          << Label << " gauge " << RG.Name << " sample " << S;
  }
}

/// Runs \p Steps of a fresh solver on a (Kind, Workers, Dealing) backend
/// with full telemetry, returning the digest and the live solver.
template <typename SolverT>
TelemetryDigest runDealt(const Problem<2> &Prob, const SchemeConfig &Scheme,
                         BackendKind Kind, unsigned Workers,
                         const Schedule &Dealing, unsigned Steps,
                         std::unique_ptr<Backend> &Exec,
                         std::unique_ptr<SolverT> &Out) {
  Exec = createBackend(Kind, Workers, Dealing);
  telemetry::reset();
  telemetry::setGaugeStride(1);
  telemetry::setEnabled(true);
  Out = std::make_unique<SolverT>(Prob, Scheme, *Exec);
  Out->advanceSteps(Steps);
  TelemetryDigest D = digest(telemetry::snapshot());
  telemetry::setEnabled(false);
  return D;
}

template <typename SolverT>
void checkDealingIdentity(const Problem<2> &Prob, const SchemeConfig &Scheme,
                          unsigned Steps) {
  // Reference: serial, one block (the whole line range).
  std::unique_ptr<Backend> RefExec;
  std::unique_ptr<SolverT> Ref;
  TelemetryDigest RefTelem =
      runDealt<SolverT>(Prob, Scheme, BackendKind::Serial, 1,
                        Schedule::staticBlock(), Steps, RefExec, Ref);
  ASSERT_FALSE(RefTelem.Counters.empty());

  const Schedule Dealings[] = {Schedule::staticChunk(3),
                               Schedule::staticChunk(7),
                               Schedule::dynamic(1)};

  for (BackendKind Kind : kAllKinds)
    for (unsigned Workers : kWorkerCounts) {
      if (Kind == BackendKind::Serial && Workers != 1)
        continue;
      for (const Schedule &D : Dealings) {
        std::unique_ptr<Backend> Exec;
        std::unique_ptr<SolverT> S;
        TelemetryDigest Telem =
            runDealt<SolverT>(Prob, Scheme, Kind, Workers, D, Steps, Exec, S);
        std::string Label = std::string(Exec->name()) + "(" +
                            std::to_string(Workers) + ") " + D.str();
        EXPECT_DOUBLE_EQ(Ref->time(), S->time()) << Label;
        EXPECT_EQ(maxFieldDifference(*Ref, *S), 0.0) << Label;
        // The telemetry stream — including the region counters — must
        // not notice the dealing: one counted region per loop nest.
        expectSameTelemetry(RefTelem, Telem, Label);
      }
    }
}

class Tiled2DIdentityTest : public ::testing::Test {
protected:
  void TearDown() override {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

} // namespace

TEST_F(Tiled2DIdentityTest, ArraySolverBenchmarkScheme) {
  checkDealingIdentity<ArraySolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                                       SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(Tiled2DIdentityTest, FusedSolverBenchmarkScheme) {
  checkDealingIdentity<FusedSolver<2>>(shockInteraction2D(24, 2.2, 12.0),
                                       SchemeConfig::benchmarkScheme(), 6);
}

TEST_F(Tiled2DIdentityTest, ArraySolverFigureScheme) {
  // WENO3 + the limiter exercise the widest stencils across chunk seams.
  checkDealingIdentity<ArraySolver<2>>(shockInteraction2D(20, 2.2, 10.0),
                                       SchemeConfig::figureScheme(), 5);
}
