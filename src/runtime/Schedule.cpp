//===- runtime/Schedule.cpp - Loop iteration scheduling policies ---------===//

#include "runtime/Schedule.h"

#include "support/Error.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace sacfd;

SpecParse<Schedule> Schedule::parseSpec(std::string_view Text) {
  if (trim(Text).empty())
    return SpecParse<Schedule>::fail(
        "empty schedule spec (expected static[,N] or dynamic[,N])");
  std::vector<std::string> Parts = split(trim(Text), ',');
  if (Parts.size() > 2)
    return SpecParse<Schedule>::fail(
        "schedule spec '" + std::string(trim(Text)) +
        "' has too many fields (expected kind[,chunk])");

  Schedule Sched;
  std::string_view Name = trim(Parts[0]);
  if (equalsLower(Name, "static"))
    Sched.K = Parts.size() == 2 ? Kind::StaticChunk : Kind::StaticBlock;
  else if (equalsLower(Name, "dynamic"))
    Sched.K = Kind::Dynamic;
  else
    return SpecParse<Schedule>::fail("unknown schedule kind '" +
                                     std::string(Name) +
                                     "' (expected static or dynamic)");

  if (Parts.size() == 2) {
    std::optional<long long> Chunk = parseInt(Parts[1]);
    if (!Chunk || *Chunk <= 0)
      return SpecParse<Schedule>::fail(
          "bad schedule chunk '" + std::string(trim(Parts[1])) +
          "' (expected a positive integer)");
    Sched.ChunkSize = static_cast<size_t>(*Chunk);
  }
  return SpecParse<Schedule>::ok(Sched);
}

std::string Schedule::str() const {
  std::string Name;
  switch (K) {
  case Kind::StaticBlock:
    return "static";
  case Kind::StaticChunk:
    Name = "static";
    break;
  case Kind::Dynamic:
    Name = "dynamic";
    break;
  }
  if (ChunkSize != 0)
    Name += "," + std::to_string(ChunkSize);
  return Name;
}

size_t Schedule::resolvedChunk(size_t N, unsigned Workers) const {
  assert(Workers > 0 && "worker count must be positive");
  if (ChunkSize != 0)
    return ChunkSize;
  switch (K) {
  case Kind::StaticBlock:
    // One block per worker, rounded up.
    return (N + Workers - 1) / Workers;
  case Kind::StaticChunk:
  case Kind::Dynamic:
    // Mirror common OpenMP practice: enough chunks for some load balance
    // without flooding the dispatch path.
    return std::max<size_t>(1, N / (8 * static_cast<size_t>(Workers)));
  }
  sacfdUnreachable("covered switch");
}

std::vector<std::vector<IterationChunk>>
sacfd::staticPartition(size_t N, unsigned Workers, const Schedule &Sched) {
  assert(Sched.K != Schedule::Kind::Dynamic &&
         "dynamic schedules have no static partition");
  assert(Workers > 0 && "worker count must be positive");

  std::vector<std::vector<IterationChunk>> Plan(Workers);
  if (N == 0)
    return Plan;

  if (Sched.K == Schedule::Kind::StaticBlock) {
    for (unsigned W = 0; W < Workers; ++W) {
      IterationChunk Share = staticBlockShare(N, Workers, W);
      if (Share.Begin != Share.End)
        Plan[W].push_back(Share);
    }
    return Plan;
  }

  size_t Chunk = Sched.resolvedChunk(N, Workers);
  unsigned W = 0;
  for (size_t Begin = 0; Begin < N; Begin += Chunk) {
    Plan[W].push_back({Begin, std::min(Begin + Chunk, N)});
    W = (W + 1) % Workers;
  }
  return Plan;
}

TileGrid::TileGrid(size_t Rows, size_t Cols, size_t TileRows,
                   size_t TileCols)
    : Rows(Rows), Cols(Cols) {
  if (Rows == 0 || Cols == 0)
    return;
  TileR = std::clamp<size_t>(TileRows, 1, Rows);
  TileC = std::clamp<size_t>(TileCols, 1, Cols);
  RowTiles = (Rows + TileR - 1) / TileR;
  ColTiles = (Cols + TileC - 1) / TileC;
}

TileRect TileGrid::rect(size_t T) const {
  assert(T < count() && "tile index out of range");
  size_t TR = T / ColTiles;
  size_t TC = T % ColTiles;
  TileRect R;
  R.RowBegin = TR * TileR;
  R.RowEnd = std::min(R.RowBegin + TileR, Rows);
  R.ColBegin = TC * TileC;
  R.ColEnd = std::min(R.ColBegin + TileC, Cols);
  return R;
}
