//===- runtime/SpinBarrierPool.cpp - Persistent spin-sync pool -----------===//

#include "runtime/SpinBarrierPool.h"

#include "runtime/ParallelRegion.h"

using namespace sacfd;

void SpinBarrierPool::parallelFor(size_t Begin, size_t End, RangeBody Body) {
  if (Begin >= End)
    return;
  if (inParallelRegion()) {
    Body(Begin, End);
    return;
  }
  countRegion();
  // Covers broadcast, master share and the spin barrier — the persistent
  // pool's whole per-region cost.
  static const unsigned Region = telemetry::spanId("region.spin_pool");
  telemetry::ScopedSpan Span(Region);
  // Every worker computes its own share without touching shared state;
  // the calling thread is worker 0.
  Team.run([&](unsigned W) {
    IterationChunk Share = staticBlockShare(End - Begin, Team.size(), W);
    if (Share.Begin != Share.End)
      Body(Begin + Share.Begin, Begin + Share.End);
  });
}

void SpinBarrierPool::parallelFor2D(size_t Rows, size_t Cols,
                                    RangeBody2D Body) {
  if (Rows == 0 || Cols == 0)
    return;
  if (!tile().Enabled || inParallelRegion()) {
    Backend::parallelFor2D(Rows, Cols, Body);
    return;
  }
  // Tiles go through the pool's broadcast slot as a 1D tile range, so one
  // dispatch (two shared-memory round trips) covers the whole 2D space.
  runTileGrid(TileGrid(Rows, Cols, tile()), tile().Dealing, Body);
}
