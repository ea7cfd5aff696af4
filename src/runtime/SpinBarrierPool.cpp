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
