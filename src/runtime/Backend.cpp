//===- runtime/Backend.cpp - Parallel execution backend interface --------===//

#include "runtime/Backend.h"

#include "runtime/ParallelRegion.h"

using namespace sacfd;

// Out-of-line virtual method anchor.
Backend::~Backend() = default;

namespace {
thread_local bool InParallelRegion = false;
} // namespace

bool sacfd::inParallelRegion() { return InParallelRegion; }

ParallelRegionGuard::ParallelRegionGuard() { InParallelRegion = true; }

ParallelRegionGuard::~ParallelRegionGuard() { InParallelRegion = false; }
