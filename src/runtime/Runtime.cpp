//===- runtime/Runtime.cpp - Backend selection and creation --------------===//

#include "runtime/Runtime.h"

#include "runtime/ForkJoinBackend.h"
#include "runtime/OmpBackend.h"
#include "runtime/SerialBackend.h"
#include "runtime/SpinBarrierPool.h"
#include "runtime/TaskBackend.h"
#include "support/Error.h"
#include "support/StrUtil.h"

using namespace sacfd;

const char *sacfd::backendKindName(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Serial:
    return "serial";
  case BackendKind::SpinPool:
    return "spin-pool";
  case BackendKind::ForkJoin:
    return "fork-join";
  case BackendKind::OpenMp:
    return "openmp";
  case BackendKind::Tasks:
    return "tasks";
  }
  sacfdUnreachable("covered switch");
}

std::optional<BackendKind> sacfd::parseBackendKind(std::string_view Text) {
  std::string_view Name = trim(Text);
  if (equalsLower(Name, "serial"))
    return BackendKind::Serial;
  if (equalsLower(Name, "spin-pool") || equalsLower(Name, "spinpool") ||
      equalsLower(Name, "sac"))
    return BackendKind::SpinPool;
  if (equalsLower(Name, "fork-join") || equalsLower(Name, "forkjoin") ||
      equalsLower(Name, "fortran"))
    return BackendKind::ForkJoin;
  if (equalsLower(Name, "openmp") || equalsLower(Name, "omp"))
    return BackendKind::OpenMp;
  if (equalsLower(Name, "tasks") || equalsLower(Name, "task"))
    return BackendKind::Tasks;
  return std::nullopt;
}

std::unique_ptr<Backend> sacfd::createBackend(BackendKind Kind,
                                              unsigned Threads,
                                              Schedule Sched) {
  switch (Kind) {
  case BackendKind::Serial:
    return std::make_unique<SerialBackend>();
  case BackendKind::SpinPool:
    return std::make_unique<SpinBarrierPool>(Threads);
  case BackendKind::ForkJoin:
    return std::make_unique<ForkJoinBackend>(Threads, Sched);
  case BackendKind::OpenMp:
    return createOmpBackend(Threads);
  case BackendKind::Tasks:
    return std::make_unique<TaskBackend>(Threads, Sched);
  }
  sacfdUnreachable("covered switch");
}
