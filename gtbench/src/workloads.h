// The benchmark workloads. See gtbench/README.md for why each exists
// and which per-layer metric is expected to move which end-to-end metric.
#pragma once

#include "harness.h"

namespace gtb {

// Names accepted by --workload.
inline constexpr const char* kWorkloads[] = {"rmat-deep", "darshan-ingest",
                                             "darshan-audit-mix"};

// Runs one workload end to end: repeated set-up (median reported as
// setup_s), the timed window(s), correctness gates, and every metric.
// Returns false for an unknown workload name.
bool RunWorkload(const Options& opt, Report* report, Tracer* tracer);

}  // namespace gtb
