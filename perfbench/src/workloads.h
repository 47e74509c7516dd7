// The benchmark's workloads. Each runs in its own process, makes its
// inputs from the seed, measures for Options::seconds and fills a
// RunOutput (end-to-end metrics from untraced work; per-layer metrics from
// traced work when Options::trace is set).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Options::threads is resolved before these run: the cluster's local
/// threads for a batch workload, the scheduler workers for the service.
void RunBatch(const Options& opts, RunOutput* out);
void RunService(const Options& opts, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
