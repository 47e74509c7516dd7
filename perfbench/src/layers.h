// The per-layer metrics: their names, and the counting that the batch and
// service workloads share when deriving them from spans, the cluster's job
// history and each run's RunMetrics.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "mapreduce/cluster.h"
#include "trace.h"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every end-to-end and per-layer metric, in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndDefs();
const std::vector<MetricDef>& PerLayerDefs();

/// Name of a pipeline stage in the core.<op>.* metrics.
const char* OpName(falcon::PipelineStage stage);
/// Adds every per-layer metric to `c` at 0, so a layer a workload never
/// reaches (an op a plan skips, a failure that never happens) still
/// reports.
void ZeroLayers(Counts* c);

/// Adds the MapReduce and index-build totals of jobs[from, end) to `c`.
/// With `speculative`, the output records of the jobs that are not index
/// builds count as blocking.spec_pairs (the eval_rules stage's speculative
/// rule applications).
void CountJobs(const std::vector<falcon::JobStats>& jobs, size_t from,
               bool speculative, Counts* c);
/// Adds one run's text/rules/learn/common counters to `c`.
void CountRunMetrics(const falcon::RunMetrics& m, Counts* c);
/// Turns the sums of CountJobs and CountRunMetrics over `runs` runs into
/// the reported ratios and per-run means.
void FinishCounts(double runs, Counts* c);

/// Fills out->per_layer with the median of each metric over the traced
/// jobs or bursts, plus trace.overhead_pct: how much longer the median
/// traced one took than the median untraced one, in percent.
void ReportLayers(const std::vector<Counts>& traced, double untraced_wall_s,
                  double traced_wall_s, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
