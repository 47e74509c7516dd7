#include "layers.h"

#include <map>

namespace perfbench {

namespace {

using falcon::PipelineStage;

constexpr std::pair<PipelineStage, const char*> kOps[] = {
    {PipelineStage::kSamplePairs, "sample_pairs"},
    {PipelineStage::kGenFvsSample, "gen_fvs_s"},
    {PipelineStage::kBlockerAl, "al_blocker"},
    {PipelineStage::kGetRules, "get_block_rules"},
    {PipelineStage::kEvalRules, "eval_rules"},
    {PipelineStage::kSelectSeq, "sel_opt_seq"},
    {PipelineStage::kApplyRules, "apply_block_rules"},
    {PipelineStage::kGenFvsCand, "gen_fvs_c"},
    {PipelineStage::kMatcherAl, "al_matcher"},
    {PipelineStage::kApplyMatcher, "apply_matcher"},
};

bool IsIndexJob(const std::string& name) {
  for (const char* prefix :
       {"build-", "token-", "tokenize-store", "sample-index"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"job_wall_s", "s"},
      {"job_cpu_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sessions_per_hour", "1/h"},
      {"session_latency_s.p50", "s"},
      {"step_ms.tail", "ms"},
      {"fair_share_ratio", "ratio"},
      {"f1", "fraction"},
      {"crowd_cost_usd", "usd"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const auto& [stage, op] : kOps) {
      d.push_back({std::string("core.") + op + ".wall_s", "s"});
      d.push_back({std::string("core.") + op + ".cpu_s", "s"});
    }
    const std::vector<MetricDef> rest = {
        {"core.stage_coverage", "ratio"},
        {"core.vtime_machine_s", "s"},
        {"core.vtime_unmasked_s", "s"},
        {"core.vtime_total_s", "s"},
        {"core.f1", "fraction"},
        {"mapreduce.jobs", "count"},
        {"mapreduce.tasks", "count"},
        {"mapreduce.task_vtime_s", "s"},
        {"mapreduce.intermediate_bytes", "bytes"},
        {"mapreduce.straggler_ratio", "ratio"},
        {"mapreduce.parallelism", "ratio"},
        {"blocking.spec_rules", "count"},
        {"blocking.spec_reused", "count"},
        {"blocking.spec_pairs", "count"},
        {"blocking.candidates", "count"},
        {"blocking.recall", "fraction"},
        {"blocking.kept_per_enumerated", "ratio"},
        {"index.builds", "count"},
        {"index.build_vtime_s", "s"},
        {"text.intersect_calls", "count"},
        {"text.simd_share", "fraction"},
        {"text.early_exit_ratio", "fraction"},
        {"rules.features_per_pair", "count"},
        {"learn.trees_per_pair", "count"},
        {"common.alloc_count", "count"},
        {"common.alloc_bytes", "bytes"},
        {"crowd.batches", "count"},
        {"crowd.questions", "count"},
        {"crowd.cost_usd", "usd"},
        {"crowd.vtime_s", "s"},
        {"crowd.call_ms", "ms"},
        {"crowd.failed_batches", "count"},
        {"session.steps", "count"},
        {"session.step_ms.p50", "ms"},
        {"session.step_ms.al_matcher", "ms"},
        {"session.step_ms.other", "ms"},
        {"session.admissions", "count"},
        {"session.evictions", "count"},
        {"session.resumes", "count"},
        {"session.peak_resident", "count"},
        {"session.queue_wait_s.p50", "s"},
        {"session.worker_busy", "ratio"},
        {"table.load_s", "s"},
        {"trace.overhead_pct", "%"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

const char* OpName(PipelineStage stage) {
  for (const auto& [s, name] : kOps) {
    if (s == stage) return name;
  }
  return falcon::PipelineStageName(stage);
}

void ZeroLayers(Counts* c) {
  for (const MetricDef& d : PerLayerDefs()) (*c)[d.name] += 0.0;
}

void CountJobs(const std::vector<falcon::JobStats>& jobs, size_t from,
               bool speculative, Counts* c) {
  Counts& n = *c;
  for (size_t i = from; i < jobs.size(); ++i) {
    const falcon::JobStats& j = jobs[i];
    n["mapreduce.jobs"] += 1;
    n["mapreduce.tasks"] +=
        static_cast<double>(j.num_map_tasks + j.num_reduce_tasks);
    n["mapreduce.intermediate_bytes"] +=
        static_cast<double>(j.intermediate_bytes);
    for (const falcon::TaskLoadStats* load : {&j.map_load, &j.reduce_load}) {
      n["mapreduce.task_vtime_s"] +=
          load->mean_seconds * static_cast<double>(load->tasks);
      // Phases with one task have no straggler; they stay out of the mean.
      if (load->tasks > 1) {
        n["mapreduce.straggler_sum"] += load->straggler_ratio;
        n["mapreduce.phases"] += 1;
      }
    }
    if (IsIndexJob(j.name)) {
      n["index.builds"] += 1;
      n["index.build_vtime_s"] += j.Total().seconds;
    } else if (speculative) {
      n["blocking.spec_pairs"] += static_cast<double>(j.output_records);
    }
  }
}

void CountRunMetrics(const falcon::RunMetrics& m, Counts* c) {
  Counts& n = *c;
  n["text.intersect_calls"] += static_cast<double>(
      m.intersect_scalar + m.intersect_small + m.intersect_gallop +
      m.intersect_simd);
  n["text.simd_calls"] += static_cast<double>(m.intersect_simd);
  n["text.early_exits"] += static_cast<double>(m.intersect_early_exit);
  n["rules.features_per_pair"] += m.matcher_features_per_pair;
  n["learn.trees_per_pair"] += m.matcher_trees_per_pair;
  n["common.alloc_count"] += static_cast<double>(m.alloc_count);
  n["common.alloc_bytes"] += static_cast<double>(m.alloc_bytes);
}

void FinishCounts(double runs, Counts* c) {
  Counts& n = *c;
  const double calls = n["text.intersect_calls"];
  n["text.simd_share"] = Ratio(n["text.simd_calls"], calls);
  n["text.early_exit_ratio"] = Ratio(n["text.early_exits"], calls);
  n["rules.features_per_pair"] = Ratio(n["rules.features_per_pair"], runs);
  n["learn.trees_per_pair"] = Ratio(n["learn.trees_per_pair"], runs);
  n["mapreduce.straggler_ratio"] =
      n["mapreduce.phases"] > 0
          ? n["mapreduce.straggler_sum"] / n["mapreduce.phases"]
          : 1.0;
  n["blocking.kept_per_enumerated"] =
      Ratio(n["blocking.candidates"], n["blocking.spec_pairs"]);
  n["crowd.call_ms"] = Ratio(n["crowd.call_ms_sum"], n["crowd.batches"]);
  for (const char* helper :
       {"text.simd_calls", "text.early_exits", "mapreduce.straggler_sum",
        "mapreduce.phases", "crowd.call_ms_sum"}) {
    n.erase(helper);
  }
}

void ReportLayers(const std::vector<Counts>& traced, double untraced_wall_s,
                  double traced_wall_s, RunOutput* out) {
  std::map<std::string, std::vector<double>> by_key;
  for (const Counts& c : traced) {
    for (const auto& [key, value] : c) by_key[key].push_back(value);
  }
  for (const auto& [key, values] : by_key) {
    out->per_layer.push_back({key, Median(values), ""});
  }
  out->per_layer.push_back(
      {"trace.overhead_pct",
       100.0 * Ratio(traced_wall_s - untraced_wall_s, untraced_wall_s), "%"});
}

}  // namespace perfbench
