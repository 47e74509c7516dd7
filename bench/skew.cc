// Skew-aware sharded blocking: reduce-load balance of the engine's planned
// shuffle on skewed and uniform data.
//
// A Zipf-heavy vocabulary concentrates title tokens on a few head words, so
// a handful of A rows own most of the candidate pairs after prefix
// filtering. Every reduce phase goes through the reduce plan
// (mapreduce/skew.h), which splits those hot blocks into pair ranges and
// packs the shards largest-first onto the reduce tasks. This bench builds a
// uniform and a Zipf products workload, runs the index-backed blocking apply
// on each, and reports the per-task reduce-load distribution (reduce
// makespan, max / mean / p99 task vtime, straggler ratio), the plan's shard
// and split counts, and the build-time BlockProfile. The uniform lane is the
// low-load control: almost every pair is pruned and tasks are
// overhead-dominated. It also re-asserts the determinism contract:
// candidates must be byte-identical across local_threads {1, 4}, or the
// bench exits with an error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "blocking/apply.h"
#include "blocking/filters.h"
#include "blocking/index_builder.h"
#include "harness.h"
#include "mapreduce/cluster.h"
#include "rules/feature.h"
#include "rules/rule.h"

using namespace falcon;
using namespace falcon::bench;

namespace {

// One workload's fixed inputs: data, features, the single-rule blocking
// sequence (low title similarity -> drop), and the prebuilt index catalog.
// The catalog is built once on a throwaway cluster — index build happens
// inside the crowd-masking window and is not part of the measured apply.
struct Setup {
  GeneratedDataset data;
  FeatureSet fs;
  RuleSequence seq;
  IndexCatalog catalog;

  Setup(const WorkloadOptions& opt, double threshold) {
    data = GenerateProducts(opt);
    fs = FeatureSet::Generate(data.a, data.b);
    fs.BuildTokenStores(data.a, data.b);
    int jac_title = -1;
    for (const auto& f : fs.features()) {
      if (f.fn == SimFunction::kJaccard && f.tok == Tokenization::kWord &&
          f.name.find("(title,title)") != std::string::npos) {
        jac_title = f.id;
      }
    }
    if (jac_title < 0) {
      std::fprintf(stderr, "skew bench: no jaccard(title,title) feature\n");
      std::exit(1);
    }
    Rule r;
    r.predicates = {{jac_title, jac_title, PredOp::kLe, threshold}};
    r.selectivity = 0.05;
    seq.rules = {r};
    seq.selectivity = 0.05;

    Cluster build_cluster(BenchClusterConfig(1));
    IndexBuilder builder(&data.a, &fs, &build_cluster);
    builder.Ensure(IndexBuilder::NeedsOfCnf(ToCnf(seq), fs), &catalog);
  }
};

struct RunOutcome {
  ApplyResult result;
  bool ok = false;
};

RunOutcome RunOnce(const Setup& s, int threads, int nodes) {
  ClusterConfig ccfg = BenchClusterConfig(threads);
  ccfg.num_nodes = nodes;
  // Escape the startup-dominated regime (same calibration constant as the
  // cluster-size bench): slow virtual cores make the reduce phase
  // compute-bound, so task placement — the thing the reduce plan decides —
  // is what the makespan measures.
  ccfg.core_speed_factor = 200.0;
  Cluster cluster(ccfg);
  auto res = ApplyBlockingRules(s.data.a, s.data.b, s.seq, s.fs, s.catalog,
                                &cluster, ApplyMethod::kApplyAll,
                                ApplyOptions{});
  RunOutcome out;
  if (!res.ok()) {
    std::fprintf(stderr, "apply failed (threads=%d): %s\n", threads,
                 res.status().ToString().c_str());
    return out;
  }
  out.result = std::move(*res);
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool smoke = std::getenv("FALCON_BENCH_SMOKE") != nullptr;
  double scale = flags.GetDouble("scale", smoke ? 0.15 : 1.0);
  uint64_t seed = flags.GetInt("seed", 7);
  int threads = static_cast<int>(flags.GetInt("threads", 0));
  int nodes = static_cast<int>(flags.GetInt("nodes", 10));
  double zipf_s = flags.GetDouble("zipf", 2.2);
  double threshold = flags.GetDouble("threshold", 0.4);

  std::printf("=== Skew-aware sharded blocking: planned reduce ===\n");
  BenchReport report("skew");
  report.Add("scale", scale);
  report.Add("threads", static_cast<int64_t>(threads));
  report.Add("nodes", static_cast<int64_t>(nodes));
  report.Add("zipf_s", zipf_s);
  report.Add("threshold", threshold);

  WorkloadOptions base;
  // Few A rows over many B rows puts the apply job in the regime hashing
  // cannot fix: with ~#blocks <= #reduce slots, whole-block placement is
  // forced to leave slots idle behind the hot blocks, so splitting is the
  // only remedy (Section 7.3's skew discussion).
  base.size_a = static_cast<size_t>(
      flags.GetInt("size_a", static_cast<int64_t>(200 * scale)));
  base.size_b = static_cast<size_t>(
      flags.GetInt("size_b", static_cast<int64_t>(64000 * scale)));
  base.seed = seed;
  report.Add("size_a", static_cast<int64_t>(base.size_a));
  report.Add("size_b", static_cast<int64_t>(base.size_b));

  TablePrinter table({"Workload", "Reduce makespan", "Max task", "Mean task",
                      "Straggler", "Shards", "Split blocks", "Pairs"});
  bool byte_identical = true;

  for (const char* wl : {"uniform", "zipf"}) {
    WorkloadOptions opt = base;
    opt.zipf_s = (std::string(wl) == "zipf") ? zipf_s : 0.0;
    Setup s(opt, threshold);

    RunOutcome run = RunOnce(s, threads, nodes);
    // Determinism contract: serial and 4-thread runs emit the same
    // candidate bytes in the same order.
    RunOutcome run1 = RunOnce(s, 1, nodes);
    RunOutcome run4 = RunOnce(s, 4, nodes);
    if (!run.ok || !run1.ok || !run4.ok) return 1;
    if (run.result.pairs != run1.result.pairs ||
        run.result.pairs != run4.result.pairs) {
      byte_identical = false;
    }

    const BlockProfile& prof = run.result.index_profile;
    std::string wls(wl);
    report.Add(wls + "/profile/num_blocks",
               static_cast<int64_t>(prof.num_blocks));
    report.Add(wls + "/profile/max_block",
               static_cast<int64_t>(prof.max_block));
    report.Add(wls + "/profile/p99_block",
               static_cast<int64_t>(prof.p99_block));
    report.Add(wls + "/profile/mean_block", prof.mean_block);
    report.Add(wls + "/profile/est_pairs",
               static_cast<double>(prof.est_pairs));
    report.Add(wls + "/profile/skew", prof.skew);

    const JobStats& job = run.result.main_job;
    const TaskLoadStats& load = job.reduce_load;
    auto counter = [&job](const char* key) {
      auto it = job.counters.find(key);
      return it == job.counters.end() ? int64_t{0} : it->second;
    };
    char straggler[64];
    std::snprintf(straggler, sizeof(straggler), "%.2f",
                  load.straggler_ratio);
    table.AddRow({wls, job.reduce_time.ToString(),
                  VDuration::Seconds(load.max_seconds).ToString(),
                  VDuration::Seconds(load.mean_seconds).ToString(), straggler,
                  std::to_string(counter("skew/shards")),
                  std::to_string(counter("skew/split_blocks")),
                  std::to_string(run.result.pairs.size())});
    report.Add(wls + "/reduce_seconds", job.reduce_time.seconds);
    report.Add(wls + "/apply_seconds", run.result.time.seconds);
    report.Add(wls + "/pairs", static_cast<int64_t>(run.result.pairs.size()));
    report.Add(wls + "/skew_shards", counter("skew/shards"));
    report.Add(wls + "/skew_split_blocks", counter("skew/split_blocks"));
    report.Add(wls + "/skew_budget", counter("skew/budget"));
    AddLoadMetrics(&report, wls + "/reduce", load);
  }

  report.Add("byte_identical", static_cast<int64_t>(byte_identical ? 1 : 0));
  table.Print();
  if (!byte_identical) {
    std::fprintf(stderr, "FAIL: candidates differ across local_threads\n");
    return 1;
  }
  report.Write();
  return 0;
}
