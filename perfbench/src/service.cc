// The service workload: a burst of small matching sessions from 16 tenants
// submitted at once to one EmService and drained by 4 closed-loop workers,
// repeated until the measuring time is used up. One heavy tenant submits 6
// sessions and every other tenant 2; the admission cap is 8 and idle
// sessions are evicted to snapshots under queue pressure. The sessions are
// small enough to take the Matcher-only plan, so active learning and the
// session snapshot layer do the work. Successive bursts cycle through a few
// input sets generated from the seed, so one run's figures do not rest on
// a single draw of 36 sessions.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "crowd_spans.h"
#include "harness.h"
#include "layers.h"
#include "session/service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTenants = 16;
constexpr int kHeavySessions = 6;
constexpr int kLightSessions = 2;
constexpr size_t kAdmissionCap = 8;
constexpr size_t kRowsA = 16;
/// Input sets a run cycles through. Odd, so a traced run, which alternates
/// untraced and traced bursts, runs both kinds on every set.
constexpr int kInputSets = 3;

/// One submission's generated inputs.
struct SessionInput {
  std::string tenant;
  std::string id;
  uint64_t seed = 0;
  falcon::GeneratedDataset data;
  std::string dir;  ///< where its A.csv/B.csv live
};

std::string TenantName(int t) {
  char name[16];
  std::snprintf(name, sizeof(name), "tenant-%02d", t);
  return name;
}

std::vector<SessionInput> MakeInputs(const Options& opts, int set) {
  std::vector<SessionInput> inputs;
  uint64_t seed = opts.seed * 1000 + static_cast<uint64_t>(set) * 100;
  for (int t = 0; t < kTenants; ++t) {
    const int sessions = t == 0 ? kHeavySessions : kLightSessions;
    for (int s = 0; s < sessions; ++s, ++seed) {
      SessionInput& in = inputs.emplace_back();
      in.tenant = TenantName(t);
      in.id = in.tenant + "/job-" + std::to_string(s);
      in.seed = seed;
      falcon::WorkloadOptions wo;
      wo.size_a = kRowsA;
      wo.size_b = 2 * kRowsA;
      wo.seed = seed;
      in.data = falcon::GenerateProducts(wo);
      in.dir = opts.work_dir + "/service_burst-" + std::to_string(opts.seed) +
               "/set" + std::to_string(set) + "/" + in.tenant + "-" +
               std::to_string(s);
      WriteTables(in.data, in.dir);
    }
  }
  return inputs;
}

/// The session configuration of bench/service.cc.
falcon::FalconConfig SessionConfig(uint64_t seed) {
  falcon::FalconConfig cfg;
  cfg.al_max_iterations = 6;
  cfg.deterministic_rule_cost = true;
  cfg.estimate_accuracy = false;
  cfg.seed = seed;
  return cfg;
}

/// Everything one burst measured.
struct Burst {
  int input_set = 0;
  bool ok = true;
  std::string error;
  double setup_s = 0.0;
  double load_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> step_ms;
  std::vector<double> latency_s;
  std::vector<double> queue_wait_s;
  double fair_share_ratio = 0.0;
  double f1_sum = 0.0;
  size_t sessions = 0;
  double crowd_cost = 0.0;
  falcon::ServiceStats stats;
  Counts layers;  ///< traced bursts only
};

Burst RunBurst(const std::vector<SessionInput>& inputs, int workers_n,
               Tracer* tracer) {
  Burst burst;
  ScopedSpan run(tracer, "service_burst", "run", CpuClock::kProcess);
  const int64_t t0 = WallNs();
  std::vector<LoadedTables> tables;
  tables.reserve(inputs.size());
  for (const SessionInput& in : inputs) {
    auto loaded = LoadTables(in.dir, in.data.a.schema(), in.data.b.schema(),
                             &burst.load_s);
    if (!loaded.ok()) {
      burst.ok = false;
      burst.error = "load " + in.dir + ": " + loaded.status().ToString();
      return burst;
    }
    tables.push_back(std::move(loaded).value());
  }
  falcon::ClusterConfig ccfg = falcon::bench::BenchClusterConfig(1);
  ccfg.job_startup = falcon::VDuration::Seconds(0.5);
  ccfg.task_overhead = falcon::VDuration::Seconds(0.01);
  falcon::Cluster cluster(ccfg);
  falcon::ServiceConfig scfg;
  scfg.max_resident_sessions = kAdmissionCap;
  scfg.min_steps_before_evict = 1;
  scfg.crowd_cost_vtime_weight = 0.0;
  falcon::EmService service(&cluster, scfg);
  for (int t = 0; t < kTenants; ++t) {
    falcon::Status st = service.RegisterTenant(TenantName(t));
    if (!st.ok()) {
      burst.ok = false;
      burst.error = st.ToString();
      return burst;
    }
  }
  std::vector<std::unique_ptr<falcon::SimulatedCrowd>> crowds;
  std::map<std::string, size_t> index_of;
  std::vector<int64_t> submitted_ns(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const SessionInput& in = inputs[i];
    falcon::SimulatedCrowdConfig crowd_cfg;
    crowd_cfg.error_rate = 0.03;
    crowd_cfg.seed = in.seed;
    auto oracle = in.data.truth.MakeOracle();
    if (tracer != nullptr) {
      crowds.push_back(std::make_unique<SpanningSimulatedCrowd>(
          crowd_cfg, oracle, tracer));
    } else {
      crowds.push_back(
          std::make_unique<falcon::SimulatedCrowd>(crowd_cfg, oracle));
    }
    index_of[in.id] = i;
    submitted_ns[i] = WallNs();
    falcon::Status st =
        service.Submit(in.tenant, in.id, &tables[i].a, &tables[i].b,
                       crowds.back().get(), SessionConfig(in.seed));
    if (!st.ok()) {
      burst.ok = false;
      burst.error = "submit " + in.id + ": " + st.ToString();
      return burst;
    }
  }
  const int64_t t1 = WallNs();
  burst.setup_s = Seconds(t1 - t0);

  // Closed-loop workers: each calls StepOnce again only after the last
  // call returned.
  std::mutex mu;
  std::vector<int64_t> first_step_ns(inputs.size(), 0);
  std::vector<int64_t> done_ns(inputs.size(), 0);
  auto worker = [&] {
    for (;;) {
      ScopedSpan span(tracer, "step", "step", CpuClock::kThread);
      const int64_t s0 = WallNs();
      falcon::Result<falcon::StepEvent> event = service.StepOnce();
      const int64_t s1 = WallNs();
      if (!event.ok()) return;  // nothing left to do
      // A session's first step starts its pipeline and runs the first
      // stage of the Matcher-only plan, gen_fvs(C).
      span.Label("op", event->stage == falcon::PipelineStage::kInit
                           ? "gen_fvs_c"
                           : OpName(event->stage));
      span.Label("tenant", event->tenant);
      span.Label("session", event->session_id);
      span.End();
      std::lock_guard<std::mutex> lock(mu);
      burst.step_ms.push_back(static_cast<double>(s1 - s0) * 1e-6);
      const size_t i = index_of.at(event->session_id);
      if (first_step_ns[i] == 0) first_step_ns[i] = s0;
      if (event->session_done) done_ns[i] = s1;
      // Fairness as bench/service.cc samples it: max/min per-tenant
      // machine vtime at the last step while every tenant is still live.
      double min_mt = 1e300, max_mt = 0.0;
      bool contended = true;
      for (int t = 0; t < kTenants && contended; ++t) {
        auto ts = service.tenant_stats(TenantName(t));
        if (!ts.ok() || ts->completed + ts->failed >= ts->submitted) {
          contended = false;
        } else {
          min_mt = std::min(min_mt, ts->machine_vtime_s);
          max_mt = std::max(max_mt, ts->machine_vtime_s);
        }
      }
      if (contended && min_mt > 0.0) burst.fair_share_ratio = max_mt / min_mt;
    }
  };
  const int64_t cpu1 = ProcessCpuNs();
  std::vector<std::thread> workers;
  for (int i = 0; i < workers_n; ++i) workers.emplace_back(worker);
  for (auto& th : workers) th.join();
  const int64_t t2 = WallNs();
  burst.wall_s = Seconds(t2 - t1);
  burst.cpu_s = Seconds(ProcessCpuNs() - cpu1);
  burst.stats = service.stats();

  for (size_t i = 0; i < inputs.size(); ++i) {
    if (first_step_ns[i] > 0) {
      burst.queue_wait_s.push_back(Seconds(first_step_ns[i] - submitted_ns[i]));
    }
    if (done_ns[i] > 0) {
      burst.latency_s.push_back(Seconds(done_ns[i] - submitted_ns[i]));
    }
  }
  Counts& l = burst.layers;
  if (tracer != nullptr) ZeroLayers(&l);
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto result = service.TakeResult(inputs[i].id);
    if (!result.ok()) {
      burst.ok = false;
      burst.error = inputs[i].id + ": " + result.status().ToString();
      continue;
    }
    const falcon::RunMetrics& m = result->metrics;
    burst.f1_sum += falcon::EvaluateMatches(result->matches,
                                            inputs[i].data.truth).f1;
    ++burst.sessions;
    if (tracer == nullptr) continue;
    l["core.vtime_machine_s"] += m.machine_time.seconds;
    l["core.vtime_unmasked_s"] += m.machine_unmasked.seconds;
    l["core.vtime_total_s"] += m.total_time.seconds;
    l["blocking.candidates"] += static_cast<double>(m.candidate_size);
    CountRunMetrics(m, &l);
    l["crowd.questions"] += static_cast<double>(crowds[i]->total_questions());
    l["crowd.cost_usd"] += crowds[i]->total_cost();
    l["crowd.vtime_s"] += crowds[i]->total_crowd_time().seconds;
  }
  for (int t = 0; t < kTenants; ++t) {
    auto ts = service.tenant_stats(TenantName(t));
    if (ts.ok()) burst.crowd_cost += ts->crowd_cost;
  }
  run.End();
  if (tracer == nullptr) return burst;

  // Per-layer metrics of this burst: its spans plus the service's,
  // cluster's and platforms' own totals.
  std::vector<double> step_ms, al_ms, other_ms;
  double step_wall = 0.0;
  std::vector<Span> spans = tracer->TakeSpans();
  for (const Span& s : spans) {
    if (s.cat == "step" && s.labels.count("op") > 0) {
      const std::string op = s.labels.at("op");
      const double ms = static_cast<double>(s.wall_ns) * 1e-6;
      l["core." + op + ".wall_s"] += ms * 1e-3;
      l["core." + op + ".cpu_s"] += Seconds(s.cpu_ns);
      step_wall += ms * 1e-3;
      step_ms.push_back(ms);
      (op == "al_matcher" ? al_ms : other_ms).push_back(ms);
    } else if (s.cat == "crowd") {
      l["crowd.batches"] += s.counter("crowd.batches");
      l["crowd.failed_batches"] += s.counter("crowd.failed_batches");
      l["crowd.call_ms_sum"] += static_cast<double>(s.wall_ns) * 1e-6;
    }
  }
  const double busy = step_wall / (workers_n * burst.wall_s);
  l["core.stage_coverage"] = busy;
  l["core.f1"] = burst.f1_sum / static_cast<double>(burst.sessions);
  CountJobs(cluster.JobHistorySnapshot(), 0, false, &l);
  l["mapreduce.parallelism"] = burst.cpu_s / burst.wall_s;
  // The Matcher-only plan enumerates A x B: every true match survives.
  l["blocking.recall"] = 1.0;
  l["session.steps"] = static_cast<double>(burst.stats.steps);
  l["session.step_ms.p50"] = Median(step_ms);
  l["session.step_ms.al_matcher"] = Median(al_ms);
  l["session.step_ms.other"] = Median(other_ms);
  l["session.admissions"] = static_cast<double>(burst.stats.admissions);
  l["session.evictions"] = static_cast<double>(burst.stats.evictions);
  l["session.resumes"] = static_cast<double>(burst.stats.resumes);
  l["session.peak_resident"] = static_cast<double>(burst.stats.peak_resident);
  l["session.queue_wait_s.p50"] = Median(burst.queue_wait_s);
  l["session.worker_busy"] = busy;
  l["table.load_s"] = burst.load_s;
  FinishCounts(static_cast<double>(burst.sessions), &l);
  tracer->Keep(std::move(spans));
  return burst;
}

/// The mean over input sets of the median over each set's bursts.
template <typename Field>
double SetMean(const std::vector<Burst>& bursts, Field field) {
  std::map<int, std::vector<double>> by_set;
  for (const Burst& b : bursts) by_set[b.input_set].push_back(field(b));
  std::vector<double> medians;
  for (auto& [set, values] : by_set) medians.push_back(Median(values));
  return Mean(medians);
}

}  // namespace

void RunService(const Options& opts, RunOutput* out) {
  std::vector<std::vector<SessionInput>> sets;
  for (int set = 0; set < kInputSets; ++set) {
    sets.push_back(MakeInputs(opts, set));
  }
  out->Note("sessions", std::to_string(sets.front().size()) + " per burst, " +
                            std::to_string(kInputSets) + " input sets");

  Tracer tracer;
  std::vector<Burst> plain, traced;
  const int64_t start = WallNs();
  // At least one burst on every input set.
  for (int rep = 0;
       rep < kInputSets || Seconds(WallNs() - start) < opts.seconds; ++rep) {
    const bool trace_this = opts.trace && rep % 2 == 1;
    const std::vector<SessionInput>& inputs = sets[rep % kInputSets];
    Burst burst =
        RunBurst(inputs, opts.threads, trace_this ? &tracer : nullptr);
    burst.input_set = rep % kInputSets;
    out->attempted += inputs.size();
    const uint64_t bad =
        inputs.size() - std::min<uint64_t>(inputs.size(),
                                           burst.stats.completed);
    out->failed += std::max<uint64_t>(bad, burst.stats.failed);
    if (!burst.ok) out->Fail("burst " + std::to_string(rep) + ": " +
                             burst.error);
    if (burst.stats.completed != inputs.size() || burst.stats.failed != 0) {
      out->Fail("burst " + std::to_string(rep) + ": " +
                std::to_string(burst.stats.completed) + " of " +
                std::to_string(inputs.size()) + " sessions completed, " +
                std::to_string(burst.stats.failed) + " failed");
    }
    if (burst.stats.peak_resident > kAdmissionCap) {
      out->Fail("peak resident " + std::to_string(burst.stats.peak_resident) +
                " exceeds the admission cap");
    }
    if (trace_this) {
      traced.push_back(std::move(burst));
    } else {
      plain.push_back(std::move(burst));
    }
  }

  auto field = [](auto member) {
    return [member](const Burst& b) { return b.*member; };
  };
  std::vector<double> steps;
  double completed = 0.0, wall = 0.0, f1_sum = 0.0, sessions = 0.0;
  for (const Burst& b : plain) {
    steps.insert(steps.end(), b.step_ms.begin(), b.step_ms.end());
    completed += static_cast<double>(b.stats.completed);
    wall += b.wall_s;
    f1_sum += b.f1_sum;
    sessions += static_cast<double>(b.sessions);
  }
  out->Note("bursts", std::to_string(plain.size() + traced.size()));
  out->Note("evictions/resumes per burst",
            std::to_string(plain.front().stats.evictions) + "/" +
                std::to_string(plain.front().stats.resumes));
  std::string set_walls;
  for (int set = 0; set < kInputSets; ++set) {
    std::vector<double> walls;
    for (const Burst& b : plain) {
      if (b.input_set == set) walls.push_back(b.wall_s);
    }
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3fs", Median(walls));
    set_walls += (set == 0 ? "" : " ") + std::to_string(walls.size()) + "@" +
                 wall;
  }
  out->Note("bursts@median wall per set", set_walls);
  out->end_to_end = {
      {"setup_s", SetMean(plain, field(&Burst::setup_s)), "s"},
      {"job_wall_s", SetMean(plain, field(&Burst::wall_s)), "s"},
      {"job_cpu_s", SetMean(plain, field(&Burst::cpu_s)), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sessions_per_hour", wall > 0 ? 3600.0 * completed / wall : 0.0,
       "1/h"},
      {"session_latency_s.p50",
       SetMean(plain, [](const Burst& b) { return Median(b.latency_s); }),
       "s"},
      StepTail(steps, out),
      {"fair_share_ratio", SetMean(plain, field(&Burst::fair_share_ratio)),
       "ratio"},
      {"f1", sessions > 0 ? f1_sum / sessions : 0.0, "fraction"},
      {"crowd_cost_usd", SetMean(plain, field(&Burst::crowd_cost)), "usd"},
  };
  out->Note("failed_ratio",
            std::to_string(static_cast<double>(out->failed) /
                           static_cast<double>(out->attempted)));

  if (!opts.trace) return;
  std::vector<Counts> layers;
  for (const Burst& b : traced) layers.push_back(b.layers);
  ReportLayers(layers, SetMean(plain, field(&Burst::wall_s)),
               SetMean(traced, field(&Burst::wall_s)), out);
  const std::string trace_path = opts.work_dir + "/service_burst-" +
                                 std::to_string(opts.seed) + ".trace.json";
  if (tracer.ExportChrome(trace_path)) out->Note("chrome_trace", trace_path);
}

}  // namespace perfbench
