// Batch workloads: one Blocker+Matcher EM job at a time through
// FalconPipeline::Start/Step/TakeResult, repeated until the measuring time
// is used up. Each repetition loads A and B from CSV (timed into setup_s),
// runs the job (job_wall_s, job_cpu_s) and checks its output against the
// generator's ground truth.
#include <cstdio>
#include <optional>
#include <set>

#include "core/pipeline.h"
#include "crowd_spans.h"
#include "harness.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using falcon::PipelineStage;

struct BatchWorkload {
  const char* name;
  const char* dataset;
  /// DatasetOptions / BenchFalconConfig scale.
  double scale;
  /// Seed of the tables, the simulated crowd and the pipeline. Fixed, not
  /// taken from --seed: at these sizes a job's cost depends chaotically on
  /// its inputs (the blocking rules it learns decide how many pairs the
  /// speculative and final rule applications enumerate), so per-seed inputs
  /// would make the job time a property of the seed rather than the code.
  uint64_t input_seed;
  /// Correctness floors: a job below either counts as failed.
  double f1_floor;
  double recall_floor;
};

constexpr BatchWorkload kBatch[] = {
    {"batch_products_t4", "products", 1.0, 1, 0.85, 0.80},
    {"batch_citations_t1", "citations", 0.75, 1, 0.85, 0.80},
};

/// Inputs of one job.
struct JobInputs {
  const BatchWorkload* w = nullptr;
  const falcon::GeneratedDataset* data = nullptr;
  /// Directory holding A.csv/B.csv; empty = use the in-memory tables.
  std::string csv_dir;
  int threads = 1;
  uint64_t seed = 0;
  bool deterministic_rule_cost = false;
  /// Records the job's spans; the crowd is then wrapped by SpanningCrowd.
  Tracer* tracer = nullptr;
};

struct JobRecord {
  bool completed = false;  ///< the pipeline returned a result
  bool ok = false;         ///< ... and it passed every check
  std::string error;
  double setup_s = 0.0;
  double load_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double f1 = 0.0;
  double recall = 0.0;
  double cost = 0.0;
  std::vector<double> step_ms;
  uint64_t candidate_hash = 0;
  uint64_t match_hash = 0;
};

JobRecord RunJob(const JobInputs& in) {
  JobRecord rec;
  ScopedSpan run(in.tracer, in.w->name, "run", CpuClock::kProcess);
  const int64_t t0 = WallNs();

  std::optional<LoadedTables> loaded;
  const falcon::Table* a = &in.data->a;
  const falcon::Table* b = &in.data->b;
  if (!in.csv_dir.empty()) {
    auto tables = LoadTables(in.csv_dir, in.data->a.schema(),
                             in.data->b.schema(), &rec.load_s);
    if (!tables.ok()) {
      rec.error = "load: " + tables.status().ToString();
      return rec;
    }
    loaded = std::move(tables).value();
    a = &loaded->a;
    b = &loaded->b;
  }
  falcon::Cluster cluster(falcon::bench::BenchClusterConfig(in.threads));
  falcon::SimulatedCrowd sim(falcon::bench::BenchCrowdConfig(0.05, in.seed),
                             in.data->truth.MakeOracle());
  std::optional<SpanningCrowd> tap;
  falcon::CrowdPlatform* crowd = &sim;
  if (in.tracer != nullptr) crowd = &tap.emplace(&sim, in.tracer);
  falcon::FalconConfig cfg =
      falcon::bench::BenchFalconConfig(in.w->scale, in.seed);
  cfg.deterministic_rule_cost = in.deterministic_rule_cost;
  falcon::FalconPipeline pipeline(a, b, crowd, &cluster, cfg);
  falcon::Status st = pipeline.Start();

  const int64_t t1 = WallNs();
  const int64_t cpu1 = ProcessCpuNs();
  rec.setup_s = Seconds(t1 - t0);
  size_t jobs_seen = in.tracer ? cluster.JobHistorySnapshot().size() : 0;
  while (st.ok() && !pipeline.done()) {
    const PipelineStage stage = pipeline.state().next;
    ScopedSpan span(in.tracer, OpName(stage), "stage", CpuClock::kProcess);
    span.Label("op", OpName(stage));
    const int64_t s0 = WallNs();
    st = pipeline.Step();
    rec.step_ms.push_back(static_cast<double>(WallNs() - s0) * 1e-6);
    if (in.tracer != nullptr) {
      const auto history = cluster.JobHistorySnapshot();
      Counts jobs;
      CountJobs(history, jobs_seen, stage == PipelineStage::kEvalRules, &jobs);
      span.CountAll(jobs);
      jobs_seen = history.size();
    }
  }
  auto result = st.ok() ? pipeline.TakeResult()
                        : falcon::Result<falcon::MatchResult>(st);
  rec.wall_s = Seconds(WallNs() - t1);
  rec.cpu_s = Seconds(ProcessCpuNs() - cpu1);
  if (!result.ok()) {
    rec.error = "pipeline: " + result.status().ToString();
    return rec;
  }

  rec.completed = true;
  const falcon::MatchResult& res = *result;
  const falcon::RunMetrics& m = res.metrics;
  rec.f1 = falcon::EvaluateMatches(res.matches, in.data->truth).f1;
  rec.recall = falcon::BlockingRecall(res.candidates, in.data->truth);
  rec.cost = m.cost;
  rec.candidate_hash = PairSetHash(res.candidates);
  rec.match_hash = PairSetHash(res.matches);
  rec.ok = true;
  if (!IsSubset(res.matches, res.candidates)) {
    rec.ok = false;
    rec.error = "matches are not a subset of the candidates";
  } else if (rec.f1 < in.w->f1_floor) {
    rec.ok = false;
    rec.error = "F1 " + std::to_string(rec.f1) + " below floor";
  } else if (rec.recall < in.w->recall_floor) {
    rec.ok = false;
    rec.error = "blocking recall " + std::to_string(rec.recall) +
                " below floor";
  }

  run.Count("job.wall_s", rec.wall_s);
  run.Count("job.cpu_s", rec.cpu_s);
  run.Count("table.load_s", rec.load_s);
  run.Count("core.f1", rec.f1);
  run.Count("core.vtime_machine_s", m.machine_time.seconds);
  run.Count("core.vtime_unmasked_s", m.machine_unmasked.seconds);
  run.Count("core.vtime_total_s", m.total_time.seconds);
  run.Count("blocking.spec_rules", m.speculated_rules);
  run.Count("blocking.spec_reused", m.spec_rule_reused ? 1 : 0);
  run.Count("blocking.candidates", static_cast<double>(m.candidate_size));
  run.Count("blocking.recall", rec.recall);
  Counts counters;
  CountRunMetrics(m, &counters);
  run.CountAll(counters);
  return rec;
}

/// Per-layer metrics of one traced job, derived from its spans.
Counts JobLayers(const std::vector<Span>& spans) {
  Counts l;
  ZeroLayers(&l);
  const Span* run = nullptr;
  double stage_wall = 0.0, al_matcher_ms = 0.0;
  std::vector<double> step_ms, other_ms;
  for (const Span& s : spans) {
    if (s.cat == "run") {
      run = &s;
    } else if (s.cat == "stage") {
      const std::string op = s.labels.at("op");
      const double wall = Seconds(s.wall_ns);
      l["core." + op + ".wall_s"] += wall;
      l["core." + op + ".cpu_s"] += Seconds(s.cpu_ns);
      stage_wall += wall;
      step_ms.push_back(wall * 1e3);
      if (op == "al_matcher") {
        al_matcher_ms = wall * 1e3;
      } else {
        other_ms.push_back(wall * 1e3);
      }
      for (const auto& [key, value] : s.counters) l[key] += value;
    } else if (s.cat == "crowd") {
      for (const auto& [key, value] : s.counters) l[key] += value;
      l["crowd.call_ms_sum"] += Seconds(s.wall_ns) * 1e3;
    }
  }
  if (run == nullptr) return l;
  for (const auto& [key, value] : run->counters) l[key] += value;
  const double job_wall = run->counter("job.wall_s");
  l["core.stage_coverage"] = job_wall > 0 ? stage_wall / job_wall : 0.0;
  l["mapreduce.parallelism"] =
      job_wall > 0 ? run->counter("job.cpu_s") / job_wall : 0.0;
  l["session.steps"] = static_cast<double>(step_ms.size());
  l["session.step_ms.p50"] = Median(step_ms);
  l["session.step_ms.al_matcher"] = al_matcher_ms;
  l["session.step_ms.other"] = Median(other_ms);
  // One job is one session that is admitted once and never evicted.
  l["session.admissions"] = 1;
  l["session.evictions"] = 0;
  l["session.resumes"] = 0;
  l["session.peak_resident"] = 1;
  l["session.queue_wait_s.p50"] = 0;
  l["session.worker_busy"] = l["core.stage_coverage"];
  FinishCounts(1, &l);
  return l;
}

const BatchWorkload& FindBatch(const std::string& name) {
  for (const BatchWorkload& w : kBatch) {
    if (name == w.name) return w;
  }
  std::fprintf(stderr, "unknown batch workload %s\n", name.c_str());
  std::exit(2);
}

/// Under deterministic_rule_cost, a job on the CSV-loaded tables must
/// match the same job on the in-memory tables, and a job whose crowd is
/// wrapped by SpanningCrowd must match an unwrapped one. These compare
/// outputs only; the quality floors apply to the measured jobs.
void SelfChecks(const BatchWorkload& w, const falcon::GeneratedDataset& data,
                const std::string& dir, int threads, RunOutput* out) {
  Tracer scratch;
  JobInputs in{.w = &w, .data = &data, .csv_dir = dir, .threads = threads,
               .seed = w.input_seed, .deterministic_rule_cost = true};
  const JobRecord csv = RunJob(in);
  in.csv_dir.clear();
  const JobRecord memory = RunJob(in);
  in.csv_dir = dir;
  in.tracer = &scratch;
  const JobRecord decorated = RunJob(in);
  for (const JobRecord* r : {&csv, &memory, &decorated}) {
    if (!r->completed) out->Fail("self-check job: " + r->error);
  }
  out->Note("selfcheck.csv_match_hash", Hex(csv.match_hash));
  out->Note("selfcheck.memory_match_hash", Hex(memory.match_hash));
  out->Note("selfcheck.decorated_match_hash", Hex(decorated.match_hash));
  if (csv.match_hash != memory.match_hash) {
    out->Fail("CSV-loaded and in-memory tables gave different matches");
  }
  if (csv.match_hash != decorated.match_hash) {
    out->Fail("the crowd-span decorator changed the matches");
  }
}

}  // namespace

void RunBatch(const Options& opts, RunOutput* out) {
  const BatchWorkload& w = FindBatch(opts.workload);
  const int threads = opts.threads;

  // Inputs: generated, then handed over as CSV (untimed).
  auto generated = falcon::GenerateByName(
      w.dataset,
      falcon::bench::DatasetOptions(w.dataset, w.scale, w.input_seed));
  if (!generated.ok()) {
    out->Fail("generate: " + generated.status().ToString());
    return;
  }
  const falcon::GeneratedDataset& data = *generated;
  const std::string dir = opts.work_dir + "/" + w.name;
  WriteTables(data, dir);
  out->Note("rows", std::to_string(data.a.num_rows()) + "x" +
                        std::to_string(data.b.num_rows()));
  if (opts.trace) SelfChecks(w, data, dir, threads, out);

  Tracer tracer;
  std::vector<JobRecord> plain, traced;
  std::vector<Counts> layers;
  const int64_t start = WallNs();
  // At least three jobs, so every median has a middle.
  for (int rep = 0;
       rep < 3 || Seconds(WallNs() - start) < opts.seconds; ++rep) {
    // Traced runs alternate untraced and traced jobs, so the tracing
    // overhead is measured on the same process and data.
    const bool trace_this = opts.trace && rep % 2 == 1;
    JobInputs in{.w = &w, .data = &data, .csv_dir = dir, .threads = threads,
                 .seed = w.input_seed,
                 .tracer = trace_this ? &tracer : nullptr};
    JobRecord rec = RunJob(in);
    ++out->attempted;
    if (!rec.ok) {
      ++out->failed;
      out->Fail(std::string(w.name) + " job " + std::to_string(rep) + ": " +
                rec.error);
    }
    if (trace_this) {
      std::vector<Span> spans = tracer.TakeSpans();
      layers.push_back(JobLayers(spans));
      tracer.Keep(std::move(spans));
      traced.push_back(std::move(rec));
    } else {
      plain.push_back(std::move(rec));
    }
  }

  auto collect = [](const std::vector<JobRecord>& recs, auto field) {
    std::vector<double> v;
    for (const JobRecord& r : recs) v.push_back(r.*field);
    return v;
  };
  std::set<uint64_t> match_hashes, candidate_hashes;
  for (const auto* recs : {&plain, &traced}) {
    for (const JobRecord& r : *recs) {
      match_hashes.insert(r.match_hash);
      candidate_hashes.insert(r.candidate_hash);
    }
  }
  out->Note("jobs", std::to_string(plain.size() + traced.size()));
  out->Note("distinct_match_hashes", std::to_string(match_hashes.size()));
  out->Note("distinct_candidate_hashes",
            std::to_string(candidate_hashes.size()));
  std::string jobs;
  for (const auto* recs : {&plain, &traced}) {
    for (const JobRecord& r : *recs) {
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.3fs", r.wall_s);
      jobs += (jobs.empty() ? "" : " ") + Hex(r.candidate_hash).substr(0, 8) +
              "/" + Hex(r.match_hash).substr(0, 8) + "@" + wall;
    }
  }
  out->Note("candidate/match hash@wall", jobs);

  std::vector<double> steps;
  for (const JobRecord& r : plain) {
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
  }
  const std::vector<double> walls = collect(plain, &JobRecord::wall_s);
  const double median_wall = Median(walls);

  out->end_to_end = {
      {"setup_s", Median(collect(plain, &JobRecord::setup_s)), "s"},
      {"job_wall_s", median_wall, "s"},
      {"job_cpu_s", Median(collect(plain, &JobRecord::cpu_s)), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      // Jobs per hour at the median job's wall time: a mean over the run
      // would follow the few jobs that host contention stretches.
      {"sessions_per_hour", median_wall > 0 ? 3600.0 / median_wall : 0.0,
       "1/h"},
      {"session_latency_s.p50", median_wall, "s"},
      StepTail(steps, out),
      // One tenant: its share of the cluster is the whole cluster.
      {"fair_share_ratio", 1.0, "ratio"},
      {"f1", Mean(collect(plain, &JobRecord::f1)), "fraction"},
      {"crowd_cost_usd", Mean(collect(plain, &JobRecord::cost)), "usd"},
  };
  out->Note("failed_ratio",
            std::to_string(static_cast<double>(out->failed) /
                           static_cast<double>(out->attempted)));

  if (!opts.trace) return;
  ReportLayers(layers, median_wall,
               Median(collect(traced, &JobRecord::wall_s)), out);
  const std::string trace_path = opts.work_dir + "/" + w.name + "-" +
                                 std::to_string(opts.seed) + ".trace.json";
  if (tracer.ExportChrome(trace_path)) out->Note("chrome_trace", trace_path);
}

}  // namespace perfbench
