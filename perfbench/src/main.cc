// Benchmark program: runs one workload for a given time and prints its
// metrics, then one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exits 1 when a correctness check failed and 2 on
// a bad command line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads N] [--work-dir DIR]
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  void (*run)(const Options&, RunOutput*);
  int threads;  ///< default local threads (batch) or workers (service)
  bool service;
};

constexpr WorkloadDef kWorkloads[] = {
    {"batch_products_t4", RunBatch, 4, false},
    {"batch_citations_t1", RunBatch, 1, false},
    {"service_burst", RunService, 4, true},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--threads N] [--work-dir DIR]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseUint(const std::string& s, uint64_t max, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (max - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

Options ParseArgs(int argc, char** argv, const WorkloadDef** def) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument '" + arg + "'");
    std::string key = arg.substr(2), value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("flag --" + key + " needs a value");
    }
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "threads" && key != "work-dir") {
      Usage("unknown flag --" + key);
    }
    if (!kv.emplace(key, value).second) Usage("repeated flag --" + key);
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (kv.count(required) == 0) {
      Usage(std::string("missing --") + required);
    }
  }
  Options opts;
  *def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (kv["workload"] == w.name) *def = &w;
  }
  if (*def == nullptr) Usage("unknown workload '" + kv["workload"] + "'");
  opts.workload = kv["workload"];
  if (!ParseUint(kv["seed"], UINT32_MAX, &opts.seed)) {
    Usage("malformed seed '" + kv["seed"] + "'");
  }
  char* end = nullptr;
  opts.seconds = std::strtod(kv["seconds"].c_str(), &end);
  if (kv["seconds"].empty() || *end != '\0' || !std::isfinite(opts.seconds) ||
      opts.seconds <= 0.0 || opts.seconds > 3600.0) {
    Usage("malformed seconds '" + kv["seconds"] + "'");
  }
  if (kv["trace"] != "0" && kv["trace"] != "1") {
    Usage("--trace must be 0 or 1");
  }
  opts.trace = kv["trace"] == "1";
  opts.threads = (*def)->threads;
  if (kv.count("threads") > 0) {
    uint64_t t = 0;
    if (!ParseUint(kv["threads"], 1024, &t) || t == 0) {
      Usage("malformed thread count '" + kv["threads"] + "'");
    }
    opts.threads = static_cast<int>(t);
  }
  if (kv.count("work-dir") > 0) {
    if (kv["work-dir"].empty()) Usage("empty --work-dir");
    opts.work_dir = kv["work-dir"];
  }
  return opts;
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void PrintJsonLine(const RunOutput& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The metrics the run must report, in canonical order with their units;
/// a missing one is a bug in the benchmark and fails the run.
std::vector<Metric> Canonical(const std::vector<Metric>& got,
                              const std::vector<MetricDef>& defs,
                              RunOutput* out) {
  std::map<std::string, double> by_name;
  for (const Metric& m : got) by_name[m.name] = m.value;
  std::vector<Metric> metrics;
  for (const MetricDef& d : defs) {
    auto it = by_name.find(d.name);
    if (it == by_name.end() || !std::isfinite(it->second)) {
      out->Fail("metric " + d.name + " missing or not finite");
      metrics.push_back({d.name, 0.0, d.unit});
    } else {
      metrics.push_back({d.name, it->second, d.unit});
    }
  }
  return metrics;
}

int Main(int argc, char** argv) {
  const WorkloadDef* def = nullptr;
  Options opts = ParseArgs(argc, argv, &def);
  RunOutput out;

  // Thread budget: the pool's worker threads (the stepping thread takes
  // part in every pooled job) plus the stepping threads must fit the box.
  const int pool_threads = def->service ? 0 : std::max(0, opts.threads - 1);
  const int workers = def->service ? opts.threads : 1;
  const int nproc = Nproc();
  out.Note("threads", "pool " + std::to_string(pool_threads) + " + workers " +
                          std::to_string(workers) + " <= nproc " +
                          std::to_string(nproc));
  if (pool_threads + workers > nproc) {
    std::fprintf(stderr,
                 "perfbench: %d pool threads + %d workers exceed nproc %d\n",
                 pool_threads, workers, nproc);
    return 2;
  }
  MakeDirs(opts.work_dir);

  def->run(opts, &out);

  std::vector<Metric> e2e =
      Canonical(out.end_to_end, EndToEndDefs(), &out);
  std::vector<Metric> layers;
  if (opts.trace) layers = Canonical(out.per_layer, PerLayerDefs(), &out);
  if (out.attempted == 0) out.Fail("no operation attempted");

  std::printf("workload %s seed %llu%s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? " (traced)" : "");
  for (const auto& [key, value] : out.notes) {
    std::printf("  %-28s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  %-28s %llu / %llu\n", "failed / attempted",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const std::string results_dir = opts.work_dir + "/results";
  MakeDirs(results_dir);
  const std::string path = results_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"notes\": {",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed));
    for (size_t i = 0; i < out.notes.size(); ++i) {
      std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                   JsonEscape(out.notes[i].first).c_str(),
                   JsonEscape(out.notes[i].second).c_str());
    }
    std::fprintf(f, "}, \"end_to_end\": {");
    for (size_t i = 0; i < e2e.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                   e2e[i].name.c_str(), e2e[i].value);
    }
    std::fprintf(f, "}, \"per_layer\": {");
    for (size_t i = 0; i < layers.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                   layers[i].name.c_str(), layers[i].value);
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }

  std::fflush(stderr);
  PrintJsonLine(out, opts.trace ? layers : e2e);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
