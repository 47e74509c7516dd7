#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "table/csv.h"

namespace perfbench {

void RunOutput::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  notes.emplace_back("check_failed", why);
}

namespace {

int64_t ClockNs(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Metric StepTail(const std::vector<double>& step_ms, RunOutput* out) {
  const size_t beyond = step_ms.size() / 20;
  out->Note("step_ms.tail", "p95 of " + std::to_string(step_ms.size()) +
                                " steps, " + std::to_string(beyond) +
                                " beyond it" +
                                (beyond < 10 ? " (fewer than 10)" : ""));
  return {"step_ms.tail", Percentile(step_ms, 95.0), "ms"};
}

uint64_t PairSetHash(std::vector<falcon::CandidatePair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [a, b] : pairs) {
    mix(a);
    mix(b);
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool IsSubset(const std::vector<falcon::CandidatePair>& subset,
              std::vector<falcon::CandidatePair> superset) {
  std::sort(superset.begin(), superset.end());
  for (const auto& p : subset) {
    if (!std::binary_search(superset.begin(), superset.end(), p)) return false;
  }
  return true;
}

void MakeDirs(const std::string& dir) {
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos == dir.size() || dir[pos] == '/') {
      const std::string prefix = dir.substr(0, pos);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        std::fprintf(stderr, "mkdir %s failed\n", prefix.c_str());
      }
    }
  }
}

void WriteTables(const falcon::GeneratedDataset& data,
                 const std::string& dir) {
  MakeDirs(dir);
  for (const auto& [table, name] :
       {std::pair{&data.a, "A.csv"}, std::pair{&data.b, "B.csv"}}) {
    falcon::Status st = falcon::WriteCsvFile(*table, dir + "/" + name);
    if (!st.ok()) {
      std::fprintf(stderr, "writing %s/%s: %s\n", dir.c_str(), name,
                   st.ToString().c_str());
      std::exit(1);
    }
  }
}

falcon::Result<LoadedTables> LoadTables(const std::string& dir,
                                        const falcon::Schema& schema_a,
                                        const falcon::Schema& schema_b,
                                        double* load_s) {
  const int64_t t0 = WallNs();
  LoadedTables out;
  FALCON_ASSIGN_OR_RETURN(out.a,
                          falcon::ReadCsvFile(dir + "/A.csv", {}, &schema_a));
  FALCON_ASSIGN_OR_RETURN(out.b,
                          falcon::ReadCsvFile(dir + "/B.csv", {}, &schema_b));
  *load_s += Seconds(WallNs() - t0);
  return out;
}

}  // namespace perfbench
