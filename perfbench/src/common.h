// Shared pieces of the benchmark program: options, what a run reports,
// clocks, statistics, output hashes and the CSV hand-off of the generated
// tables.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "blocking/apply.h"
#include "table/table.h"
#include "workload/generator.h"

namespace perfbench {

/// Parsed command line (see main.cc for the accepted flags).
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Working threads: the workload's default unless --threads is given.
  int threads = 1;
  /// Scratch directory for CSV inputs, traces and per-run results.
  std::string work_dir = ".bench_build/work";
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Free-form facts printed for the reader and written to the results
  /// file (hashes, chosen percentiles, thread budget, check outcomes).
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& why);
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

// --- clocks ----------------------------------------------------------------

int64_t WallNs();
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
/// ru_maxrss of this process, in MB.
double PeakRssMb();
inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);
/// Value at percentile `p` (0..100) of `v`, nearest-rank on the sorted data.
double Percentile(std::vector<double> v, double p);

/// step_ms.tail: the 95th percentile of a run's step times. The percentile
/// is fixed rather than chosen from the sample count, so it does not move
/// to another percentile when a change alters how many steps fit in a run;
/// a note states the sample count and how many samples lie beyond it.
Metric StepTail(const std::vector<double>& step_ms, RunOutput* out);

// --- outputs -----------------------------------------------------------------

/// Order-independent FNV-1a hash of a pair set (sorted before hashing).
uint64_t PairSetHash(std::vector<falcon::CandidatePair> pairs);
std::string Hex(uint64_t v);
/// `s` with JSON string escapes applied (no surrounding quotes).
std::string JsonEscape(const std::string& s);
/// True when every element of `subset` occurs in `superset`.
bool IsSubset(const std::vector<falcon::CandidatePair>& subset,
              std::vector<falcon::CandidatePair> superset);

// --- CSV hand-off -------------------------------------------------------------

/// Writes the generated tables to `<dir>/A.csv` and `<dir>/B.csv`.
void WriteTables(const falcon::GeneratedDataset& data, const std::string& dir);

/// Loads the two tables back through ReadCsvFile with the generator's
/// schemas; adds the load time to `*load_s`.
struct LoadedTables {
  falcon::Table a;
  falcon::Table b;
};
falcon::Result<LoadedTables> LoadTables(const std::string& dir,
                                        const falcon::Schema& schema_a,
                                        const falcon::Schema& schema_b,
                                        double* load_s);

/// mkdir -p.
void MakeDirs(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
