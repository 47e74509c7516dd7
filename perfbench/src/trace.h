// In-memory span recorder for the traced benchmark run.
//
// Spans nest run -> stage/step -> crowd call. Each records its wall time,
// the CPU time of the clock it was opened with (process CPU for batch
// stages, whose work fans out over the pool; thread CPU for service steps,
// which run concurrently on worker threads), numeric counters and string
// labels. The parent of a new span is the innermost open span on the same
// thread. Spans live in memory until the run ends; ExportChrome writes them
// as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Every entry point accepts a null Tracer and then does nothing, so the
// untraced runs that produce the end-to-end numbers pay only a pointer test.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class CpuClock { kProcess, kThread };

/// Named numeric counters of a span.
using Counts = std::map<std::string, double>;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string cat;      ///< "run", "stage", "step", "crowd"
  uint32_t tid = 0;
  int64_t start_ns = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  Counts counters;
  std::map<std::string, std::string> labels;

  double counter(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
};

class Tracer {
 public:
  Tracer();

  /// Removes and returns every span closed so far, in closing order.
  std::vector<Span> TakeSpans();
  /// Appends spans (used to keep what TakeSpans handed out for export).
  void Keep(std::vector<Span> spans);

  /// Writes the kept spans as Chrome trace-event JSON.
  bool ExportChrome(const std::string& path) const;

 private:
  friend class ScopedSpan;
  uint64_t NextId();
  void Close(Span span);

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  int64_t epoch_ns_ = 0;
  std::vector<Span> closed_;
  std::vector<Span> kept_;
};

/// RAII span. Open spans are tracked per thread so nested spans find their
/// parent without plumbing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cat,
             CpuClock clock = CpuClock::kThread);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Count(const std::string& key, double delta);
  void CountAll(const Counts& counts);
  void Label(const std::string& key, std::string value);
  /// Closes the span now (the destructor then does nothing).
  void End();

 private:
  Tracer* tracer_;
  CpuClock clock_;
  Span span_;
  uint64_t saved_parent_ = 0;
  int64_t cpu0_ = 0;
  bool open_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
