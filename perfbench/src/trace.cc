#include "trace.h"

#include <atomic>
#include <cstdio>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

thread_local uint64_t t_open_span = 0;

uint32_t ThisThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(WallNs()) {}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Close(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ns -= epoch_ns_;
  closed_.push_back(std::move(span));
}

std::vector<Span> Tracer::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(closed_, {});
}

void Tracer::Keep(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : spans) kept_.push_back(std::move(s));
}

bool Tracer::ExportChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"cpu_ms\":%.3f",
                 first ? "" : ",", JsonEscape(s.name).c_str(),
                 JsonEscape(s.cat).c_str(), s.tid, s.start_ns * 1e-3,
                 s.wall_ns * 1e-3, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.cpu_ns * 1e-6);
    for (const auto& [k, v] : s.counters) {
      std::fprintf(f, ",\"%s\":%.17g", JsonEscape(k).c_str(), v);
    }
    for (const auto& [k, v] : s.labels) {
      std::fprintf(f, ",\"%s\":\"%s\"", JsonEscape(k).c_str(),
                   JsonEscape(v).c_str());
    }
    std::fprintf(f, "}}");
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string cat,
                       CpuClock clock)
    : tracer_(tracer), clock_(clock) {
  if (tracer_ == nullptr) return;
  open_ = true;
  span_.id = tracer_->NextId();
  span_.parent = t_open_span;
  span_.name = std::move(name);
  span_.cat = std::move(cat);
  span_.tid = ThisThreadId();
  saved_parent_ = t_open_span;
  t_open_span = span_.id;
  cpu0_ = clock_ == CpuClock::kProcess ? ProcessCpuNs() : ThreadCpuNs();
  span_.start_ns = WallNs();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::Count(const std::string& key, double delta) {
  if (open_) span_.counters[key] += delta;
}

void ScopedSpan::CountAll(const Counts& counts) {
  for (const auto& [key, value] : counts) Count(key, value);
}

void ScopedSpan::Label(const std::string& key, std::string value) {
  if (open_) span_.labels[key] = std::move(value);
}

void ScopedSpan::End() {
  if (!open_) return;
  open_ = false;
  span_.wall_ns = WallNs() - span_.start_ns;
  span_.cpu_ns =
      (clock_ == CpuClock::kProcess ? ProcessCpuNs() : ThreadCpuNs()) - cpu0_;
  t_open_span = saved_parent_;
  tracer_->Close(std::move(span_));
}

}  // namespace perfbench
