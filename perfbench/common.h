// common.h — shared plumbing of the perfbench driver: options, the
// operation/correctness ledger, the in-memory span recorder, and small
// statistics helpers.
//
// Spans are recorded only here, around calls into the library's public
// functions; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace file written by a traced run
  std::string work_dir = ".";  ///< scratch files (the serve socket)
};

/// Operations attempted and failed, plus every output check.  A failed
/// operation is one the program refused or got wrong in a way the
/// benchmark counts (an implied-edge mark, an error frame); a check that
/// does not hold makes the whole run incorrect.  Safe to update from the
/// serve workload's client threads.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Records a check; the first few failures are kept for stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Call after every worker thread has joined.
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::atomic<bool> correct_{true};
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mutex_;  ///< guards problems_
  std::vector<std::string> problems_;
};

/// One closed span.  `group` is shared by every span of one design or
/// one request; `parent` is 0 for a root span.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span store.  Spans nest through a thread-local parent, are
/// appended under a mutex when they close, and stay in memory until the
/// run ends.
class Tracer {
 public:
  Tracer();
  /// Switched only between phases, while no worker thread runs.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::int64_t now_ns() const;
  [[nodiscard]] std::uint64_t next_id();
  void add(const SpanRecord& r);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Self time per span name (duration minus the union of its direct
  /// children's intervals), summed over every recorded span, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Writes the spans as Chrome trace_event JSON ("X" events; args carry
  /// id, parent and group).  Returns false when the file cannot be opened.
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer.  It always times the call and
/// adds the milliseconds to `*acc` (the untraced runs need the same
/// timings for the end-to-end metrics); it records a SpanRecord only
/// when the tracer is enabled.  A nonzero `group` starts a new group;
/// zero inherits the enclosing span's.
class Span {
 public:
  Span(Tracer& t, const char* name, double* acc = nullptr,
       std::uint64_t group = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  double* acc_;
  Clock::time_point start_;
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_group_ = 0;
};

/// Result values printed in the final JSON line, in insertion order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit);
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].  0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double peak_rss_mb();
/// Current total of an lwm::obs counter (0 if it was never touched).
[[nodiscard]] std::uint64_t obs_counter(const char* name);
/// splitmix64 — the benchmark's own seed mixer.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

struct Workload {
  /// Set-up seconds of each repetition of the workload's set-up.
  std::vector<double> setup_s;
  Metrics end_to_end;
  Metrics per_layer;
};

void run_protect(const Options& opt, Tracer& tracer, Ledger& ledger,
                 Workload& out);
void run_scan(const Options& opt, Tracer& tracer, Ledger& ledger,
              Workload& out);
void run_serve(const Options& opt, Tracer& tracer, Ledger& ledger,
               Workload& out);

}  // namespace pb
