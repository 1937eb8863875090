#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "obs/obs.h"

namespace pb {

namespace {

thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_group = 0;

std::uint32_t thread_index() {
  static std::mutex m;
  static std::uint32_t next = 0;
  thread_local std::uint32_t idx = [] {
    std::lock_guard lock(m);
    return next++;
  }();
  return idx;
}

}  // namespace

void Ledger::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::lock_guard lock(mutex_);
  if (problems_.size() < 16) problems_.push_back(what);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return ++last_id_;
}

void Tracer::add(const SpanRecord& r) {
  std::lock_guard lock(mutex_);
  spans_.push_back(r);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent: pool
      // lanes or client threads may run children concurrently.
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const SpanRecord* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (cur_b < a) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<SpanRecord> all = spans();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : all) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Span::Span(Tracer& t, const char* name, double* acc, std::uint64_t group)
    : tracer_(t), acc_(acc) {
  if (tracer_.enabled()) {
    rec_.name = name;
    rec_.id = tracer_.next_id();
    rec_.parent = tl_parent;
    rec_.group = group != 0 ? group : tl_group;
    rec_.tid = thread_index();
    saved_parent_ = tl_parent;
    saved_group_ = tl_group;
    tl_parent = rec_.id;
    tl_group = rec_.group;
    rec_.start_ns = tracer_.now_ns();
  }
  start_ = Clock::now();
}

Span::~Span() {
  const Clock::time_point end = Clock::now();
  if (acc_ != nullptr) *acc_ += ms_between(start_, end);
  if (rec_.id != 0) {
    rec_.end_ns = tracer_.now_ns();
    tl_parent = saved_parent_;
    tl_group = saved_group_;
    tracer_.add(rec_);
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, vu] : items) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  items.push_back({name, {value, unit}});
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t obs_counter(const char* name) {
  return lwm::obs::Registry::instance().counter(name).total();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"cdfg.parse_ms", "ms"},
      {"cdfg.parse_mb_per_s", "MB/s"},
      {"cdfg.timing_ms", "ms"},
      {"wm.plan_context_ms", "ms"},
      {"wm.embed_ms", "ms"},
      {"wm.detect_ms", "ms"},
      {"wm.roots_scanned", "count"},
      {"wm.domains_carved", "count"},
      {"sched.fds_ms", "ms"},
      {"sched.fds_refills", "count"},
      {"sched.list_ms", "ms"},
      {"sched.modulo_ms", "ms"},
      {"sched.kpaths_ms", "ms"},
      {"sched.verify_ms", "ms"},
      {"wm.pc_ms", "ms"},
      {"wm.pc_calls", "count"},
      {"wm.pc_exact", "count"},
      {"wm.pc_saturated", "count"},
      {"sched.parse_schedule_ms", "ms"},
      {"serve.load_design_p50_ms", "ms"},
      {"serve.load_design_p99_ms", "ms"},
      {"serve.load_schedule_p50_ms", "ms"},
      {"serve.load_schedule_p99_ms", "ms"},
      {"serve.embed_p50_ms", "ms"},
      {"serve.embed_p99_ms", "ms"},
      {"serve.detect_p50_ms", "ms"},
      {"serve.detect_p99_ms", "ms"},
      {"serve.pc_p50_ms", "ms"},
      {"serve.pc_p99_ms", "ms"},
      {"serve.evict_p50_ms", "ms"},
      {"serve.evict_p99_ms", "ms"},
      {"serve.store_hits", "count"},
      {"serve.store_misses", "count"},
      {"serve.store_evictions", "count"},
      {"serve.gen_late_ms", "ms"},
      {"serve.max_rps", "1/s"},
      {"wm.marks", "count"},
      {"wm.edges", "count"},
      {"wm.edges_implied", "count"},
      {"trace.overhead_pct", "%"},
  };
  return list;
}

}  // namespace pb
