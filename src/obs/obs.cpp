#include "obs/obs.h"

#if LWM_OBS_ENABLED

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

namespace lwm::obs {

namespace {

/// Per-thread trace log.  Appends and snapshots are serialized by a
/// per-log mutex (appends happen only on span close with tracing on, so
/// the lock is uncontended in practice).  Logs are owned by the registry
/// and never freed, so events survive thread exit.
struct ThreadLog {
  std::uint32_t tid = 0;
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  /// Cap per thread: a runaway trace degrades to counting drops instead
  /// of exhausting memory (google-benchmark loops close many spans).
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 18;

  void append(const TraceEvent& ev) {
    std::lock_guard<std::mutex> lock(mutex);
    if (events.size() >= kMaxEvents) {
      ++dropped;
      return;
    }
    events.push_back(ev);
  }
};

struct ThreadState {
  std::uint32_t tid = 0;
  std::size_t shard = 0;
  std::uint64_t current_span = 0;
  ThreadLog* log = nullptr;
};

}  // namespace

struct Registry::Impl {
  std::chrono::steady_clock::time_point epoch;
  std::atomic<std::uint64_t> next_span_id{1};
  std::atomic<std::uint32_t> next_tid{0};

  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::unique_ptr<SpanSite>> span_sites;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::vector<std::unique_ptr<ThreadState>> thread_states;

  ThreadState* register_thread() {
    // Registry-owned so the state (and its trace log) outlives the
    // thread without tripping leak checkers; the registry itself is
    // immortal.
    auto state = std::make_unique<ThreadState>();
    state->tid = next_tid.fetch_add(1, std::memory_order_relaxed);
    state->shard = state->tid % kShards;
    auto log = std::make_unique<ThreadLog>();
    log->tid = state->tid;
    state->log = log.get();
    ThreadState* out = state.get();
    std::lock_guard<std::mutex> lock(mutex);
    logs.push_back(std::move(log));
    thread_states.push_back(std::move(state));
    return out;
  }
};

namespace {

ThreadState& tls_state() {
  // The pointer (not the state) is thread-local; the state is heap-owned
  // by the registry so its trace log survives thread exit.
  static thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    state = Registry::instance().impl().register_thread();
  }
  return *state;
}

}  // namespace

Registry::Registry() : impl_(new Impl) {
  impl_->epoch = std::chrono::steady_clock::now();
}

Registry& Registry::instance() {
  static Registry* reg = new Registry;  // never destroyed
  return *reg;
}

Counter& Registry::counter(const char* name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>(name);
  return *slot;
}

Histogram& Registry::histogram(const char* name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(name);
  return *slot;
}

SpanSite& Registry::span_site(const char* name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->span_sites[name];
  if (!slot) slot = std::make_unique<SpanSite>(name);
  return *slot;
}

std::vector<TraceEvent> Registry::trace_events() const {
  std::vector<TraceEvent> all;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& log : impl_->logs) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    all.insert(all.end(), log->events.begin(), log->events.end());
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.id < b.id;
  });
  return all;
}

std::uint64_t Registry::dropped_events() const noexcept {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& log : impl_->logs) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    total += log->dropped;
  }
  return total;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [_, c] : impl_->counters) c->reset();
  for (auto& [_, h] : impl_->histograms) h->reset();
  for (auto& [_, s] : impl_->span_sites) s->reset();
  for (auto& log : impl_->logs) {
    std::lock_guard<std::mutex> log_lock(log->mutex);
    log->events.clear();
    log->dropped = 0;
  }
}

std::int64_t Registry::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - impl_->epoch)
      .count();
}

std::vector<const Counter*> Registry::counters() const {
  std::vector<const Counter*> out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.reserve(impl_->counters.size());
  for (const auto& [_, c] : impl_->counters) out.push_back(c.get());
  return out;
}

std::vector<const Histogram*> Registry::histograms() const {
  std::vector<const Histogram*> out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.reserve(impl_->histograms.size());
  for (const auto& [_, h] : impl_->histograms) out.push_back(h.get());
  return out;
}

std::vector<const SpanSite*> Registry::span_sites() const {
  std::vector<const SpanSite*> out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.reserve(impl_->span_sites.size());
  for (const auto& [_, s] : impl_->span_sites) out.push_back(s.get());
  return out;
}

void Counter::add(std::uint64_t v) noexcept {
  shards_[tls_state().shard].value.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t v) noexcept {
  Shard& s = shards_[tls_state().shard];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Histogram::merge(std::uint64_t count, std::uint64_t sum,
                      std::uint64_t max,
                      std::span<const std::uint64_t, kBuckets> buckets) noexcept {
  Shard& s = shards_[tls_state().shard];
  s.count.fetch_add(count, std::memory_order_relaxed);
  s.sum.fetch_add(sum, std::memory_order_relaxed);
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] != 0) s.buckets[b].fetch_add(buckets[b], std::memory_order_relaxed);
  }
  std::uint64_t cur = s.max.load(std::memory_order_relaxed);
  while (max > cur &&
         !s.max.compare_exchange_weak(cur, max, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (const Shard& s : shards_) {
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

void SpanSite::record(std::uint64_t dur_ns) noexcept {
  Shard& s = shards_[tls_state().shard];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.ns.fetch_add(dur_ns, std::memory_order_relaxed);
}

std::uint64_t SpanSite::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t SpanSite::total_ns() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.ns.load(std::memory_order_relaxed);
  return total;
}

void SpanSite::reset() noexcept {
  for (Shard& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.ns.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t current_span() noexcept { return tls_state().current_span; }

TaskParent::TaskParent(std::uint64_t parent) noexcept
    : saved_(tls_state().current_span) {
  tls_state().current_span = parent;
}

TaskParent::~TaskParent() { tls_state().current_span = saved_; }

ScopedSpan::ScopedSpan(SpanSite& site) noexcept : site_(&site) {
  Registry& reg = Registry::instance();
  ThreadState& ts = tls_state();
  parent_ = ts.current_span;
  id_ = reg.impl().next_span_id.fetch_add(1, std::memory_order_relaxed);
  ts.current_span = id_;
  start_ns_ = reg.now_ns();
}

ScopedSpan::~ScopedSpan() {
  Registry& reg = Registry::instance();
  const std::int64_t end = reg.now_ns();
  const auto dur = static_cast<std::uint64_t>(end - start_ns_);
  site_->record(dur);
  ThreadState& ts = tls_state();
  ts.current_span = parent_;
  if (reg.tracing_enabled()) {
    TraceEvent ev;
    ev.name = site_->name().c_str();
    ev.id = id_;
    ev.parent = parent_;
    ev.start_ns = start_ns_;
    ev.dur_ns = end - start_ns_;
    ev.tid = ts.tid;
    ts.log->append(ev);
  }
}

}  // namespace lwm::obs

#endif  // LWM_OBS_ENABLED
