// parallel.h — structured parallel algorithms over a ThreadPool.
//
// `parallel_for_ranges` runs a body over [0, n) split into chunks;
// `parallel_reduce` additionally collects one partial result per chunk
// and folds them **in chunk-index order**, so even non-commutative folds
// (and anything sensitive to floating-point association) give the same
// answer at every thread count.  A null pool, concurrency 1, or a tiny
// range all degenerate to the plain serial loop.
//
// Waiters never block while work is pending: TaskGroup::wait() keeps
// executing queued tasks (its own or anyone else's), which is what makes
// nested parallel sections safe.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace lwm::exec {

/// Fork-join scope: spawn tasks, then wait for all of them while helping
/// the pool make progress.  The first exception thrown by any task is
/// rethrown from wait().
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  template <typename Fn>
  void spawn(Fn&& fn) {
    pending_.fetch_add(1, std::memory_order_acq_rel);
    pool_.submit(
        [this, fn = std::forward<Fn>(fn)]() mutable {
          try {
            fn();
          } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_) error_ = std::current_exception();
          }
        },
        // Completion is the pool's `done` step, not the task's tail, so
        // the task's own span is logged before wait() can return.  The
        // decrement must happen under mutex_: the waiter re-locks mutex_
        // after its loop, so it cannot return (and destroy this TaskGroup)
        // until the finishing task has released the lock — otherwise a
        // waiter observing pending_==0 between our fetch_sub and notify
        // would free the mutex/cv out from under us.
        [this] {
          std::lock_guard<std::mutex> lock(mutex_);
          if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            cv_.notify_all();
          }
        });
  }

  void wait() {
    while (pending_.load(std::memory_order_acquire) > 0) {
      if (pool_.run_one()) continue;
      // Nothing stealable: our tasks are running on workers. Sleep until
      // one of them retires.
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
        return pending_.load(std::memory_order_acquire) == 0;
      });
    }
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      err = error_;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::exception_ptr error_;
};

/// Chunk count that keeps every lane busy without oversubmitting.
[[nodiscard]] inline std::size_t suggested_chunks(const ThreadPool* pool,
                                                  std::size_t n) {
  if (pool == nullptr) return 1;
  const std::size_t lanes = static_cast<std::size_t>(pool->concurrency());
  const std::size_t chunks = lanes * 4;
  return chunks < n ? chunks : n;
}

/// Runs body(begin, end) over [0, n) split into at most `chunks` ranges.
/// Serial (in-order) when the pool is null / single-lane or chunks <= 1.
template <typename Body>
void parallel_for_ranges(ThreadPool* pool, std::size_t n, std::size_t chunks,
                         Body&& body) {
  if (n == 0) return;
  if (chunks > n) chunks = n;
  if (pool == nullptr || pool->concurrency() <= 1 || chunks <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  TaskGroup group(*pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    if (begin == end) continue;
    group.spawn([&body, begin, end] { body(begin, end); });
  }
  group.wait();
}

/// Per-index convenience wrapper: body(i) for i in [0, n).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n, Body&& body) {
  parallel_for_ranges(pool, n, suggested_chunks(pool, n),
                      [&body](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

/// map(begin, end) -> T per chunk; partials folded left-to-right in chunk
/// order: fold(fold(init, part_0), part_1) ...  Pass an explicit chunk
/// count when the chunk boundaries themselves are semantically load-
/// bearing (e.g. per-chunk RNG streams) — the result is then independent
/// of the pool entirely.
template <typename T, typename Map, typename Fold>
[[nodiscard]] T parallel_reduce(ThreadPool* pool, std::size_t n,
                                std::size_t chunks, T init, Map&& map,
                                Fold&& fold) {
  if (n == 0) return init;
  if (chunks > n) chunks = n;
  if (chunks <= 1 || pool == nullptr || pool->concurrency() <= 1) {
    // Even serially, honor the chunk boundaries so chunk-seeded callers
    // get pool-independent results.
    T acc = std::move(init);
    const std::size_t parts = chunks == 0 ? 1 : chunks;
    for (std::size_t c = 0; c < parts; ++c) {
      const std::size_t begin = c * n / parts;
      const std::size_t end = (c + 1) * n / parts;
      if (begin == end) continue;
      acc = fold(std::move(acc), map(begin, end));
    }
    return acc;
  }
  std::vector<std::pair<bool, T>> parts(chunks, {false, init});
  parallel_for_ranges(pool, chunks, chunks,
                      [&](std::size_t cb, std::size_t ce) {
                        for (std::size_t c = cb; c < ce; ++c) {
                          const std::size_t begin = c * n / chunks;
                          const std::size_t end = (c + 1) * n / chunks;
                          if (begin == end) continue;
                          parts[c] = {true, map(begin, end)};
                        }
                      });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (parts[c].first) acc = fold(std::move(acc), std::move(parts[c].second));
  }
  return acc;
}

}  // namespace lwm::exec
