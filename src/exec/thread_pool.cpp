#include "exec/thread_pool.h"

#include "obs/obs.h"

#if LWM_OBS_ENABLED
#include <chrono>
#include <utility>
#endif

namespace lwm::exec {

namespace {

// Which queue the current thread owns, so submits from inside a worker
// stay local to its deque.  One pool is the overwhelmingly common case;
// the pool pointer disambiguates when several coexist.
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_queue = 0;

}  // namespace

ThreadPool::ThreadPool(int concurrency) {
  const int total = concurrency < 1 ? 1 : concurrency;
  queues_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back(
        [this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Drain anything still queued (only possible if a user submitted raw
  // tasks without waiting on them; parallel_for always drains first).
  Task task;
  while (try_pop(0, task)) task();
}

int ThreadPool::hardware_concurrency() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::submit(Task task, Task done) {
#if LWM_OBS_ENABLED
  // Attribute the task to the span open where it was *submitted*: the
  // wrapper restores that span id on whichever thread runs the task, so
  // spans opened inside nest under the logical caller, not the worker.
  LWM_COUNT("exec/tasks_submitted", 1);
  task = [parent = obs::current_span(), inner = std::move(task),
          done = std::move(done)]() mutable {
    {
      obs::TaskParent link(parent);
      LWM_SPAN("exec/task");
      LWM_COUNT("exec/tasks_run", 1);
      inner();
    }
    if (done) done();
  };
#else
  if (done) {
    task = [inner = std::move(task), done = std::move(done)]() mutable {
      inner();
      done();
    };
  }
#endif
  std::size_t home;
  if (tls_pool == this) {
    home = tls_queue;
  } else {
    home = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  // Count the task before publishing it: if a spinning worker popped it
  // first, the fetch_sub in try_pop would transiently wrap the unsigned
  // counter below zero.
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queues_[home]->mutex);
    queues_[home]->tasks.push_back(std::move(task));
  }
  {
    // Pairing the notify with the wake mutex closes the race where a
    // worker has checked `pending_` and is about to sleep.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t home, Task& out) {
  const std::size_t n = queues_.size();
  {
    Queue& own = *queues_[home];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());  // LIFO on the owner's deque
      own.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::size_t off = 1; off < n; ++off) {
    Queue& victim = *queues_[(home + off) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());  // FIFO steal
      victim.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      LWM_COUNT("exec/tasks_stolen", 1);
      return true;
    }
  }
  return false;
}

bool ThreadPool::run_one() {
  const std::size_t home = tls_pool == this ? tls_queue : 0;
  Task task;
  if (!try_pop(home, task)) return false;
  task();
  return true;
}

void ThreadPool::worker_main(std::size_t queue_index) {
  tls_pool = this;
  tls_queue = queue_index;
  for (;;) {
    Task task;
    if (try_pop(queue_index, task)) {
      task();
      continue;
    }
#if LWM_OBS_ENABLED
    const auto idle_from = std::chrono::steady_clock::now();
#endif
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
#if LWM_OBS_ENABLED
    LWM_COUNT("exec/idle_ns",
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - idle_from)
                  .count());
#endif
    if (stop_) return;
  }
}

}  // namespace lwm::exec
