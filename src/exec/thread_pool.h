// thread_pool.h — work-stealing thread pool underlying every parallel
// stage of the library (schedule enumeration, psi batches, detector
// scans, bench drivers).
//
// Design.  `ThreadPool(n)` provides total concurrency n: n-1 worker
// threads plus the *calling* thread, which joins in through the
// help-loops of `parallel_for_ranges` / `parallel_reduce` (exec/parallel.h).
// Each worker owns a deque; it pops its own work LIFO (cache locality)
// and steals FIFO from its siblings when empty, so nested parallel
// sections and uneven DFS branches balance without a central queue
// becoming a bottleneck.  Because waiters execute queued tasks instead
// of blocking, nesting parallel sections (e.g. a parallel psi batch
// whose inner enumerations parallelize their first level) cannot
// deadlock.
//
// Determinism contract: the pool schedules *where* tasks run, never
// *what* they compute; all library algorithms built on it merge partial
// results in task-index order, so every thread count produces bit-equal
// results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lwm::exec {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Total concurrency, including the thread that drives parallel
  /// sections: `concurrency` - 1 workers are spawned.  Values < 1 clamp
  /// to 1 (no workers; every parallel call degenerates to a serial loop).
  explicit ThreadPool(int concurrency);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count + 1 for the driving thread.
  [[nodiscard]] int concurrency() const noexcept {
    return static_cast<int>(queues_.size());
  }

  /// Enqueues a task.  Worker threads push onto their own deque; external
  /// threads round-robin across deques.  `done`, if set, runs after the
  /// task on the same thread, once the task's `exec/task` span has closed
  /// and been logged: a fork-join that signals completion from `done`
  /// releases its waiter only when every span of the task is in the trace.
  void submit(Task task, Task done = nullptr);

  /// Runs one queued task on the calling thread, if any is pending.
  /// Used by waiters to make progress instead of blocking.
  bool run_one();

  [[nodiscard]] static int hardware_concurrency() noexcept;

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_main(std::size_t queue_index);
  bool try_pop(std::size_t home, Task& out);

  // queues_[0] belongs to the driving/external side (run_one); each
  // worker i owns queues_[i + 1].
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
};

}  // namespace lwm::exec
