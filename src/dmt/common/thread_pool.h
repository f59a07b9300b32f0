// Fixed-size work-stealing thread pool.
//
// Backbone of the parallel prequential sweep (bench/harness.cc) and of the
// optional parallel ensemble training (ensemble/, `num_threads` config
// knob). The pool never influences results: every task must carry its own
// deterministic RNG state (seeded from data identity, never from thread
// identity or scheduling order), so outputs are bit-identical at any pool
// size.
//
// Design: each worker owns a deque; Submit() distributes round-robin,
// workers pop from the front of their own deque and steal from the back of
// a sibling's when theirs runs dry. A single mutex guards the deques --
// tasks here are coarse (a full prequential run, a member's batch), so
// queue contention is irrelevant next to task cost.
#ifndef DMT_COMMON_THREAD_POOL_H_
#define DMT_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmt {

class ThreadPool {
 public:
  // `num_threads` 0 picks DefaultThreads(). The workers start immediately
  // and live until destruction, which first drains every submitted task.
  // Callers wait for their own work through the futures Submit returns.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` and returns a future for its result; exceptions thrown by
  // the task are captured and rethrown from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Post([task]() { (*task)(); });
    return future;
  }

  // Pops one queued task (if any) and runs it on the calling thread;
  // returns whether a task was run. This is what makes a single pool
  // shareable across layers (sweep cells and ensemble member work): a task
  // that blocks on futures of sibling tasks helps drain the queue instead
  // of idling a worker, so nested submission can never deadlock the pool.
  bool RunOneTask();

  std::size_t num_threads() const { return workers_.size(); }

  // Hardware concurrency, clamped to at least 1.
  static std::size_t DefaultThreads();

 private:
  void Post(std::function<void()> fn);
  void WorkerLoop(std::size_t worker_index);
  // Pops the next task for `worker_index` (own front, else steal a sibling's
  // back). Requires `mutex_` held; returns an empty function if none.
  std::function<void()> TakeTask(std::size_t worker_index);

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;   // round-robin submission cursor
  std::size_t in_flight_ = 0;    // queued + currently running tasks
  bool shutting_down_ = false;
};

// Blocks until `future` is ready, running queued tasks of `pool` on the
// calling thread in the meantime. Use instead of future::get() whenever the
// waiting code may itself be running inside a pool task (shared-pool
// reentrancy). Safe: when the queue is empty and the future is still
// pending, the task producing it is already executing on some thread, so
// the plain wait() cannot deadlock.
template <typename T>
T GetHelping(ThreadPool* pool, std::future<T>* future) {
  while (future->wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool->RunOneTask()) {
      future->wait();
      break;
    }
  }
  return future->get();
}

}  // namespace dmt

#endif  // DMT_COMMON_THREAD_POOL_H_
