#include "dmt/common/thread_pool.h"

#include <algorithm>

namespace dmt {

std::size_t ThreadPool::DefaultThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  queues_.resize(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this]() { return in_flight_ == 0; });
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[next_queue_].push_back(std::move(fn));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++in_flight_;
  }
  task_ready_.notify_one();
}

std::function<void()> ThreadPool::TakeTask(std::size_t worker_index) {
  std::deque<std::function<void()>>& own = queues_[worker_index];
  if (!own.empty()) {
    std::function<void()> task = std::move(own.front());
    own.pop_front();
    return task;
  }
  // Steal the oldest task of the first non-empty sibling.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    std::deque<std::function<void()>>& victim =
        queues_[(worker_index + offset) % queues_.size()];
    if (!victim.empty()) {
      std::function<void()> task = std::move(victim.back());
      victim.pop_back();
      return task;
    }
  }
  return {};
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Queue 0's front first, then steal from the others -- same policy a
    // worker with index 0 would apply.
    task = TakeTask(0);
    if (!task) return false;
  }
  task();  // packaged_task: exceptions land in the future, never escape
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (in_flight_ == 0) all_done_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this, worker_index]() {
        if (shutting_down_) return true;
        for (const auto& queue : queues_) {
          if (!queue.empty()) return true;
        }
        (void)worker_index;
        return false;
      });
      task = TakeTask(worker_index);
      if (!task) {
        if (shutting_down_) return;
        continue;
      }
    }
    task();  // packaged_task: exceptions land in the future, never escape
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace dmt
