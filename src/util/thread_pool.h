#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wefr::util {

/// Fixed-size worker pool used to parallelize forest training and the
/// ensemble of preliminary feature selectors (the paper runs the five
/// selectors in parallel; Exp#4 measures exactly that composition).
///
/// Tasks are arbitrary callables; `submit` returns a future. The pool
/// joins all workers on destruction, after draining outstanding tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1; 0 is coerced to 1).
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues `fn(args...)` and returns a future for its result.
  template <typename F, typename... Args>
  auto submit(F&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::bind(std::forward<F>(fn), std::forward<Args>(args)...));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  /// iterations complete. Exceptions from iterations are rethrown (the
  /// first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// As `parallel_for`, but workers claim contiguous batches of at
  /// least `min_chunk` iterations from the shared counter instead of
  /// one index at a time. For many small iterations (scoring one drive,
  /// ranking one feature) this amortizes the atomic traffic and keeps
  /// each worker on a contiguous slice of the output. The chunk size
  /// grows to n / (4 * workers) when that is larger, so big inputs
  /// still balance across the pool. Iteration order within a chunk is
  /// ascending; results must not depend on cross-chunk ordering (ours
  /// never do — every iteration writes its own slot).
  void parallel_for_chunked(std::size_t n, std::size_t min_chunk,
                            const std::function<void(std::size_t)>& fn);

 private:
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs `fn(i)` for i in [0, n): on a pool of min(n, num_threads)
/// workers when num_threads > 1 and n > 1, inline in index order
/// otherwise. The same code runs at any thread count, so when each
/// iteration writes only its own slot the results cannot depend on it.
/// Tasks may fan out again internally (the wear groups' selections and
/// bundle fits do). Exceptions propagate as from
/// `ThreadPool::parallel_for`.
void run_tasks(std::size_t num_threads, std::size_t n,
               const std::function<void(std::size_t)>& fn);

/// Returns a sensible default worker count for this host.
std::size_t default_thread_count();

}  // namespace wefr::util
