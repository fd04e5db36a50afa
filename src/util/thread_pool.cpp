#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace wefr::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
          if (stopping_ && tasks_.empty()) return;
          task = std::move(tasks_.front());
          tasks_.pop();
        }
        task();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const std::size_t chunks = std::min(n, workers_.size());
  std::vector<std::future<void>> futs;
  futs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futs.push_back(submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futs) f.get();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for_chunked(std::size_t n, std::size_t min_chunk,
                                      const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  min_chunk = std::max<std::size_t>(1, min_chunk);
  // Large inputs use bigger chunks (less counter traffic); the 4x
  // oversubscription keeps the tail balanced when chunks vary in cost.
  const std::size_t chunk = std::max(min_chunk, n / (4 * workers_.size() + 1));
  if (n <= chunk) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  const std::size_t tasks = std::min(num_chunks, workers_.size());
  std::vector<std::future<void>> futs;
  futs.reserve(tasks);
  for (std::size_t c = 0; c < tasks; ++c) {
    futs.push_back(submit([&] {
      for (;;) {
        const std::size_t base = next.fetch_add(chunk, std::memory_order_relaxed);
        if (base >= n) return;
        const std::size_t end = std::min(base + chunk, n);
        try {
          for (std::size_t i = base; i < end; ++i) fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : futs) f.get();
  if (error) std::rethrow_exception(error);
}

void run_tasks(std::size_t num_threads, std::size_t n,
               const std::function<void(std::size_t)>& fn) {
  if (num_threads > 1 && n > 1) {
    ThreadPool pool(std::min(num_threads, n));
    pool.parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

}  // namespace wefr::util
