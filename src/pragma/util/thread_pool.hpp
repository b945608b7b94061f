// A small fixed-size thread pool (no work stealing: one shared FIFO queue).
//
// It runs the service scheduler's runs, Table 5's independent experiments
// and the optional threaded WorkGrid rasterization (`parallel_blocks`,
// `TraceRunConfig::threads` > 1).  Waiting callers help drain the queue
// (`help_while_waiting` / `get_helping`), so nested parallel sections
// cannot deadlock even when every worker is occupied by an outer task.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pragma::util {

class ThreadPool {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue `fn` and return a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Pop and run one queued task on the calling thread; false if the queue
  /// was empty.  This is how waiting callers keep the pool deadlock-free.
  bool try_run_one();

  /// Block until `future` is ready, draining queued tasks on the calling
  /// thread in the meantime.
  template <typename T>
  T get_helping(std::future<T>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready)
      if (!try_run_one()) future.wait_for(1ms);
    return future.get();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool (lazily created, hardware_concurrency workers).
[[nodiscard]] ThreadPool& shared_pool();

/// Partition [0, n) into at most `threads` contiguous blocks and run
/// fn(block, begin, end) for each, block 0 on the calling thread and the
/// rest on the shared pool.  Returns the number of blocks used (callers
/// merge per-block partials in block order for deterministic reduction).
/// threads <= 1, or n too small to split, degrades to one inline call —
/// byte-for-byte the serial code path.
std::size_t parallel_blocks(
    std::size_t n, int threads,
    const std::function<void(std::size_t block, std::size_t begin,
                             std::size_t end)>& fn);

/// Clamped thread-count helper: 0 (auto) -> hardware_concurrency, min 1.
[[nodiscard]] int resolve_threads(int threads);

}  // namespace pragma::util
