#include "parallel/thread_pool.h"

namespace shardchain {

namespace {

/// Set while the current thread executes chunks; Run() calls made from
/// such a context (nested parallelism) fall back to the serial loop.
thread_local bool tls_in_parallel_region = false;

class RegionGuard {
 public:
  RegionGuard() : saved_(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~RegionGuard() { tls_in_parallel_region = saved_; }

 private:
  bool saved_;
};

}  // namespace

bool ThreadPool::InParallelRegion() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(size_t threads) {
  const size_t total = threads == 0 ? 1 : threads;
  workers_.reserve(total - 1);
  for (size_t i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::DrainChunks(const std::function<void(size_t)>& fn,
                             size_t num_chunks) {
  RegionGuard guard;
  for (;;) {
    const size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) return;
    try {
      fn(c);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      // Skip the chunks nobody started yet; peers finish their current
      // chunk and the region drains normally.
      next_chunk_.store(num_chunks, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t served = 0;
  for (;;) {
    const std::function<void(size_t)>* fn = nullptr;
    size_t chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != served; });
      if (stop_) return;
      served = generation_;
      // A region that finished before this worker woke has cleared
      // job_: nothing to join.
      if (job_ == nullptr) continue;
      fn = job_;
      chunks = job_chunks_;
      ++active_workers_;
    }
    DrainChunks(*fn, chunks);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::Run(size_t num_chunks,
                     const std::function<void(size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  bool inline_run = workers_.empty() || num_chunks == 1 || InParallelRegion();
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(mu_);
    // Another external thread's region holds the workers: its job_,
    // cursor and error slot must not be overwritten.
    inline_run = running_;
    if (!inline_run) {
      running_ = true;
      job_ = &chunk_fn;
      job_chunks_ = num_chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      first_error_ = nullptr;
      ++generation_;
    }
  }
  if (inline_run) {
    // Serial path: inline, in chunk order — bitwise identical to the
    // pool-free loop (and the only legal behaviour when nested or when
    // the workers are busy with another caller's region).
    RegionGuard guard;
    for (size_t c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  work_cv_.notify_all();

  // The calling thread is the final lane. When it returns every chunk
  // has been claimed, so the region is done once the workers that
  // joined it finish theirs; workers still asleep are not waited for.
  DrainChunks(chunk_fn, num_chunks);

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    running_ = false;
    job_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace shardchain
