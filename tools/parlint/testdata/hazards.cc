// Fixture for the parlint self-test: every rule must fire at least
// once in this file, UNSUPPRESSED. The parlint_detects_hazards CTest
// case runs the scanner over this file and expects a nonzero exit.
// This file is never compiled into any target (parlint is a token
// scanner; the declarations below only need to look like shardchain
// code, not link against it).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fixture {

struct ThreadPool;
struct Rng {
  explicit Rng(uint64_t seed);
  double UniformDouble();
};
uint64_t ChunkSeed(uint64_t base, uint64_t index);
template <typename B>
void ParallelFor(ThreadPool*, size_t, size_t, const B&);
template <typename B>
void ParallelChunks(ThreadPool*, size_t, size_t, const B&);

// Rule: raw-threading — concurrency primitives outside src/parallel/.
inline std::mutex g_lock;
inline std::atomic<int> g_counter{0};
inline std::once_flag g_once;
thread_local int tl_scratch = 0;

inline void SpawnWorker() {
  std::thread worker([] {});
  worker.join();
}

inline int FutureSum(std::promise<int>& result) {
  std::future<int> pending = result.get_future();
  auto task = std::async([] { return 41; });
  std::call_once(g_once, [] {});
  return task.get() + pending.get();
}

inline void RefCaptureAndSharedSum(ThreadPool* pool,
                                   std::vector<double>* out) {
  double total = 0.0;
  // Rules: parallel-ref-capture ([&] hides what the body touches) +
  // shared-accumulation (every lane bangs on the same `total`).
  ParallelFor(pool, out->size(), 64, [&](size_t i) {
    total += (*out)[i];
  });
  (void)total;
}

inline void SharedPushBack(ThreadPool* pool, std::vector<int>& sink) {
  // Rule: shared-accumulation — push_back reallocates under the feet
  // of concurrent lanes even when the capture is explicit.
  ParallelFor(pool, 100, 8, [&sink](size_t i) {
    sink.push_back(static_cast<int>(i));
  });
}

inline void UnseededStream(ThreadPool* pool, std::vector<double>* out) {
  // Rule: unseeded-parallel-rng — the seed is chunk-local but not
  // derived through ChunkSeed, so streams collide across regions.
  ParallelChunks(pool, out->size(), 64,
                 [out](size_t begin, size_t end, size_t chunk) {
                   Rng rng(12345 + chunk);
                   for (size_t i = begin; i < end; ++i) {
                     (*out)[i] = rng.UniformDouble();
                   }
                 });
}

inline void NestedFanOut(ThreadPool* pool, std::vector<double>* grid,
                         size_t rows, size_t cols) {
  // Rule: nested-parallel — the inner region serializes inline; legal,
  // but it must say so with a waiver.
  ParallelFor(pool, rows, 1, [pool, grid, cols](size_t r) {
    ParallelFor(pool, cols, 64, [grid, cols, r](size_t c) {
      (*grid)[r * cols + c] = 0.0;
    });
  });
}

}  // namespace fixture
