// Fixture for the parlint self-test: the same hazard patterns as
// hazards.cc, but every one carries a parlint:allow() waiver — the
// parlint_honors_suppressions CTest case expects a clean exit, and the
// same run under --check-waivers must stay clean because every waiver
// here suppresses a real finding. This file is never compiled into any
// target.

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

// parlint:allow(raw-threading): fixture exercising the waiver path
inline std::mutex g_lock;

// parlint:allow(raw-threading): scratch buffer audited, never observable
thread_local int tl_scratch = 0;

inline int AsyncSum() {
  auto task = std::async([] { return 41; });  // parlint:allow(raw-threading)
  return task.get() + 1;
}

inline void RefCapture(ThreadPool* pool, std::vector<double>* out) {
  // parlint:allow(parallel-ref-capture): body audited, writes disjoint
  ParallelFor(pool, out->size(), 64, [&](size_t i) {
    (*out)[i] = 2.0 * (*out)[i];
  });
}

inline void SharedSum(ThreadPool* pool, const std::vector<double>& xs,
                      double* total) {
  ParallelFor(pool, xs.size(), 64, [&xs, total](size_t i) {
    *total += xs[i];  // parlint:allow(shared-accumulation)
  });
}

inline void HouseStream(ThreadPool* pool, std::vector<double>* out) {
  ParallelChunks(pool, out->size(), 64,
                 [out](size_t begin, size_t end, size_t chunk) {
                   // parlint:allow(unseeded-parallel-rng): chunk-keyed
                   Rng rng(chunk * 2654435761u);
                   for (size_t i = begin; i < end; ++i) {
                     (*out)[i] = rng.UniformDouble();
                   }
                 });
}

inline void NestedFanOut(ThreadPool* pool, std::vector<double>* grid,
                         size_t rows, size_t cols) {
  ParallelFor(pool, rows, 1, [pool, grid, cols](size_t r) {
    // parlint:allow(nested-parallel): inner region serializes inline
    ParallelFor(pool, cols, 64, [grid, cols, r](size_t c) {
      (*grid)[r * cols + c] = 0.0;
    });
  });
}

}  // namespace fixture
