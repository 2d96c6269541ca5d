// Fixture for the parlint self-test: the same shapes as hazards.cc
// written the contract-compliant way — explicit captures, per-chunk
// ChunkSeed streams, disjoint writes, no raw threading. The
// parlint_clean_fixture CTest case expects a clean exit with ZERO
// findings (nothing here even needs a waiver). This file is never
// compiled into any target.

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
template <typename T, typename M, typename C>
T ParallelReduce(ThreadPool*, size_t, size_t, T, const M&, const C&);

// Disjoint writes with an explicit capture list: every lane owns slot
// i and nothing else.
inline void ScaleInPlace(ThreadPool* pool, std::vector<double>* out) {
  ParallelFor(pool, out->size(), 64, [out](size_t i) {
    (*out)[i] = 2.0 * (*out)[i];
  });
}

// Accumulation through the ordered reduction, not a shared cell; the
// per-chunk partial is a body-local.
inline double Sum(ThreadPool* pool, const std::vector<double>& xs) {
  return ParallelReduce(
      pool, xs.size(), 64, 0.0,
      [&xs](size_t begin, size_t end, size_t) {
        double partial = 0.0;
        for (size_t i = begin; i < end; ++i) partial += xs[i];
        return partial;
      },
      [](double acc, double p) { return acc + p; });
}

// Per-chunk slot accumulation: chunk c writes (*slots)[c] only.
inline void ChunkTotals(ThreadPool* pool, const std::vector<double>& xs,
                        std::vector<double>* slots) {
  ParallelChunks(pool, xs.size(), 64,
                 [&xs, slots](size_t begin, size_t end, size_t chunk) {
                   double acc = 0.0;
                   for (size_t i = begin; i < end; ++i) acc += xs[i];
                   (*slots)[chunk] = acc;
                 });
}

// Randomized chunk work seeded through ChunkSeed: stream depends on
// the chunk index alone, never on scheduling.
inline void FillNoise(ThreadPool* pool, uint64_t base,
                      std::vector<double>* out) {
  ParallelChunks(pool, out->size(), 64,
                 [out, base](size_t begin, size_t end, size_t chunk) {
                   Rng rng(ChunkSeed(base, chunk));
                   for (size_t i = begin; i < end; ++i) {
                     (*out)[i] = rng.UniformDouble();
                   }
                 });
}

}  // namespace fixture
