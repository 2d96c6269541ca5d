// Unit tests for the deterministic fork-join pool and the parallel
// primitives built on it (ctest label: parallel). The contract under
// test is DESIGN.md §9: fixed chunking, disjoint writes, ordered
// reduction, per-chunk seeding — so every result is independent of
// thread count and scheduling, including the pool-free serial path.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "parallel/parallel.h"
#include "parallel/thread_pool.h"

namespace shardchain {
namespace {

// Thread counts every equivalence assertion sweeps: serial, even,
// odd, prime, and more-threads-than-chunks shapes.
const size_t kThreadCounts[] = {1, 2, 3, 4, 7, 8};

TEST(ParallelConfigTest, ResolveHonorsExplicitAndDefault) {
  EXPECT_EQ(ParallelConfig{1}.Resolve(), 1u);
  EXPECT_EQ(ParallelConfig{5}.Resolve(), 5u);
  EXPECT_GE(ParallelConfig{0}.Resolve(), 1u);  // hardware_concurrency.
}

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<int> hits(1000, 0);
    pool.Run(hits.size(), [&](size_t c) { ++hits[c]; });
    for (size_t c = 0; c < hits.size(); ++c) {
      ASSERT_EQ(hits[c], 1) << "chunk " << c << " at " << threads
                            << " threads";
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.Run(17, [&](size_t c) { total += c; });
  }
  EXPECT_EQ(total.load(), 50u * (16 * 17 / 2));
}

TEST(ParallelForTest, ThreadsOneMatchesPoolFreePathBitwise) {
  // A ThreadPool(1) and no pool at all must walk the identical chunks
  // in the identical order: same doubles, bit for bit.
  const size_t n = 10'007;
  std::vector<double> serial(n), pooled(n);
  auto body = [](size_t i) {
    return std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (1.0 + i);
  };
  ParallelFor(nullptr, n, 64, [&](size_t i) { serial[i] = body(i); });
  ThreadPool one(1);
  ParallelFor(&one, n, 64, [&](size_t i) { pooled[i] = body(i); });
  EXPECT_EQ(serial, pooled);
}

TEST(ParallelReduceTest, OrderedReductionBitStableAcrossThreadCounts) {
  // Floating-point addition is not associative; only the fixed
  // chunking + left-to-right fold of per-chunk partials makes the sum
  // reproducible. Compare full bit patterns against the serial result.
  const size_t n = 54'321;
  auto reduce = [&](ThreadPool* pool) {
    return ParallelReduce(
        pool, n, 100, 0.0,
        [](size_t begin, size_t end, size_t) {
          double partial = 0.0;
          for (size_t i = begin; i < end; ++i) {
            partial += 1.0 / (1.0 + static_cast<double>(i) * 1e-3);
          }
          return partial;
        },
        [](double acc, double p) { return acc + p; });
  };
  const double expected = reduce(nullptr);
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const double got = reduce(&pool);
    uint64_t eb, gb;
    static_assert(sizeof(eb) == sizeof(expected));
    std::memcpy(&eb, &expected, sizeof(eb));
    std::memcpy(&gb, &got, sizeof(gb));
    EXPECT_EQ(eb, gb) << "FP sum drifted at " << threads << " threads";
  }
}

TEST(ParallelChunksTest, ChunkBoundariesDependOnlyOnSizeAndGrain) {
  // Record (begin, end, chunk) triples at several thread counts; the
  // sets must be identical because boundaries are (n, grain) functions.
  const size_t n = 1003, grain = 17;
  auto collect = [&](ThreadPool* pool) {
    std::vector<std::vector<size_t>> triples(NumChunks(n, grain));
    ParallelChunks(pool, n, grain, [&](size_t b, size_t e, size_t c) {
      triples[c] = {b, e, c};
    });
    return triples;
  };
  const auto expected = collect(nullptr);
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(collect(&pool), expected) << threads << " threads";
  }
}

TEST(ParallelChunksTest, ChunkSeedStreamsIndependentOfThreadCount) {
  // Per-chunk RNG: the draws a chunk makes depend only on its index.
  const uint64_t base = 0xfeedfacecafebeefull;
  auto draw = [&](ThreadPool* pool) {
    std::vector<uint64_t> out(NumChunks(256, 8));
    ParallelChunks(pool, 256, 8, [&](size_t, size_t, size_t c) {
      Rng sub(ChunkSeed(base, c));
      out[c] = sub.Next() ^ sub.Next();
    });
    return out;
  };
  const auto expected = draw(nullptr);
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(draw(&pool), expected) << threads << " threads";
  }
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100, 1,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("chunk 37");
                  }),
      std::runtime_error);
  // The failed region must drain fully: the pool stays usable.
  std::atomic<int> ran{0};
  ParallelFor(&pool, 64, 1, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForSerializesInline) {
  // An inner region launched from inside a chunk must not deadlock and
  // must produce the same values as a serial inner loop.
  ThreadPool pool(4);
  const size_t outer = 8, inner = 32;
  std::vector<std::vector<uint64_t>> got(outer);
  std::vector<uint8_t> was_nested(outer, 0);
  ParallelFor(&pool, outer, 1, [&](size_t o) {
    was_nested[o] = ThreadPool::InParallelRegion() ? 1 : 0;
    got[o].assign(inner, 0);
    ParallelFor(&pool, inner, 4,
                [&](size_t i) { got[o][i] = o * 1000 + i; });
  });
  for (size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(was_nested[o], 1) << "outer chunk " << o;
    for (size_t i = 0; i < inner; ++i) {
      ASSERT_EQ(got[o][i], o * 1000 + i);
    }
  }
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, ConcurrentExternalCallersEachGetTheirOwnRegion) {
  // Two threads outside the pool call Run() on it at once, many times.
  // Each region must run exactly its own chunks with its own function
  // (a caller that finds the workers busy runs inline), and neither
  // caller may hang. A watchdog turns a deadlock into a failure.
  ThreadPool pool(4);
  constexpr size_t kRegions = 400, kChunks = 48;
  std::vector<size_t> bad_regions(2, 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;
  auto caller = [&](size_t who) {
    std::vector<uint64_t> out(kChunks);
    for (size_t region = 0; region < kRegions; ++region) {
      std::fill(out.begin(), out.end(), 0);
      pool.Run(kChunks, [&out, who, region](size_t c) {
        out[c] += (who + 1) * 1'000'000 + region * 100 + c;
      });
      for (size_t c = 0; c < kChunks; ++c) {
        if (out[c] != (who + 1) * 1'000'000 + region * 100 + c) {
          ++bad_regions[who];
          break;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++finished;
    cv.notify_all();
  };
  std::thread a(caller, 0), b(caller, 1);
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60),
                     [&] { return finished == 2; })) {
      std::fprintf(stderr, "concurrent Run() callers deadlocked\n");
      std::_Exit(EXIT_FAILURE);
    }
  }
  a.join();
  b.join();
  EXPECT_EQ(bad_regions[0], 0u);
  EXPECT_EQ(bad_regions[1], 0u);
  // The pool still serves a single caller normally afterwards.
  std::atomic<size_t> ran{0};
  pool.Run(kChunks, [&ran](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), kChunks);
}

TEST(ParallelForTest, EmptyAndSingleElementRanges) {
  ThreadPool pool(3);
  int hits = 0;
  ParallelFor(&pool, 0, 16, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  ParallelFor(&pool, 1, 16, [&](size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace shardchain
