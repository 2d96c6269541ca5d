// Fixture for the flowlint self-test: rules 1–3 must each fire at
// least once in this file, UNSUPPRESSED (rule 4, taint-summary-drift,
// needs a --summaries file and has its own fixtures under drift/). The
// flowlint_detects_hazards CTest case runs the scanner over this file
// and expects a nonzero exit. Never compiled into any target.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, size_t, const B&);

// Rule: consensus-reaches-nondet — StampMicros reads the wall clock,
// PackCandidates calls it, and the annotated root sits two calls
// above: the 3-hop chain BuildDigest → PackCandidates → StampMicros →
// system_clock.
inline int64_t StampMicros() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

inline uint64_t PackCandidates(uint64_t h) {
  return h ^ static_cast<uint64_t>(StampMicros());
}

// flowlint: deterministic-root
inline uint64_t BuildDigest(uint64_t h) {
  return PackCandidates(h) * 0x9e3779b97f4a7c15ull;
}

// Rule: parallel-body-effects — NextTicket bumps a function-local
// static; calling it from a ParallelFor lambda makes every lane's
// ticket depend on the schedule.
inline uint64_t NextTicket() {
  static uint64_t issued = 0;
  return ++issued;
}

inline void StampAll(ThreadPool* pool, uint64_t* tickets, size_t n) {
  ParallelFor(pool, n, 64, [tickets](size_t i) {
    tickets[i] = NextTicket();
  });
}

// Rule: unannotated-root — a required consensus entry point defined
// without its deterministic-root annotation.
inline uint64_t RunSelectionGame(uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

}  // namespace fixture
