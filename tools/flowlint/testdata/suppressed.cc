// Fixture for the flowlint self-test: the same hazard patterns as
// hazards.cc, but every finding carries a flowlint:allow() waiver —
// the flowlint_honors_suppressions CTest case expects a clean exit,
// and the same run under --check-waivers must stay clean because
// every waiver here suppresses a real finding. Never compiled into
// any target.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, size_t, const B&);

inline int64_t StampMicros() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

inline uint64_t PackCandidates(uint64_t h) {
  return h ^ static_cast<uint64_t>(StampMicros());
}

// flowlint: deterministic-root
// flowlint:allow(consensus-reaches-nondet): fixture — stamp is display-only
inline uint64_t BuildDigest(uint64_t h) {
  return PackCandidates(h) * 0x9e3779b97f4a7c15ull;
}

inline uint64_t NextTicket() {
  static uint64_t issued = 0;
  return ++issued;
}

inline void StampAll(ThreadPool* pool, uint64_t* tickets, size_t n) {
  ParallelFor(pool, n, 64, [tickets](size_t i) {
    // flowlint:allow(parallel-body-effects): fixture — tickets are display-only
    tickets[i] = NextTicket();
  });
}

// flowlint:allow(unannotated-root): fixture exercising the waiver path
inline uint64_t RunSelectionGame(uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

}  // namespace fixture
