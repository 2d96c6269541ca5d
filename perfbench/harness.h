#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// A deliberate fault the self-test injects to prove a gate trips.
enum class Inject {
  kNone,
  kSignature,  ///< Corrupt one genuine signature in the first round.
  kBlock,      ///< Tamper with a block before the traced replay.
};

struct Options {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
  size_t threads = 1;  ///< The system pool's size, calling thread included.
};

/// \brief A correctness gate that failed. The run reports it and exits
/// non-zero without printing a result.
class GateFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// \brief The deterministic work of one run: identical across every run
/// of one (workload, seed, seconds), traced or not.
struct Counts {
  uint64_t blocks = 0;        ///< Blocks mined in the timed region.
  uint64_t empty_blocks = 0;
  uint64_t migrations = 0;    ///< Handoffs applied in the timed region.
  uint64_t messages = 0;      ///< Network messages in the timed region.
  uint64_t confirmed = 0;     ///< Valid transactions confirmed.
  uint64_t state_accounts = 0;  ///< Accounts in the busiest shard's state.
  /// Per shard: SHA-256 over its encoded canonical blocks, in order.
  std::map<uint32_t, std::string> block_digests;

  bool operator==(const Counts&) const = default;
};

/// \brief What one set-up plus timed run measured.
struct RunResult {
  double setup_s = 0.0;
  /// Timed seconds: the schedule's span in an open loop; in a closed
  /// loop only the rounds, not the generator signing between them.
  double wall_s = 0.0;
  uint64_t attempted = 0;  ///< Valid transactions handed over.
  uint64_t failed = 0;     ///< Of those, rejected or never confirmed.
  uint64_t forged = 0;
  /// Hand-over to confirmation, one sample per confirmed transaction.
  std::vector<double> latency_ms;
  size_t rounds = 0;
  size_t epochs = 0;
  Counts counts;
  /// Traced runs only: per-layer metrics by their BENCHMARK.json name,
  /// and each layer's share of the rounds' wall time.
  std::map<std::string, double> layers;
  std::map<std::string, double> round_shares;
};

/// Nearest-rank percentile; `q` in (0, 1].
double Percentile(std::vector<double> v, double q);

/// Set-up, timed run, and every correctness gate; with
/// `options.trace`, also the per-layer spans and the block replay.
/// Throws GateFailure when a gate fails.
RunResult RunOnce(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
