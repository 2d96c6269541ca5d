#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/workload.h"
#include "types/transaction.h"

namespace perfbench {

/// \brief Size and shape of one benchmark workload.
///
/// Key-bound accounts are laid out by index: the stream's returning
/// senders first (adversarial_open only), then one equal sub-pool per
/// contract (or one pool of MaxShard senders when there are no
/// contracts), then a single formation account that sends the
/// set-up round's MaxShard transfers.
struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  size_t contracts = 0;   ///< Deployed contracts; each forms one shard.
  size_t senders = 0;     ///< Key-bound traffic senders (all sub-pools).
  size_t returning = 0;   ///< Of `senders`, reserved for returning senders.
  size_t recipients = 0;  ///< Funded payee accounts (not key-bound).
  size_t miners = 0;
  uint64_t block_limit = 0;  ///< ChainConfig::max_txs_per_block.
  double forged_frac = 0.0;  ///< Share of signatures forged by the generator.

  // Closed loop: fixed batches, the next sent when the last confirmed.
  size_t batch = 0;
  size_t epoch_rounds = 0;
  /// Rounds per requested second: the run's work is fixed by
  /// (seed, seconds), never by the clock, so every count repeats.
  double rounds_per_second = 0.0;

  // Open loop: a fixed arrival rate handed over in ticks of `tick_txs`.
  double rate_tps = 0.0;
  size_t tick_txs = 0;
  size_t epoch_ticks = 0;  ///< Rounds per stream epoch.

  // Set-up formation round (routes the first transactions so the shards
  // exist and the first epoch's fractions give each of them miners).
  size_t formation_calls = 0;      ///< Calls per contract.
  size_t formation_transfers = 0;  ///< MaxShard transfers.
};

/// The named workload at full size, or at toy size (`toy`) for the
/// self-test. Returns false for an unknown name.
bool FindWorkload(const std::string& name, bool toy, WorkloadSpec* spec);

/// \brief One transaction the generator will sign and hand over.
struct PlannedTx {
  shardchain::Transaction tx;
  uint32_t key = 0;     ///< Index of the signing key-bound account.
  bool forged = false;  ///< The signature is corrupted before hand-over.
  double due = 0.0;     ///< Open loop: seconds after the run start.
};

/// \brief Deterministic traffic of one run: the set-up formation round
/// and then `Rounds()` rounds, a pure function of (spec, seed, seconds).
/// The benchmark assigns nonces: a valid transaction consumes its
/// sender's next nonce, a forged one does not.
class Traffic {
 public:
  /// `contracts` are the deployed contract addresses, `recipients` the
  /// funded payees, `accounts` the key-bound addresses (by key index).
  Traffic(const WorkloadSpec& spec, uint64_t seed, double seconds,
          std::vector<shardchain::Address> contracts,
          std::vector<shardchain::Address> recipients,
          std::vector<shardchain::Address> accounts);

  size_t Rounds() const { return rounds_; }
  size_t RoundsPerEpoch() const;
  /// Open loop: seconds after the run start at which round k is handed
  /// over (the due time of its last transaction).
  double HandoverTime(size_t round) const;

  std::vector<PlannedTx> Formation();
  /// The next round's transactions; rounds are produced in order.
  std::vector<PlannedTx> NextRound();

 private:
  void Plan(PlannedTx* p, uint32_t key);
  std::vector<PlannedTx> ClosedRound();
  std::vector<PlannedTx> OpenRound();
  uint32_t NextOfSubPool(size_t contract);

  WorkloadSpec spec_;
  shardchain::Rng rng_;
  std::vector<shardchain::Address> contracts_;
  std::vector<shardchain::Address> recipients_;
  std::vector<shardchain::Address> accounts_;
  std::vector<uint64_t> nonce_;
  std::vector<size_t> cursor_;  ///< Round-robin position per sub-pool.
  size_t rounds_ = 0;

  // Open loop: the adversarial stream and the current epoch's queue.
  std::unique_ptr<shardchain::AdversarialWorkloadStream> stream_;
  std::unordered_map<shardchain::Address, uint32_t> returning_;
  std::vector<PlannedTx> epoch_queue_;
  size_t queue_pos_ = 0;
  uint64_t next_index_ = 0;  ///< Global arrival index (sets due times).
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
