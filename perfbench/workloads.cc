#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using shardchain::Address;
using shardchain::Transaction;
using shardchain::TxKind;

namespace {

// Full-size workloads. The comments give the reason for each size; the
// per-layer costs they cite are in perfbench/README.md.
WorkloadSpec ShardedCalls() {
  WorkloadSpec s;
  s.name = "sharded_calls";
  s.contracts = 16;
  s.senders = 4096;
  s.recipients = 1;
  // 256 miners over 16 equal bands leave a shard without a miner with
  // probability ~1e-6 per epoch.
  s.miners = 256;
  s.block_limit = 1024;
  s.forged_frac = 0.01;
  s.batch = 3072;
  s.epoch_rounds = 8;
  s.rounds_per_second = 2.0;
  s.formation_calls = 1;
  return s;
}

WorkloadSpec MaxShardBigState() {
  WorkloadSpec s;
  s.name = "maxshard_bigstate";
  s.senders = 4096;
  // Every block keeps a full copy of this state, so the payee count is
  // what bounds the run's memory (see README: "Sizing").
  s.recipients = 250000;
  s.miners = 16;  // All in the MaxShard: its fraction is 100%.
  s.block_limit = 1024;
  s.batch = 1024;
  s.epoch_rounds = 4;
  s.rounds_per_second = 1.4;
  s.formation_transfers = 16;
  return s;
}

WorkloadSpec AdversarialOpen() {
  WorkloadSpec s;
  s.name = "adversarial_open";
  s.open_loop = true;
  s.contracts = 8;
  // Each stream sender has at most one transaction per tick, so a
  // block never meets a sender's nonces out of fee order: returning
  // sender i signs with account i (256 > the ~100 returning
  // transactions of a tick), and each contract's 352 one-off senders
  // cover its share of a flash-crowd tick (~200).
  s.senders = 3072;
  s.returning = 256;
  s.recipients = 1;
  s.miners = 384;
  s.block_limit = 1024;
  s.forged_frac = 0.01;
  // About a third of sharded_calls' rate: at 5500 tx/s and more the
  // rounds fill ~3/4 of each tick, and a slow spell of the host makes
  // the backlog, not the system, set the tail.
  s.rate_tps = 4000.0;
  s.tick_txs = 400;
  s.epoch_ticks = 12;
  s.formation_calls = 8;
  // The leader's fractions count routed transactions. Without MaxShard
  // traffic before the first contract switch the MaxShard would get no
  // miners in that epoch; 4% of an epoch keeps its band wider than 3 of
  // the 100 RandHound groups.
  s.formation_transfers = 192;
  return s;
}

WorkloadSpec Shrink(WorkloadSpec s) {
  s.senders /= 8;
  s.returning /= 8;
  s.recipients = std::min<size_t>(s.recipients, 2000);
  s.batch /= 8;
  s.rate_tps /= 8.0;
  s.tick_txs /= 8;
  s.formation_transfers /= 8;
  return s;
}

}  // namespace

bool FindWorkload(const std::string& name, bool toy, WorkloadSpec* spec) {
  if (name == "sharded_calls") {
    *spec = ShardedCalls();
  } else if (name == "maxshard_bigstate") {
    *spec = MaxShardBigState();
  } else if (name == "adversarial_open") {
    *spec = AdversarialOpen();
  } else {
    return false;
  }
  if (toy) *spec = Shrink(*spec);
  return true;
}

Traffic::Traffic(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 std::vector<Address> contracts,
                 std::vector<Address> recipients,
                 std::vector<Address> accounts)
    : spec_(spec),
      rng_(seed),
      contracts_(std::move(contracts)),
      recipients_(std::move(recipients)),
      accounts_(std::move(accounts)),
      nonce_(accounts_.size(), 0),
      cursor_(std::max<size_t>(spec.contracts, 1), 0) {
  if (spec_.open_loop) {
    const double epochs =
        std::round(seconds * spec_.rate_tps /
                   static_cast<double>(spec_.epoch_ticks * spec_.tick_txs));
    rounds_ = std::max<size_t>(1, static_cast<size_t>(epochs)) *
              RoundsPerEpoch();
    shardchain::AdversarialWorkloadConfig config;
    config.base.num_transactions = spec_.epoch_ticks * spec_.tick_txs;
    config.base.num_contracts = spec_.contracts;
    config.returning_senders = spec_.returning;
    stream_ = std::make_unique<shardchain::AdversarialWorkloadStream>(
        config, rng_.Next());
    const std::vector<Address>& pool = stream_->ReturningSenders();
    for (size_t i = 0; i < pool.size(); ++i) {
      returning_.emplace(pool[i], static_cast<uint32_t>(i));
    }
  } else {
    rounds_ = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(seconds * spec_.rounds_per_second)));
  }
}

size_t Traffic::RoundsPerEpoch() const {
  return spec_.open_loop ? spec_.epoch_ticks : spec_.epoch_rounds;
}

double Traffic::HandoverTime(size_t round) const {
  return static_cast<double>((round + 1) * spec_.tick_txs) / spec_.rate_tps;
}

uint32_t Traffic::NextOfSubPool(size_t contract) {
  const size_t pools = cursor_.size();
  const size_t size = (spec_.senders - spec_.returning) / pools;
  const size_t slot = cursor_[contract]++ % size;
  return static_cast<uint32_t>(spec_.returning + contract * size + slot);
}

void Traffic::Plan(PlannedTx* p, uint32_t key) {
  p->key = key;
  p->tx.sender = accounts_[key];
  p->tx.nonce = nonce_[key];
  if (!p->forged) ++nonce_[key];
}

std::vector<PlannedTx> Traffic::Formation() {
  std::vector<PlannedTx> out;
  for (size_t c = 0; c < spec_.contracts; ++c) {
    for (size_t j = 0; j < spec_.formation_calls; ++j) {
      PlannedTx p;
      p.tx.kind = TxKind::kContractCall;
      p.tx.recipient = contracts_[c];
      p.tx.value = 1;
      p.tx.fee = 1;
      Plan(&p, NextOfSubPool(c));
      out.push_back(std::move(p));
    }
  }
  // One account sends every MaxShard transfer; fees fall as nonces rise
  // so fee order is nonce order and one block takes them all.
  const auto formation_key = static_cast<uint32_t>(spec_.senders);
  for (size_t j = 0; j < spec_.formation_transfers; ++j) {
    PlannedTx p;
    p.tx.kind = TxKind::kDirectTransfer;
    p.tx.recipient = recipients_[j % recipients_.size()];
    p.tx.value = 1;
    p.tx.fee = spec_.formation_transfers - j;
    Plan(&p, formation_key);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<PlannedTx> Traffic::NextRound() {
  return spec_.open_loop ? OpenRound() : ClosedRound();
}

std::vector<PlannedTx> Traffic::ClosedRound() {
  const size_t pools = cursor_.size();
  const size_t pool_size = (spec_.senders - spec_.returning) / pools;
  // A sender appears at most once per round, so every transaction of a
  // round is executable when its shard's block is built.
  std::vector<size_t> used(pools, 0);
  std::vector<PlannedTx> out(spec_.batch);
  for (PlannedTx& p : out) {
    size_t pool = 0;
    if (spec_.contracts > 0) {
      pool = rng_.UniformInt(spec_.contracts);
      while (used[pool] == pool_size) pool = (pool + 1) % pools;
      p.tx.kind = TxKind::kContractCall;
      p.tx.recipient = contracts_[pool];
    } else {
      p.tx.kind = TxKind::kDirectTransfer;
      p.tx.recipient = recipients_[rng_.UniformInt(recipients_.size())];
    }
    ++used[pool];
    p.tx.value = 1 + rng_.UniformInt(100);
    p.tx.fee = 1 + rng_.UniformInt(1000);
    p.forged = rng_.Bernoulli(spec_.forged_frac);
    Plan(&p, NextOfSubPool(pool));
  }
  return out;
}

std::vector<PlannedTx> Traffic::OpenRound() {
  if (queue_pos_ == epoch_queue_.size()) {
    // A new stream epoch: map its synthetic senders onto key-bound
    // accounts. Returning sender i signs with account i, so its contract
    // switches (and the migrations they force) carry over; a one-off
    // sender signs with the next account of its contract's sub-pool.
    shardchain::Workload w = stream_->NextEpoch();
    epoch_queue_.assign(w.transactions.size(), PlannedTx{});
    queue_pos_ = 0;
    for (size_t i = 0; i < w.transactions.size(); ++i) {
      PlannedTx& p = epoch_queue_[i];
      const auto contract = static_cast<size_t>(w.contract_of[i]);
      p.tx = w.transactions[i];
      p.tx.recipient = contracts_[contract];
      p.forged = rng_.Bernoulli(spec_.forged_frac);
      p.due = static_cast<double>(++next_index_) / spec_.rate_tps;
      auto it = returning_.find(p.tx.sender);
      Plan(&p, it != returning_.end() ? it->second : NextOfSubPool(contract));
    }
  }
  const size_t end = std::min(queue_pos_ + spec_.tick_txs, epoch_queue_.size());
  std::vector<PlannedTx> out(
      std::make_move_iterator(epoch_queue_.begin() + queue_pos_),
      std::make_move_iterator(epoch_queue_.begin() + end));
  queue_pos_ = end;
  return out;
}

}  // namespace perfbench
