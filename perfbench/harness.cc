#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/ledger.h"
#include "contract/registry.h"
#include "core/sharding_system.h"
#include "crypto/keys.h"
#include "parallel/parallel.h"
#include "types/codec.h"

namespace perfbench {

using namespace shardchain;

namespace {

using Clock = std::chrono::steady_clock;

/// Genesis balances: a sender's covers every fee and value it can send
/// in a run; payees only receive.
constexpr Amount kSenderFunds = 1'000'000'000'000;
constexpr Amount kPayeeFunds = 1'000'000;

double Since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// A reproducible non-key-bound address (payees, deployer, merchants).
Address Derived(uint64_t tag, uint64_t index) {
  uint64_t state = (tag << 40) ^ index;
  Address a;
  for (size_t i = 0; i < a.bytes.size(); i += 8) {
    const uint64_t word = SplitMix64(&state);
    for (size_t j = 0; j < 8 && i + j < a.bytes.size(); ++j) {
      a.bytes[i + j] = static_cast<uint8_t>(word >> (8 * j));
    }
  }
  return a;
}

constexpr uint64_t kPayeeTag = 1;
constexpr uint64_t kDeployerTag = 2;
constexpr uint64_t kMerchantTag = 3;

/// Throws GateFailure(`what`) unless `holds`.
void Gate(bool holds, const std::string& what) {
  if (!holds) throw GateFailure(what);
}

bool SameTx(const Transaction& a, const Transaction& b) {
  return a.sender == b.sender && a.recipient == b.recipient &&
         a.kind == b.kind && a.value == b.value && a.fee == b.fee &&
         a.gas_limit == b.gas_limit && a.nonce == b.nonce &&
         a.payload == b.payload && a.input_accounts == b.input_accounts;
}

/// A transaction as it arrives from a user: wire bytes, the key it
/// claims, and its 8 KiB signature.
struct Signed {
  Bytes wire;
  uint32_t key = 0;
  bool forged = false;
  uint32_t record = 0;  ///< Index into Bench::records_ (valid only).
  Signature sig;
};

/// A valid transaction's journey; times are seconds after the run start.
struct Record {
  Transaction tx;
  double due = 0.0;
  double submitted = -1.0;
  double confirmed = -1.0;
  bool timed = false;     ///< Handed over in the timed region.
  bool rejected = false;  ///< Refused by SubmitTransactionBatch.
};

/// A state change a shard's ledger took outside its blocks, replayed at
/// the same height on the replica.
struct LedgerEvent {
  ShardId shard = 0;
  uint64_t height = 0;
  Address addr;
  std::optional<Account> import;  ///< nullopt: an eviction.
};

/// Per-layer busy time (seconds) and work in the timed region. Span
/// times are taken only when tracing; the rounds' wall time and the
/// generator's lateness always.
struct Layers {
  double decode = 0, verify = 0, submit = 0, mine = 0, epoch = 0;
  double round_wall = 0;
  uint64_t delivered = 0, submitted = 0;
  uint64_t verify_rejected = 0, submit_rejected = 0;
  uint64_t offered = 0, included = 0, pending_max = 0;
  double epoch_max = 0;
  std::vector<double> mine_ms, gen_late_ms;
};

class Bench {
 public:
  explicit Bench(const Options& options)
      : o_(options), spec_(options.spec), t0_(Clock::now()) {}

  double SetUp();
  void Run();
  void Finish(RunResult* result);
  void Replay(RunResult* result);

 private:
  std::vector<Signed> Sign(std::vector<PlannedTx> planned);
  void Deliver(std::vector<Signed> batch);
  void MineRound();
  size_t MineShard(ShardId shard);
  void Confirm(const Transaction& tx, double at);
  void Drain();
  void BeginEpoch();
  void AssignMiners();
  void RecordImports();
  void CheckConservation() const;
  ShardId BusiestShard() const;
  double Now() const { return Since(t0_, Clock::now()); }

  const Options& o_;
  const WorkloadSpec& spec_;
  std::unique_ptr<ShardingSystem> sys_;
  std::vector<std::optional<KeyPair>> keys_;
  std::vector<Address> address_;  ///< FromHash(fingerprint) per key.
  std::unordered_map<Address, uint32_t> key_of_;
  std::vector<Address> contracts_;
  std::vector<Address> payees_;
  std::optional<StateDB> genesis_;  ///< Mirror for the replay (traced).
  std::unique_ptr<Traffic> traffic_;

  std::vector<std::optional<NodeId>> miner_of_;  ///< By shard id.
  std::vector<uint64_t> pending_;
  std::vector<Record> records_;
  std::vector<std::vector<uint32_t>> record_of_nonce_;  ///< [key][nonce].
  std::vector<LedgerEvent> events_;
  size_t log_seen_ = 0;
  size_t flushed_log_ = 0;  ///< Handoffs whose source eviction has run.
  uint64_t epoch_nonce_ = 0;

  Clock::time_point t0_;
  bool timed_ = false;
  size_t epochs_ = 0;
  double wall_ = 0;
  uint64_t net_before_ = 0;
  Counts counts_;
  Layers l_;
};

uint64_t TotalMessages(const Network& net) {
  uint64_t sum = 0;
  for (size_t k = 0; k < kMsgKindCount; ++k) {
    sum += net.Count(static_cast<MsgKind>(k));
  }
  return sum;
}

double Bench::SetUp() {
  const Clock::time_point start = Clock::now();
  ShardingSystemConfig config;
  config.chain.max_txs_per_block = spec_.block_limit;
  config.parallel.threads = o_.threads;
  sys_ = std::make_unique<ShardingSystem>(config, o_.seed);
  for (size_t m = 0; m < spec_.miners; ++m) sys_->AddMiner();

  // Key-bound accounts: the senders plus the formation account.
  const size_t n = spec_.senders + 1;
  keys_ = std::vector<std::optional<KeyPair>>(n);
  address_.assign(n, Address{});
  ParallelFor(sys_->pool(), n, 16, [&](size_t i) {
    keys_[i].emplace(KeyPair::FromSeed(ChunkSeed(o_.seed, i)));
    address_[i] = Address::FromHash(keys_[i]->public_key().Fingerprint());
  });
  for (size_t i = 0; i < n; ++i) {
    key_of_.emplace(address_[i], static_cast<uint32_t>(i));
  }

  // Genesis: fund everyone before the first transaction routes, since a
  // shard's ledger snapshots genesis when the shard forms.
  if (o_.trace) genesis_.emplace();
  auto mint = [&](const Address& a, Amount amount) {
    sys_->Mint(a, amount);
    if (genesis_) genesis_->Mint(a, amount);
  };
  for (const Address& a : address_) mint(a, kSenderFunds);
  for (size_t r = 0; r < spec_.recipients; ++r) {
    payees_.push_back(Derived(kPayeeTag, r));
    mint(payees_.back(), kPayeeFunds);
  }
  const Address deployer = Derived(kDeployerTag, 0);
  for (size_t c = 0; c < spec_.contracts; ++c) {
    const ContractProgram program =
        contracts::UnconditionalTransfer(Derived(kMerchantTag, c));
    Result<Address> deployed = sys_->DeployContract(deployer, program);
    Gate(deployed.ok(), "deploy failed: " + deployed.status().ToString());
    if (genesis_) (void)ContractRegistry::Deploy(&*genesis_, deployer, program);
    contracts_.push_back(*deployed);
  }

  traffic_ = std::make_unique<Traffic>(spec_, ChunkSeed(~o_.seed, 0),
                                       o_.seconds, contracts_, payees_,
                                       address_);
  record_of_nonce_.assign(n, {});

  // Formation round: route the first transactions (the shards form),
  // start the first epoch on their fractions, and confirm them.
  Deliver(Sign(traffic_->Formation()));
  BeginEpoch();
  pending_ = sys_->PendingPerShard();
  for (ShardId s = 0; s < pending_.size(); ++s) {
    Gate(pending_[s] == 0 || (s < miner_of_.size() && miner_of_[s]),
         "shard " + std::to_string(s) + " has no miner after the first epoch");
  }
  Drain();
  for (const Record& r : records_) {
    Gate(r.confirmed >= 0, "a formation transaction is unconfirmed");
  }
  return Since(start, Clock::now());
}

std::vector<Signed> Bench::Sign(std::vector<PlannedTx> planned) {
  std::vector<Signed> out(planned.size());
  for (size_t i = 0; i < planned.size(); ++i) {
    PlannedTx& p = planned[i];
    Signed& s = out[i];
    s.wire = codec::EncodeTransaction(p.tx);
    s.key = p.key;
    s.forged = p.forged;
    s.sig = keys_[p.key]->Sign(p.tx.SigningDigest());
    if (p.forged) {
      s.sig.preimages[0].bytes[0] ^= 0x01;
      continue;
    }
    std::vector<uint32_t>& by_nonce = record_of_nonce_[p.key];
    Gate(by_nonce.size() == p.tx.nonce, "the generator skipped a nonce");
    s.record = static_cast<uint32_t>(records_.size());
    by_nonce.push_back(s.record);
    records_.push_back(
        Record{std::move(p.tx), p.due, -1.0, -1.0, timed_, false});
  }
  return out;
}

void Bench::Deliver(std::vector<Signed> batch) {
  const Clock::time_point a = Clock::now();
  std::vector<Transaction> txs;
  txs.reserve(batch.size());
  for (const Signed& s : batch) {
    Result<Transaction> decoded = codec::DecodeTransaction(s.wire);
    Gate(decoded.ok(), "a handed-over transaction does not decode");
    txs.push_back(std::move(decoded).value());
  }

  const Clock::time_point b = Clock::now();
  std::vector<Hash256> digests(txs.size());
  std::vector<const Hash256*> digest_ptrs(txs.size());
  std::vector<const PublicKey*> pks(txs.size());
  std::vector<const Signature*> sigs(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    digests[i] = txs[i].SigningDigest();
    digest_ptrs[i] = &digests[i];
    pks[i] = &keys_[batch[i].key]->public_key();
    sigs[i] = &batch[i].sig;
  }
  const std::vector<uint8_t> ok =
      VerifyBatch(pks, digest_ptrs, sigs, sys_->pool());

  const Clock::time_point c = Clock::now();
  std::vector<Transaction> accepted;
  std::vector<uint32_t> accepted_records;
  accepted.reserve(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    if (batch[i].forged) {
      Gate(ok[i] == 0, "a forged signature passed VerifyBatch");
      if (timed_) ++l_.verify_rejected;
      continue;
    }
    Gate(ok[i] != 0, "VerifyBatch rejected a genuine signature");
    // Neither the pool nor SubmitTransaction binds the sender to the key.
    Gate(txs[i].sender == address_[batch[i].key],
         "an accepted transaction's sender is not its key's address");
    accepted.push_back(std::move(txs[i]));
    accepted_records.push_back(batch[i].record);
  }

  const Clock::time_point d = Clock::now();
  const std::vector<Status> statuses = sys_->SubmitTransactionBatch(accepted);
  const Clock::time_point e = Clock::now();
  const double submitted = Since(t0_, e);
  for (size_t i = 0; i < statuses.size(); ++i) {
    Record& r = records_[accepted_records[i]];
    if (statuses[i].ok()) {
      r.submitted = submitted;
    } else {
      r.rejected = true;
      if (timed_) ++l_.submit_rejected;
    }
  }
  RecordImports();
  if (o_.trace && timed_) {
    l_.decode += Since(a, b);
    l_.verify += Since(b, c);
    l_.submit += Since(d, e);
    l_.delivered += txs.size();
    l_.submitted += accepted.size();
  }
}

void Bench::RecordImports() {
  const std::vector<HandoffRecord>& log = sys_->MigrationLog();
  for (; log_seen_ < log.size(); ++log_seen_) {
    const HandoffRecord& h = log[log_seen_];
    events_.push_back(LedgerEvent{
        h.dest, sys_->ShardLedger(h.dest)->tip_number(), h.addr, h.account});
    if (timed_) ++counts_.migrations;
  }
}

void Bench::MineRound() {
  pending_ = sys_->PendingPerShard();
  if (o_.trace && timed_) {
    for (uint64_t p : pending_) l_.pending_max = std::max(l_.pending_max, p);
  }
  for (ShardId s = 0; s < pending_.size(); ++s) {
    if (pending_[s] > 0) MineShard(s);
  }
}

size_t Bench::MineShard(ShardId shard) {
  // A shard without a miner this epoch keeps its transactions pending;
  // any still unconfirmed at the end count as failed.
  if (shard >= miner_of_.size() || !miner_of_[shard]) return 0;
  const Clock::time_point a = Clock::now();
  Result<Hash256> mined = sys_->MineBlock(*miner_of_[shard]);
  const Clock::time_point b = Clock::now();
  Gate(mined.ok(), "MineBlock on shard " + std::to_string(shard) +
                      " failed: " + mined.status().ToString());
  const Block* block = sys_->ShardLedger(shard)->Find(*mined);
  const double at = Since(t0_, b);
  for (const Transaction& tx : block->transactions) Confirm(tx, at);
  if (timed_) {
    ++counts_.blocks;
    if (block->IsEmpty()) ++counts_.empty_blocks;
    if (o_.trace) {
      l_.mine += Since(a, b);
      l_.mine_ms.push_back(1e3 * Since(a, b));
      l_.offered += std::min<uint64_t>(pending_[shard], spec_.block_limit);
      l_.included += block->transactions.size();
    }
  }
  return block->transactions.size();
}

void Bench::Confirm(const Transaction& tx, double at) {
  auto key = key_of_.find(tx.sender);
  Gate(key != key_of_.end() &&
           tx.nonce < record_of_nonce_[key->second].size(),
       "a block confirms a transaction that was never sent");
  Record& r = records_[record_of_nonce_[key->second][tx.nonce]];
  Gate(r.confirmed < 0, "a transaction was confirmed twice");
  Gate(!r.rejected, "a block confirms a rejected transaction");
  Gate(SameTx(r.tx, tx), "a confirmed transaction differs from the one sent");
  r.confirmed = at;
  if (r.timed) ++counts_.confirmed;
}

void Bench::Drain() {
  for (;;) {
    pending_ = sys_->PendingPerShard();
    size_t confirmed = 0;
    for (ShardId s = 0; s < pending_.size(); ++s) {
      if (pending_[s] > 0) confirmed += MineShard(s);
    }
    if (confirmed == 0) return;  // Empty pools, or no shard can progress.
  }
}

void Bench::BeginEpoch() {
  // BeginEpoch first evicts this epoch's migrated accounts from their
  // source shards, at those shards' current tips.
  const std::vector<HandoffRecord>& log = sys_->MigrationLog();
  for (size_t i = flushed_log_; i < log.size(); ++i) {
    events_.push_back(LedgerEvent{
        log[i].source, sys_->ShardLedger(log[i].source)->tip_number(),
        log[i].addr, std::nullopt});
  }
  flushed_log_ = log.size();
  const Clock::time_point a = Clock::now();
  const Status st = sys_->BeginEpoch(++epoch_nonce_);
  const Clock::time_point b = Clock::now();
  Gate(st.ok(), "BeginEpoch failed: " + st.ToString());
  AssignMiners();
  if (timed_) {
    ++epochs_;
    if (o_.trace) {
      l_.epoch += Since(a, b);
      l_.epoch_max = std::max(l_.epoch_max, Since(a, b));
    }
  }
}

void Bench::AssignMiners() {
  miner_of_.assign(sys_->ShardCount(), std::nullopt);
  for (NodeId m = 0; m < sys_->MinerCount(); ++m) {
    const ShardId s = sys_->ShardOfMiner(m);
    if (s < miner_of_.size() && !miner_of_[s]) miner_of_[s] = m;
  }
}

void Bench::Run() {
  timed_ = true;
  net_before_ = TotalMessages(sys_->network());
  t0_ = Clock::now();
  const size_t per_epoch = traffic_->RoundsPerEpoch();
  for (size_t k = 0; k < traffic_->Rounds(); ++k) {
    const Clock::time_point gen = Clock::now();
    std::vector<Signed> batch = Sign(traffic_->NextRound());
    if (spec_.open_loop) {
      // Hand over at the scheduled time; lateness is the generator's.
      const auto due = t0_ + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     traffic_->HandoverTime(k)));
      std::this_thread::sleep_until(due);
      l_.gen_late_ms.push_back(1e3 * Since(due, Clock::now()));
    } else {
      // Closed loop: due when handed over; the system idled while the
      // generator signed.
      const double now = Now();
      for (const Signed& s : batch) {
        if (!s.forged) records_[s.record].due = now;
      }
      l_.gen_late_ms.push_back(1e3 * Since(gen, Clock::now()));
    }
    if (k == 0 && o_.inject == Inject::kSignature) {
      for (Signed& s : batch) {
        if (!s.forged) {
          s.sig.preimages[7].bytes[3] ^= 0x10;
          break;
        }
      }
    }
    const Clock::time_point work = Clock::now();
    if (k > 0 && k % per_epoch == 0) {
      // Open loop: a switched sender's account migrates without its
      // pending transactions, so pools drain before the boundary.
      if (spec_.open_loop) Drain();
      BeginEpoch();
    }
    Deliver(std::move(batch));
    MineRound();
    l_.round_wall += Since(work, Clock::now());
  }
  const Clock::time_point work = Clock::now();
  Drain();
  const Clock::time_point end = Clock::now();
  l_.round_wall += Since(work, end);
  // Open loop: the schedule's span. Closed loop: only the rounds, as
  // the system idles while the generator signs the next batch.
  wall_ = spec_.open_loop ? Since(t0_, end) : l_.round_wall;
}

void Bench::CheckConservation() const {
  using Wide = __int128;
  const Wide genesis =
      static_cast<Wide>(spec_.senders + 1) * kSenderFunds +
      static_cast<Wide>(spec_.recipients) * kPayeeFunds;
  // A migrated account overwrites the destination's genesis copy and,
  // once the boundary evicts it, leaves the source.
  std::map<ShardId, Wide> moved;
  const std::vector<HandoffRecord>& log = sys_->MigrationLog();
  for (size_t i = 0; i < log.size(); ++i) {
    const Amount prior = key_of_.count(log[i].addr) > 0 ? kSenderFunds : 0;
    moved[log[i].dest] += static_cast<Wide>(log[i].account.balance) - prior;
    if (i < flushed_log_) moved[log[i].source] -= log[i].account.balance;
  }
  for (ShardId s = 0; s < sys_->ShardCount(); ++s) {
    const Ledger* ledger = sys_->ShardLedger(s);
    if (ledger == nullptr) continue;
    Wide sum = 0;
    const StateDB& state = ledger->tip_state();
    for (const Address& a : state.Addresses()) sum += state.BalanceOf(a);
    const Wide rewards = static_cast<Wide>(ledger->tip_number()) *
                         ledger->config().block_reward;
    const Wide expected = genesis + rewards + moved[s];
    Gate(sum == expected,
         "balance conservation broken on shard " + std::to_string(s));
  }
}

ShardId Bench::BusiestShard() const {
  ShardId best = 0;
  size_t best_txs = 0;
  for (ShardId s = 0; s < sys_->ShardCount(); ++s) {
    const Ledger* ledger = sys_->ShardLedger(s);
    if (ledger != nullptr && ledger->CanonicalTxCount() > best_txs) {
      best = s;
      best_txs = ledger->CanonicalTxCount();
    }
  }
  return best;
}

void Bench::Finish(RunResult* result) {
  std::vector<double> wait_ms;
  for (const Record& r : records_) {
    if (!r.timed) continue;
    ++result->attempted;
    if (r.rejected || r.confirmed < 0) {
      ++result->failed;
      continue;
    }
    result->latency_ms.push_back(1e3 * (r.confirmed - r.due));
    wait_ms.push_back(1e3 * (r.confirmed - r.submitted));
  }
  CheckConservation();

  result->wall_s = wall_;
  result->forged = l_.verify_rejected;
  result->rounds = traffic_->Rounds();
  result->epochs = epochs_;

  counts_.messages = TotalMessages(sys_->network()) - net_before_;
  counts_.state_accounts =
      sys_->ShardLedger(BusiestShard())->tip_state().AccountCount();
  for (ShardId s = 0; s < sys_->ShardCount(); ++s) {
    const Ledger* ledger = sys_->ShardLedger(s);
    if (ledger == nullptr) continue;
    Sha256 h;
    for (const Hash256& hash : ledger->CanonicalChain()) {
      if (hash == ledger->genesis_hash()) continue;
      h.Update(codec::EncodeBlock(*ledger->Find(hash)));
    }
    counts_.block_digests[s] = h.Finalize().ToHex();
  }
  result->counts = counts_;

  if (!o_.trace) return;
  auto per = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const double spans = l_.decode + l_.verify + l_.submit + l_.mine + l_.epoch;
  std::map<std::string, double>& m = result->layers;
  m["types.decode_us_per_tx"] = 1e6 * per(l_.decode, l_.delivered);
  m["crypto.verify_us_per_tx"] = 1e6 * per(l_.verify, l_.delivered);
  m["crypto.verify_rejected"] = static_cast<double>(l_.verify_rejected);
  m["core.submit_us_per_tx"] = 1e6 * per(l_.submit, l_.submitted);
  m["core.submit_rejected"] = static_cast<double>(l_.submit_rejected);
  m["core.migrations"] = static_cast<double>(counts_.migrations);
  m["core.epoch_ms_max"] = 1e3 * l_.epoch_max;
  m["chain.mine_ms_p50"] = Percentile(l_.mine_ms, 0.50);
  m["chain.mine_ms_p99"] = Percentile(l_.mine_ms, 0.99);
  m["chain.blocks"] = static_cast<double>(counts_.blocks);
  m["chain.empty_blocks"] = static_cast<double>(counts_.empty_blocks);
  m["chain.inclusion_ratio"] =
      per(static_cast<double>(l_.included), l_.offered);
  m["txpool.pending_max"] = static_cast<double>(l_.pending_max);
  m["txpool.wait_ms_p99"] = Percentile(wait_ms, 0.99);
  m["net.msgs_per_tx"] =
      per(static_cast<double>(counts_.messages), counts_.confirmed);
  m["state.accounts"] = static_cast<double>(counts_.state_accounts);
  m["harness.gen_late_ms_p99"] = Percentile(l_.gen_late_ms, 0.99);
  m["harness.layer_coverage"] = spans / l_.round_wall;
  result->round_shares = {{"decode", l_.decode / l_.round_wall},
                          {"verify", l_.verify / l_.round_wall},
                          {"submit", l_.submit / l_.round_wall},
                          {"mine", l_.mine / l_.round_wall},
                          {"epoch", l_.epoch / l_.round_wall}};
}

void Bench::Replay(RunResult* result) {
  // Follow the busiest shard's canonical chain on a replica ledger,
  // timing each step of block production from outside: copy the parent
  // state, execute, derive the root, round-trip the block codec, and
  // append it as a follower would.
  const ShardId shard = BusiestShard();
  const Ledger& ledger = *sys_->ShardLedger(shard);
  Ledger replica(shard, *genesis_, ledger.config());
  Gate(replica.genesis_hash() == ledger.genesis_hash(),
       "replica genesis differs from the shard's");
  auto apply_events = [&](uint64_t height) {
    for (const LedgerEvent& e : events_) {
      if (e.shard != shard || e.height != height) continue;
      // As in the system: imports always apply, and evicting an
      // account the tip does not hold is a no-op.
      if (e.import) {
        (void)replica.ImportAccount(e.addr, *e.import);
      } else {
        (void)replica.EvictAccount(e.addr);
      }
    }
  };
  double copy = 0, execute = 0, root = 0, codec_s = 0, append = 0;
  bool tampered = false;
  const std::vector<Hash256> chain = ledger.CanonicalChain();
  for (size_t h = 1; h < chain.size(); ++h) {
    apply_events(h - 1);
    Block block = *ledger.Find(chain[h]);
    if (o_.inject == Inject::kBlock && !tampered && !block.IsEmpty()) {
      block.transactions[0].value += 1;
      tampered = true;
    }
    const Clock::time_point a = Clock::now();
    StateDB state = replica.tip_state();
    const Clock::time_point b = Clock::now();
    const Status executed = Ledger::ExecuteTransactions(
        block.transactions, block.header.miner, ledger.config(), &state);
    const Clock::time_point c = Clock::now();
    const Hash256 state_root = state.StateRoot();
    const Clock::time_point d = Clock::now();
    Result<Block> decoded = codec::DecodeBlock(codec::EncodeBlock(block));
    const Clock::time_point e = Clock::now();
    Gate(executed.ok() && state_root == block.header.state_root,
         "replayed state root differs at height " + std::to_string(h));
    Gate(decoded.ok(), "block codec round trip failed");
    Result<Hash256> appended = replica.Append(*decoded);
    const Clock::time_point f = Clock::now();
    Gate(appended.ok() && *appended == chain[h],
         "replica Append disagrees at height " + std::to_string(h));
    copy += Since(a, b);
    execute += Since(b, c);
    root += Since(c, d);
    codec_s += Since(d, e);
    append += Since(e, f);
  }
  apply_events(chain.size() - 1);
  Gate(replica.tip_state().StateRoot() == ledger.tip_state().StateRoot(),
       "replica tip state differs after the replay");
  const double blocks = static_cast<double>(chain.size() - 1);
  std::map<std::string, double>& m = result->layers;
  m["state.copy_ms_per_block"] = 1e3 * copy / blocks;
  m["state.root_ms_per_block"] = 1e3 * root / blocks;
  m["chain.execute_ms_per_block"] = 1e3 * execute / blocks;
  m["chain.append_ms_per_block"] = 1e3 * append / blocks;
  m["types.block_codec_ms_per_block"] = 1e3 * codec_s / blocks;
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

RunResult RunOnce(const Options& options) {
  RunResult result;
  Bench bench(options);
  result.setup_s = bench.SetUp();
  bench.Run();
  bench.Finish(&result);
  if (options.trace) bench.Replay(&result);
  return result;
}

}  // namespace perfbench
