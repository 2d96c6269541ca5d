// State-commitment scaling (DESIGN.md §10): cost of the persistent
// authenticated state — the trie whose leaves hold the accounts — vs a
// state that copies every account, by account count, for the three hot
// operations the chain performs per block:
//
//   root_update      — mutate a fixed number of accounts, re-derive the
//                      state root. old: rebuild the whole trie with
//                      fresh digests (O(n)); new: re-hash only the
//                      written spines (O(dirty · depth)).
//   snapshot_revert  — take a revert point, write, roll back. old: copy
//                      every account out and back (what a map-backed
//                      state pays); new: keep a StateDB copy (a root
//                      handle) and assign it back (O(1); the writes
//                      copy O(depth) nodes each).
//   block_build      — pack a 10-tx block on a funded state. old:
//                      per-candidate copy of every account + from-scratch
//                      root; new: Ledger::BuildBlock (O(1) state copies
//                      as revert points, incremental root).
//
// Above kOldStyleMaxAccounts the old column is not run (minutes per
// op) and is emitted as null. One more row, ledger_257, appends 257
// blocks to a ledger over the largest state and reports the growth of
// the process's peak resident memory (VmHWM): every ledger node keeps a
// post-state, and structural sharing is what keeps that growth to the
// blocks' writes instead of 257 copies of the state.
//
// A last table sets the root hashed on a thread pool (the stale
// subtries under the first stale branch in parallel, DESIGN.md §9)
// beside the serial walk: root_update at 100k and 1M accounts, and
// genesis_root — the first root of a fresh 1M-account state, every
// node stale.
//
// The bench is also a correctness gate: before any timing, every
// scenario asserts the incremental root is byte-identical to the
// from-scratch rebuild (the consensus invariant the representation
// must preserve), and the pooled root to the serial one, and aborts on
// divergence. genesis_root's timed hash is its only hash, so it is
// gated after timing, before anything is reported. The timings and
// the memory growth are reported, not gated.
//
// Emits BENCH_state.json into the working directory for CI artifact
// collection.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/emit_json.h"
#include "chain/ledger.h"
#include "parallel/thread_pool.h"
#include "state/statedb.h"
#include "state/trie.h"
#include "types/address.h"

namespace shardchain {
namespace {

using Clock = std::chrono::steady_clock;  // detlint:allow(wall-clock): bench timing

const size_t kAccountCounts[] = {100, 1000, 10000, 100000, 1000000};
const size_t kPooledAccountCounts[] = {100000, 1000000};
constexpr size_t kOldStyleMaxAccounts = 100000;
constexpr size_t kTouchedPerRoot = 64;  ///< Dirty accounts per root update.
constexpr size_t kTouchedPerSnap = 16;  ///< Writes inside a snapshot span.
constexpr size_t kTxsPerBlock = 10;
constexpr int kLedgerBlocks = 257;
constexpr double kMinSeconds = 0.2;

Address BenchAddr(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[2] = static_cast<uint8_t>(n >> 16);
  a.bytes[19] = static_cast<uint8_t>(n * 131);
  return a;
}

Bytes AddressKey(const Address& addr) {
  return Bytes(addr.bytes.begin(), addr.bytes.end());
}

/// The from-scratch StateRoot(): walk every account, recompute its
/// digest, and build a fresh byte-valued trie of the digests.
/// Byte-identical to StateDB::StateRoot() over the same contents — the
/// identity gates below enforce exactly that.
Hash256 RootFromScratch(const StateDB& db) {
  MerklePatriciaTrie trie;
  for (const Address& addr : db.Addresses()) {
    const Hash256 digest = db.Find(addr)->Digest(addr);
    trie.Put(AddressKey(addr), Bytes(digest.bytes.begin(), digest.bytes.end()));
  }
  return trie.RootHash();
}

/// A copy sharing nothing with `db`: every account copied into a fresh
/// state — the per-copy cost of a state that is not persistent.
StateDB DeepCopy(const StateDB& db) {
  StateDB copy;
  for (const Address& addr : db.Addresses()) {
    copy.ApplyAccount(addr, *db.Find(addr));
  }
  return copy;
}

StateDB FundedState(size_t accounts) {
  StateDB db;
  for (uint64_t i = 0; i < accounts; ++i) {
    db.Mint(BenchAddr(i), 1'000'000 + i);
  }
  return db;
}

/// Times `op` for >= kMinSeconds and returns invocations per second.
/// `op` must fold its result into the returned checksum so the work
/// cannot be elided.
double MeasureOpsPerSec(const std::function<uint64_t()>& op) {
  uint64_t sink = op();  // Warm-up.
  size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    sink ^= op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kMinSeconds);
  if (sink == 0xdeadbeefdeadbeefull) std::printf("(unlikely checksum)\n");
  return static_cast<double>(iters) / elapsed;
}

struct ScenarioResult {
  std::string scenario;
  size_t accounts = 0;
  std::optional<double> old_ops_per_sec;  ///< nullopt: not run.
  double new_ops_per_sec = 0.0;
};

void Report(std::vector<ScenarioResult>* out, const std::string& scenario,
            size_t accounts, std::optional<double> old_ops, double new_ops) {
  out->push_back(ScenarioResult{scenario, accounts, old_ops, new_ops});
  bench::Row({scenario, std::to_string(accounts),
              old_ops ? bench::Fmt(*old_ops, 2) : "-",
              bench::Fmt(new_ops, 2),
              old_ops && *old_ops > 0.0
                  ? bench::Fmt(new_ops / *old_ops, 1) + "x"
                  : "-"});
}

[[noreturn]] void IdentityFailure(const char* scenario, size_t accounts) {
  std::fprintf(stderr,
               "FATAL: incremental root != from-scratch root (%s, %zu "
               "accounts) — consensus-visible divergence\n",
               scenario, accounts);
  std::exit(1);
}

bool OldStyleRuns(size_t accounts) { return accounts <= kOldStyleMaxAccounts; }

// ------------------------- root_update --------------------------------

void BenchRootUpdate(size_t accounts, std::vector<ScenarioResult>* out) {
  StateDB db = FundedState(accounts);
  (void)db.StateRoot();
  uint64_t cursor = 0;
  auto mutate_batch = [&] {
    for (size_t j = 0; j < kTouchedPerRoot; ++j) {
      db.Mint(BenchAddr((cursor + j * 7) % accounts), 1);
    }
    cursor += 1;
  };

  // Identity gate: after mutation batches, the incremental root must
  // equal the from-scratch rebuild, byte for byte.
  const int rounds = OldStyleRuns(accounts) ? 3 : 1;
  for (int round = 0; round < rounds; ++round) {
    mutate_batch();
    if (db.StateRoot() != RootFromScratch(db)) {
      IdentityFailure("root_update", accounts);
    }
  }

  const double new_ops = MeasureOpsPerSec([&] {
    mutate_batch();
    return db.StateRoot().Prefix64();
  });
  std::optional<double> old_ops;
  if (OldStyleRuns(accounts)) {
    old_ops = MeasureOpsPerSec([&] {
      mutate_batch();
      return RootFromScratch(db).Prefix64();
    });
  }
  Report(out, "root_update", accounts, old_ops, new_ops);
}

// --------------------- pooled vs serial root --------------------------

struct PooledResult {
  std::string scenario;
  size_t accounts = 0;
  std::string unit;  ///< "ops/sec" or "seconds".
  double serial = 0.0;
  double pooled = 0.0;
};

void ReportPooled(std::vector<PooledResult>* out, PooledResult r) {
  const bool rate = r.unit == "ops/sec";
  const double speedup = rate ? r.pooled / r.serial : r.serial / r.pooled;
  bench::Row({r.scenario, std::to_string(r.accounts), r.unit,
              bench::Fmt(r.serial, rate ? 2 : 3),
              bench::Fmt(r.pooled, rate ? 2 : 3),
              bench::Fmt(speedup, 2) + "x"});
  out->push_back(std::move(r));
}

/// root_update on two identical states, one hashed serially and one on
/// `pool`.
void BenchPooledRootUpdate(size_t accounts, ThreadPool* pool,
                           std::vector<PooledResult>* out) {
  StateDB serial_db = FundedState(accounts);
  StateDB pooled_db = FundedState(accounts);
  (void)serial_db.StateRoot();
  (void)pooled_db.StateRoot(pool);
  auto mutate_batch = [&](StateDB* db, uint64_t at) {
    for (size_t j = 0; j < kTouchedPerRoot; ++j) {
      db->Mint(BenchAddr((at + j * 7) % accounts), 1);
    }
  };

  // Identity gate: pooled root == serial root == from-scratch rebuild.
  mutate_batch(&serial_db, 0);
  mutate_batch(&pooled_db, 0);
  const Hash256 pooled_root = pooled_db.StateRoot(pool);
  if (pooled_root != serial_db.StateRoot() ||
      pooled_root != RootFromScratch(serial_db)) {
    IdentityFailure("root_update(pool)", accounts);
  }

  uint64_t serial_at = 1, pooled_at = 1;
  const double serial_ops = MeasureOpsPerSec([&] {
    mutate_batch(&serial_db, serial_at++);
    return serial_db.StateRoot().Prefix64();
  });
  const double pooled_ops = MeasureOpsPerSec([&] {
    mutate_batch(&pooled_db, pooled_at++);
    return pooled_db.StateRoot(pool).Prefix64();
  });
  ReportPooled(out, {"root_update", accounts, "ops/sec", serial_ops,
                     pooled_ops});
}

/// The first root of a fresh state — every node stale — serially and on
/// `pool`, each timed once on its own state.
void BenchGenesisRoot(size_t accounts, ThreadPool* pool,
                      std::vector<PooledResult>* out) {
  auto time_root = [&](ThreadPool* p, Hash256* root) {
    const StateDB db = FundedState(accounts);
    const auto start = Clock::now();
    *root = db.StateRoot(p);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Hash256 serial_root, pooled_root;
  const double serial_s = time_root(nullptr, &serial_root);
  const double pooled_s = time_root(pool, &pooled_root);
  if (pooled_root != serial_root ||
      serial_root != RootFromScratch(FundedState(accounts))) {
    IdentityFailure("genesis_root", accounts);
  }
  ReportPooled(out, {"genesis_root", accounts, "seconds", serial_s, pooled_s});
}

// ------------------------ snapshot_revert -----------------------------

void BenchSnapshotRevert(size_t accounts, std::vector<ScenarioResult>* out) {
  StateDB db = FundedState(accounts);
  const Hash256 base_root = db.StateRoot();
  auto touch = [&](StateDB* target) {
    for (size_t j = 0; j < kTouchedPerSnap; ++j) {
      target->Mint(BenchAddr(j * 11 % accounts), 3);
    }
  };

  // Identity gate: both revert styles must land back on the base root.
  {
    StateDB saved = db;
    touch(&db);
    db = std::move(saved);
    if (db.StateRoot() != base_root) {
      IdentityFailure("snapshot_revert(root handle)", accounts);
    }
    if (OldStyleRuns(accounts)) {
      const StateDB backup = DeepCopy(db);
      touch(&db);
      db = DeepCopy(backup);
      if (db.StateRoot() != base_root) {
        IdentityFailure("snapshot_revert(copy)", accounts);
      }
    }
  }

  const double new_ops = MeasureOpsPerSec([&] {
    StateDB saved = db;
    touch(&db);
    db = std::move(saved);
    return static_cast<uint64_t>(db.AccountCount());
  });
  std::optional<double> old_ops;
  if (OldStyleRuns(accounts)) {
    old_ops = MeasureOpsPerSec([&] {
      const StateDB backup = DeepCopy(db);  // Copy every account out...
      touch(&db);
      db = DeepCopy(backup);                // ...and back.
      return static_cast<uint64_t>(backup.AccountCount());
    });
  }
  Report(out, "snapshot_revert", accounts, old_ops, new_ops);
}

// -------------------------- block_build -------------------------------

/// Transfers from senders [first, first + kTxsPerBlock), nonce 0, to
/// the far half of the state.
std::vector<Transaction> BlockTxs(size_t accounts, uint64_t first) {
  std::vector<Transaction> txs;
  for (uint64_t i = first; i < first + kTxsPerBlock; ++i) {
    Transaction tx;
    tx.kind = TxKind::kDirectTransfer;
    tx.sender = BenchAddr(i % accounts);
    tx.recipient = BenchAddr((i + accounts / 2) % accounts);
    tx.value = 10 + i;
    tx.fee = 2;
    tx.nonce = 0;
    txs.push_back(tx);
  }
  return txs;
}

/// The copy-everything BuildBlock: every candidate transaction executes
/// on its own copy of every account, and the final root is a
/// from-scratch rebuild.
Hash256 OldStyleBuild(const Ledger& ledger, const Address& miner,
                      const std::vector<Transaction>& txs) {
  StateDB scratch = DeepCopy(ledger.tip_state());
  ChainConfig no_reward = ledger.config();
  no_reward.block_reward = 0;
  size_t included = 0;
  for (const Transaction& tx : txs) {
    if (included >= ledger.config().max_txs_per_block) break;
    StateDB trial = DeepCopy(scratch);
    if (Ledger::ExecuteTransactions({tx}, miner, no_reward, &trial).ok()) {
      scratch = std::move(trial);
      ++included;
    }
  }
  scratch.Mint(miner, ledger.config().block_reward);
  return RootFromScratch(scratch);
}

/// The block's post-state root, derived from scratch: the txs executed
/// in order on the tip state, then a from-scratch rebuild.
Hash256 ExecutedRootFromScratch(const Ledger& ledger, const Address& miner,
                                const std::vector<Transaction>& txs) {
  StateDB post = ledger.tip_state();
  if (!Ledger::ExecuteTransactions(txs, miner, ledger.config(), &post).ok()) {
    return Hash256::Zero();
  }
  return RootFromScratch(post);
}

void BenchBlockBuild(size_t accounts, std::vector<ScenarioResult>* out) {
  Ledger ledger(1, FundedState(accounts));
  const Address miner = BenchAddr(accounts - 1);
  const std::vector<Transaction> txs = BlockTxs(accounts, 0);

  // Identity gate: the built block must commit to the from-scratch root
  // of its executed post-state (and, where it runs, the copy-everything
  // build must agree).
  Result<Block> built = ledger.BuildBlock(miner, txs, /*timestamp=*/1);
  if (!built.ok() || built->transactions.size() != txs.size() ||
      built->header.state_root !=
          ExecutedRootFromScratch(ledger, miner, txs) ||
      (OldStyleRuns(accounts) &&
       built->header.state_root != OldStyleBuild(ledger, miner, txs))) {
    IdentityFailure("block_build", accounts);
  }

  const double new_ops = MeasureOpsPerSec([&] {
    return ledger.BuildBlock(miner, txs, 1)->header.state_root.Prefix64();
  });
  std::optional<double> old_ops;
  if (OldStyleRuns(accounts)) {
    old_ops = MeasureOpsPerSec(
        [&] { return OldStyleBuild(ledger, miner, txs).Prefix64(); });
  }
  Report(out, "block_build", accounts, old_ops, new_ops);
}

// -------------------------- ledger_257 --------------------------------

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct LedgerGrowth {
  size_t accounts = 0;
  double hwm_before_mib = 0.0;
  double hwm_after_mib = 0.0;
};

/// Appends kLedgerBlocks full blocks to a ledger over `accounts` funded
/// accounts and reports VmHWM before and after. Runs first, so the
/// high-water mark before is the genesis ledger's own.
LedgerGrowth BenchLedgerGrowth(size_t accounts) {
  LedgerGrowth growth;
  growth.accounts = accounts;
  Ledger ledger(1, FundedState(accounts));
  const Address miner = BenchAddr(accounts - 1);
  growth.hwm_before_mib = PeakRssMiB();
  for (int b = 0; b < kLedgerBlocks; ++b) {
    const std::vector<Transaction> txs =
        BlockTxs(accounts, static_cast<uint64_t>(b) * kTxsPerBlock);
    Result<Block> built =
        ledger.BuildBlock(miner, txs, static_cast<uint64_t>(b) + 1);
    if (!built.ok() || built->transactions.size() != txs.size() ||
        !ledger.Append(*built).ok()) {
      IdentityFailure("ledger_257", accounts);
    }
  }
  // Identity gate on the final tip (after the measurement, which a
  // from-scratch rebuild's allocations would otherwise cloud).
  growth.hwm_after_mib = PeakRssMiB();
  if (ledger.tip_state().StateRoot() != RootFromScratch(ledger.tip_state())) {
    IdentityFailure("ledger_257", accounts);
  }
  bench::Row({"ledger_257", std::to_string(accounts), "VmHWM MiB",
              bench::Fmt(growth.hwm_before_mib, 1) + "->" +
                  bench::Fmt(growth.hwm_after_mib, 1),
              bench::Fmt(growth.hwm_after_mib - growth.hwm_before_mib, 1)});
  return growth;
}

}  // namespace
}  // namespace shardchain

int main() {
  using namespace shardchain;

  bench::Banner(
      "BENCH state scaling (DESIGN.md §10)",
      "persistent authenticated state: root update O(dirty*depth) not "
      "O(n); a copy is a root handle and the revert point; roots "
      "byte-identical");

  const size_t largest = kAccountCounts[std::size(kAccountCounts) - 1];
  const LedgerGrowth growth = BenchLedgerGrowth(largest);
  std::printf("\n");

  std::vector<ScenarioResult> results;
  for (const size_t accounts : kAccountCounts) {
    bench::Row({"scenario", "accounts", "old/sec", "new/sec", "speedup"});
    BenchRootUpdate(accounts, &results);
    BenchSnapshotRevert(accounts, &results);
    BenchBlockBuild(accounts, &results);
    std::printf("\n");
  }

  ThreadPool pool(ParallelConfig{}.Resolve());
  std::printf("root on a %zu-thread pool vs serial:\n", pool.thread_count());
  bench::Row({"scenario", "accounts", "unit", "serial", "pool", "speedup"});
  std::vector<PooledResult> pooled;
  for (const size_t accounts : kPooledAccountCounts) {
    BenchPooledRootUpdate(accounts, &pool, &pooled);
  }
  BenchGenesisRoot(largest, &pool, &pooled);
  std::printf("\n");

  bench::Json doc = bench::Json::Object();
  doc.Set("bench", bench::Json::Str("state_scaling"));
  doc.Set("identity_gate",
          bench::Json::Str("incremental root byte-identical to from-scratch "
                           "rebuild in every scenario (asserted pre-timing)"));
  doc.Set("touched_per_root_update",
          bench::Json::Int(static_cast<int64_t>(kTouchedPerRoot)));
  doc.Set("writes_per_snapshot_span",
          bench::Json::Int(static_cast<int64_t>(kTouchedPerSnap)));
  bench::Json arr = bench::Json::Array();
  for (const ScenarioResult& r : results) {
    bench::Json row = bench::Json::Object();
    row.Set("scenario", bench::Json::Str(r.scenario));
    row.Set("accounts", bench::Json::Int(static_cast<int64_t>(r.accounts)));
    row.Set("old_ops_per_sec", r.old_ops_per_sec
                                   ? bench::Json::Num(*r.old_ops_per_sec)
                                   : bench::Json::Null());
    row.Set("new_ops_per_sec", bench::Json::Num(r.new_ops_per_sec));
    row.Set("speedup", r.old_ops_per_sec && *r.old_ops_per_sec > 0.0
                           ? bench::Json::Num(r.new_ops_per_sec /
                                              *r.old_ops_per_sec)
                           : bench::Json::Null());
    arr.Push(std::move(row));
  }
  doc.Set("results", std::move(arr));
  bench::Json pooled_arr = bench::Json::Array();
  for (const PooledResult& r : pooled) {
    bench::Json row = bench::Json::Object();
    row.Set("scenario", bench::Json::Str(r.scenario));
    row.Set("accounts", bench::Json::Int(static_cast<int64_t>(r.accounts)));
    row.Set("unit", bench::Json::Str(r.unit));
    row.Set("serial", bench::Json::Num(r.serial));
    row.Set("pooled", bench::Json::Num(r.pooled));
    pooled_arr.Push(std::move(row));
  }
  doc.Set("pool_threads",
          bench::Json::Int(static_cast<int64_t>(pool.thread_count())));
  doc.Set("pooled_root", std::move(pooled_arr));
  bench::Json ledger = bench::Json::Object();
  ledger.Set("accounts", bench::Json::Int(static_cast<int64_t>(growth.accounts)));
  ledger.Set("blocks", bench::Json::Int(kLedgerBlocks));
  ledger.Set("txs_per_block", bench::Json::Int(static_cast<int64_t>(kTxsPerBlock)));
  ledger.Set("vm_hwm_before_mib", bench::Json::Num(growth.hwm_before_mib));
  ledger.Set("vm_hwm_after_mib", bench::Json::Num(growth.hwm_after_mib));
  ledger.Set("vm_hwm_growth_mib",
             bench::Json::Num(growth.hwm_after_mib - growth.hwm_before_mib));
  doc.Set("ledger_257", std::move(ledger));
  const std::string path = "BENCH_state.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
