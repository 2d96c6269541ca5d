// Differential serial-vs-parallel suite (ctest label: parallel): the
// consensus-critical outputs — merge plans, selection plans, unified
// parameters — are computed at thread counts {1, 2, 3, 4, 7, 8} and
// their PR-1 codec encodings are asserted byte-identical to the
// strictly serial threads=1 run. This is the Sec. IV-C requirement in
// executable form: a miner's plan bytes may not depend on how many
// cores her machine has. A chaos-suite schedule re-run with threads=4
// closes the loop end-to-end through the liveness simulator. State
// roots hashed on the pool (subtries in parallel) must equal the
// serial walk's and a from-scratch rebuild's.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sharding_system.h"
#include "core/unification.h"
#include "core/unification_codec.h"
#include "crypto/merkle.h"
#include "crypto/vrf.h"
#include "net/faults.h"
#include "parallel/thread_pool.h"
#include "sim/liveness.h"
#include "state/statedb.h"
#include "state/trie.h"

namespace shardchain {
namespace {

const size_t kThreadCounts[] = {1, 2, 3, 4, 7, 8};
constexpr uint64_t kNumSeeds = 20;

/// A randomized-but-seeded workload for the unified games: shard sizes
/// straddling L, a skewed fee vector, and a seed-derived randomness.
UnifiedParameters ParamsForSeed(uint64_t seed) {
  Rng rng(seed);
  UnifiedParameters params;
  params.randomness = Sha256Digest("parallel.eq." + std::to_string(seed));
  const size_t shards = 3 + rng.UniformInt(10);
  for (size_t s = 0; s < shards; ++s) {
    params.shard_sizes.push_back(1 + rng.UniformInt(
        params.merge_config.min_shard_size));
  }
  const size_t txs = 20 + rng.UniformInt(120);
  for (size_t t = 0; t < txs; ++t) {
    params.tx_fees.push_back(static_cast<Amount>(1 + rng.Zipf(50, 1.1)));
  }
  params.num_miners = 2 + rng.UniformInt(10);
  params.select_config.capacity = 5;
  // Small Monte-Carlo load so 20 seeds x 6 thread counts stay fast.
  params.merge_config.subslots = 16;
  params.merge_config.max_slots = 60;
  return params;
}

TEST(ParallelEquivalence, MergePlanBytesMatchSerialAtEveryThreadCount) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const UnifiedParameters params = ParamsForSeed(seed);
    const Bytes serial = codec::EncodeMergePlan(ComputeMergePlan(params));
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const Bytes parallel =
          codec::EncodeMergePlan(ComputeMergePlan(params, &pool));
      ASSERT_EQ(parallel, serial)
          << "merge plan bytes diverged: seed " << seed << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelEquivalence, SelectionPlanBytesMatchSerialAtEveryThreadCount) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const UnifiedParameters params = ParamsForSeed(seed);
    const Bytes serial =
        codec::EncodeSelectionPlan(ComputeSelectionPlan(params));
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const Bytes parallel =
          codec::EncodeSelectionPlan(ComputeSelectionPlan(params, &pool));
      ASSERT_EQ(parallel, serial)
          << "selection plan bytes diverged: seed " << seed << ", "
          << threads << " threads";
    }
  }
}

TEST(ParallelEquivalence, UnifiedParameterBytesRoundTripUnchanged) {
  // The broadcast itself is computed serially, but every thread count
  // must decode it to a value that re-encodes to the same bytes —
  // plan computation may never mutate its inputs.
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const UnifiedParameters params = ParamsForSeed(seed);
    const Bytes wire = codec::EncodeUnifiedParameters(params);
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      Result<UnifiedParameters> decoded =
          codec::DecodeUnifiedParameters(wire);
      ASSERT_TRUE(decoded.ok());
      (void)ComputeMergePlan(*decoded, &pool);
      (void)ComputeSelectionPlan(*decoded, &pool);
      ASSERT_EQ(codec::EncodeUnifiedParameters(*decoded), wire)
          << "parameters mutated: seed " << seed << ", " << threads
          << " threads";
    }
  }
}

TEST(ParallelEquivalence, MerkleRootAndVrfBatchesMatchSerial) {
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(seed ^ 0xabcdefull);
    std::vector<Hash256> leaves(1 + rng.UniformInt(700));
    for (Hash256& leaf : leaves) {
      leaf = Sha256Digest("leaf." + std::to_string(rng.Next()));
    }
    const Hash256 root = MerkleRoot(leaves);

    KeyPair key = KeyPair::Generate(&rng);
    const Hash256 vseed = Sha256Digest("vrf." + std::to_string(seed));
    const VrfOutput vrf = VrfEvaluate(key, vseed);
    std::vector<const KeyPair*> keys(5, &key);
    std::vector<const PublicKey*> pks(5, &key.public_key());
    std::vector<const VrfOutput*> outs(5, &vrf);

    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      ASSERT_EQ(MerkleRoot(leaves, &pool), root) << threads << " threads";
      const std::vector<VrfOutput> evals =
          VrfEvaluateBatch(keys, vseed, &pool);
      for (const VrfOutput& e : evals) {
        ASSERT_EQ(e.value, vrf.value);
        ASSERT_EQ(e.proof, vrf.proof);
      }
      const std::vector<uint8_t> valid =
          VrfVerifyBatch(pks, vseed, outs, &pool);
      ASSERT_EQ(valid, std::vector<uint8_t>(5, 1)) << threads << " threads";
    }
  }
}

// --- State roots hashed on the pool ----------------------------------

/// Keys with low-entropy leading bytes, so roots are branches over
/// extensions over branches, and lengths vary (values on branches).
Bytes RootKey(uint64_t n) {
  Bytes key;
  key.push_back(static_cast<uint8_t>(n % 11));
  key.push_back(static_cast<uint8_t>(n % 17));
  if (n % 3 != 0) key.push_back(static_cast<uint8_t>(n >> 5));
  return key;
}

/// The reference contents, keyed by the key bytes as a string (a
/// std::map over Bytes keys trips GCC 12's -Wstringop-overread, gcc PR
/// 105651, under -Werror).
using Model = std::map<std::string, Bytes>;

std::string ModelKey(const Bytes& key) {
  return std::string(key.begin(), key.end());
}

/// A seeded Put/Delete history, applied to `trie` and to `model`.
void SeededHistory(uint64_t seed, int steps, MerklePatriciaTrie* trie,
                   Model* model) {
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Bytes key = RootKey(rng.Next() % 3000);
    if (rng.UniformInt(100) < 75) {
      const Bytes value = {static_cast<uint8_t>(rng.Next()),
                           static_cast<uint8_t>(step)};
      (*model)[ModelKey(key)] = value;
      trie->Put(key, value);
    } else {
      trie->Delete(key);
      model->erase(ModelKey(key));
    }
  }
}

Hash256 RebuiltRoot(const Model& model) {
  MerklePatriciaTrie scratch;
  for (const auto& [key, value] : model) {
    scratch.Put(Bytes(key.begin(), key.end()), value);
  }
  return scratch.RootHash();
}

/// The root at every thread count, each on a trie freshly built by
/// `build` (so every run hashes the whole trie), must equal the serial
/// walk and the rebuild of `model`; proofs must verify against it.
template <typename Build>
void ExpectPooledRootsMatch(const Build& build,
                            const Model& model,
                            const std::string& shape) {
  const Hash256 serial = build().RootHash();
  ASSERT_EQ(serial, RebuiltRoot(model)) << shape;
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const MerklePatriciaTrie trie = build();
    ASSERT_EQ(trie.RootHash(&pool), serial)
        << shape << ", " << threads << " threads";
    ASSERT_EQ(trie.RootHash(&pool), serial) << "cached root, " << shape;
    for (uint64_t probe = 0; probe < 24; ++probe) {
      const Bytes key = RootKey(probe * 131);
      auto verified =
          MerklePatriciaTrie::VerifyProof(serial, key, trie.Prove(key));
      ASSERT_TRUE(verified.ok()) << shape << ": " << verified.status().ToString();
      ASSERT_EQ(*verified, trie.Get(key)) << shape;
    }
  }
  MerklePatriciaTrie unpooled = build();
  ASSERT_EQ(unpooled.RootHash(nullptr), serial) << shape;
}

TEST(ParallelStateRoot, SeededByteTriesMatchSerialAndRebuild) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Model model;
    MerklePatriciaTrie reference;
    SeededHistory(seed, 900, &reference, &model);
    ExpectPooledRootsMatch(
        [seed] {
          MerklePatriciaTrie trie;
          Model unused;
          SeededHistory(seed, 900, &trie, &unused);
          return trie;
        },
        model, "seed " + std::to_string(seed));
  }
}

TEST(ParallelStateRoot, RootShapesMatchSerialAndRebuild) {
  struct Shape {
    const char* name;
    std::vector<std::pair<Bytes, Bytes>> entries;
  };
  std::vector<std::pair<Bytes, Bytes>> wide;
  for (uint64_t n = 0; n < 64; ++n) wide.push_back({RootKey(n), {uint8_t(n)}});
  const Shape shapes[] = {
      {"empty", {}},
      {"single leaf", {{{0x12, 0x34}, {1}}}},
      // Every key starts with nibbles 1,2: an extension above a branch.
      {"extension root", {{{0x12, 0x34}, {1}}, {{0x12, 0x56}, {2}},
                          {{0x12, 0x57, 0x01}, {3}}}},
      // The empty key puts a value on the root branch; {0x12} one on an
      // inner branch.
      {"branch holding a value", {{{}, {9}}, {{0x12}, {1}},
                                  {{0x12, 0x34}, {2}}, {{0x56}, {3}}}},
      {"wide branch", wide},
  };
  for (const Shape& shape : shapes) {
    Model model;
    for (const auto& [key, value] : shape.entries) {
      model[ModelKey(key)] = value;
    }
    ExpectPooledRootsMatch(
        [&shape] {
          MerklePatriciaTrie trie;
          for (const auto& [key, value] : shape.entries) trie.Put(key, value);
          return trie;
        },
        model, shape.name);
  }
}

TEST(ParallelStateRoot, BranchWithOneStaleChildMatchesSerial) {
  Model model;
  MerklePatriciaTrie base;
  SeededHistory(77, 600, &base, &model);
  (void)base.RootHash();
  // One write after a full hash: the root branch has one stale child.
  const Bytes key = RootKey(5);
  model[ModelKey(key)] = {0xee};
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    MerklePatriciaTrie trie = base;
    trie.Put(key, {0xee});
    ASSERT_EQ(trie.RootHash(&pool), RebuiltRoot(model))
        << threads << " threads";
  }
}

TEST(ParallelStateRoot, CopyWrittenAfterPooledHashMatchesSerialModel) {
  for (const size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    Model model;
    MerklePatriciaTrie trie;
    SeededHistory(5, 700, &trie, &model);
    const Hash256 root = trie.RootHash(&pool);
    ASSERT_EQ(root, RebuiltRoot(model));

    // Rounds of writes on a copy, each re-hashed on the pool; the
    // original keeps its root, the copy tracks the serial model.
    MerklePatriciaTrie copy = trie;
    Model copy_model = model;
    for (uint64_t round = 0; round < 4; ++round) {
      SeededHistory(100 + round, 40, &copy, &copy_model);
      ASSERT_EQ(copy.RootHash(&pool), RebuiltRoot(copy_model))
          << "round " << round << ", " << threads << " threads";
    }
    ASSERT_EQ(trie.RootHash(&pool), root) << "the copy's writes leaked";
  }
}

/// A seeded account state: balances, nonces, storage, contract code.
StateDB SeededAccounts(uint64_t seed, size_t accounts) {
  Rng rng(seed);
  StateDB db;
  for (size_t i = 0; i < accounts; ++i) {
    const Address addr = Address::FromHash(
        Sha256Digest("acct." + std::to_string(seed) + "." + std::to_string(i)));
    db.Mint(addr, 1 + rng.UniformInt(1'000'000));
    db.GetOrCreate(addr).nonce = rng.UniformInt(9);
    if (i % 7 == 0) {
      db.StorageSet(addr, rng.UniformInt(4), static_cast<int64_t>(rng.Next()));
    }
    if (i % 31 == 0) (void)db.DeployContract(addr, {0x01, uint8_t(i)});
  }
  return db;
}

/// The account root from scratch: a byte trie of account digests.
Hash256 AccountRootFromScratch(const StateDB& db) {
  MerklePatriciaTrie trie;
  for (const Address& addr : db.Addresses()) {
    const Hash256 digest = db.Find(addr)->Digest(addr);
    trie.Put(Bytes(addr.bytes.begin(), addr.bytes.end()),
             Bytes(digest.bytes.begin(), digest.bytes.end()));
  }
  return trie.RootHash();
}

TEST(ParallelStateRoot, SeededAccountTriesMatchSerialAndRebuild) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const size_t accounts = 1 + 300 * seed;
    const Hash256 serial = SeededAccounts(seed, accounts).StateRoot();
    ASSERT_EQ(serial, AccountRootFromScratch(SeededAccounts(seed, accounts)));
    for (const size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      StateDB db = SeededAccounts(seed, accounts);
      ASSERT_EQ(db.StateRoot(&pool), serial)
          << "seed " << seed << ", " << threads << " threads";
      for (const Address& addr : {db.Addresses().front(), Address{}}) {
        auto verified =
            StateDB::VerifyAccount(serial, addr, db.ProveAccount(addr));
        ASSERT_TRUE(verified.ok());
        ASSERT_EQ(verified->has_value(), db.Find(addr) != nullptr);
      }
      // A copy written after the pooled hash re-hashes to the rebuild.
      StateDB copy = db;
      for (const Address& addr : db.Addresses()) {
        if (addr.bytes[0] % 5 == 0) copy.Mint(addr, 3);
      }
      copy.Mint(Address::FromHash(Sha256Digest("fresh")), 11);
      ASSERT_EQ(copy.StateRoot(&pool), AccountRootFromScratch(copy));
      ASSERT_EQ(db.StateRoot(&pool), serial) << "the copy's writes leaked";
    }
  }
}

TEST(ParallelEquivalence, ShardingSystemEpochIdenticalAcrossThreadCounts) {
  // Whole-system differential: drive identical workloads through one
  // system per thread count and compare every consensus-visible output.
  auto run = [](size_t threads) {
    ShardingSystemConfig config;
    config.parallel.threads = threads;
    ShardingSystem sys(config, /*seed=*/99);
    for (int m = 0; m < 6; ++m) sys.AddMiner();
    EXPECT_TRUE(sys.BeginEpoch(0).ok());
    // Shardable workload: each user only ever calls one contract, so
    // shards form around the 4 contracts (Sec. III-A) and the merge
    // plan plus per-shard fan-out have real work to do.
    Rng rng(1234);
    for (int t = 0; t < 60; ++t) {
      Transaction tx;
      const uint64_t c = rng.UniformInt(4);
      tx.kind = TxKind::kContractCall;
      tx.recipient =
          Address::FromHash(Sha256Digest("contract." + std::to_string(c)));
      tx.sender = Address::FromHash(Sha256Digest(
          "user." + std::to_string(c * 8 + rng.UniformInt(8))));
      tx.value = 1 + rng.UniformInt(50);
      tx.fee = 1 + rng.UniformInt(30);
      tx.nonce = static_cast<uint64_t>(t);
      (void)sys.SubmitTransaction(tx);
    }
    std::vector<Bytes> out;
    out.push_back(
        codec::EncodeMergePlan(sys.MergeSmallShards()));
    for (const ShardSelectionPlan& p : sys.ComputeShardSelectionPlans()) {
      out.push_back(codec::EncodeUnifiedParameters(p.params));
      out.push_back(codec::EncodeSelectionPlan(p.plan));
    }
    // Mined blocks: their state roots are hashed on the system pool.
    for (NodeId m = 0; m < 6; ++m) {
      Result<Hash256> mined = sys.MineBlock(m);
      if (!mined.ok()) continue;
      const Block* block =
          sys.ShardLedger(sys.ShardOfMiner(m))->Find(*mined);
      out.push_back(codec::EncodeBlock(*block));
    }
    return out;
  };
  const std::vector<Bytes> serial = run(1);
  EXPECT_FALSE(serial.empty());
  for (const size_t threads : kThreadCounts) {
    ASSERT_EQ(run(threads), serial) << threads << " threads";
  }
}

// --- Chaos schedule at threads=4 -------------------------------------

LivenessConfig ChaosConfig(size_t threads) {
  LivenessConfig config;
  config.num_miners = 18;
  config.gossip.deterministic_latency = true;
  config.parallel.threads = threads;
  return config;
}

/// Same envelope as tests/chaos_suite.cc DrawFaults: at most 1/3
/// faulty, <=30% drop, partitions healing before the deadline.
FaultConfig DrawFaults(const LivenessConfig& config, Rng* rng,
                       const std::vector<NodeId>& ranking) {
  FaultConfig faults;
  faults.drop_probability = 0.30 * rng->UniformDouble();
  faults.duplicate_probability = 0.20 * rng->UniformDouble();
  faults.delay_multiplier_max = 1.0 + 1.5 * rng->UniformDouble();

  const size_t n = config.num_miners;
  size_t budget = rng->UniformInt(n / 3 + 1);
  std::set<NodeId> faulty;
  const size_t num_crashes = rng->UniformInt(budget / 2 + 1);
  for (size_t i = 0; i < num_crashes; ++i) {
    const NodeId victim = rng->Bernoulli(0.5) && i < ranking.size()
                              ? ranking[i]
                              : static_cast<NodeId>(rng->UniformInt(n));
    if (!faulty.insert(victim).second) continue;
    faults.crashes.push_back(
        {victim, config.decision_deadline * rng->UniformDouble()});
  }
  budget -= std::min(budget, faults.crashes.size());
  if (budget > 0 && rng->Bernoulli(0.7)) {
    PartitionWindow window;
    window.start = rng->UniformDouble() * (config.decision_deadline - 4.0);
    window.end = window.start +
                 rng->UniformDouble() *
                     (config.decision_deadline - 2.0 - window.start);
    while (window.island.size() < budget) {
      const NodeId node = static_cast<NodeId>(rng->UniformInt(n));
      if (!faulty.insert(node).second) continue;
      window.island.push_back(node);
    }
    if (!window.island.empty()) faults.partitions.push_back(window);
  }
  return faults;
}

TEST(ParallelEquivalence, ChaosScheduleAtFourThreadsNeverSplits) {
  // One full chaos schedule with the sim's pool at 4 threads: the
  // no-split invariant must hold, and every decision must be
  // byte-identical to the same schedule run strictly serially.
  auto run = [](size_t threads) {
    const LivenessConfig config = ChaosConfig(threads);
    EpochLivenessSim sim(config, /*seed=*/13);
    Rng rng(0x9e3779b97f4a7c15ull ^ 13);
    std::vector<EpochOutcome> outcomes;
    for (int epoch = 0; epoch < 3; ++epoch) {
      const FaultConfig fault_config =
          DrawFaults(config, &rng, sim.NextRanking());
      FaultPlan plan(fault_config, 13 * 1000 + epoch);
      outcomes.push_back(sim.RunEpoch(&plan));
    }
    return outcomes;
  };
  const std::vector<EpochOutcome> serial = run(1);
  const std::vector<EpochOutcome> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t e = 0; e < serial.size(); ++e) {
    const EpochOutcome& s = serial[e];
    const EpochOutcome& p = parallel[e];
    ASSERT_TRUE(p.converged) << "SPLIT at threads=4, epoch " << e;
    ASSERT_EQ(s.decisions.size(), p.decisions.size());
    for (size_t m = 0; m < s.decisions.size(); ++m) {
      ASSERT_EQ(p.decisions[m].live, s.decisions[m].live)
          << "epoch " << e << " miner " << m;
      ASSERT_EQ(p.decisions[m].fallback, s.decisions[m].fallback)
          << "epoch " << e << " miner " << m;
      ASSERT_EQ(p.decisions[m].plan, s.decisions[m].plan)
          << "plan bytes diverged: epoch " << e << " miner " << m;
      ASSERT_EQ(p.decisions[m].randomness, s.decisions[m].randomness)
          << "epoch " << e << " miner " << m;
    }
  }
}

}  // namespace
}  // namespace shardchain
