#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "sim/workload.h"
#include "state/statedb.h"
#include "types/address.h"
#include "types/block.h"
#include "types/transaction.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

// --------------------------- Address ----------------------------------

TEST(AddressTest, ZeroDetection) {
  EXPECT_TRUE(Address::Zero().IsZero());
  EXPECT_FALSE(Addr(1).IsZero());
}

TEST(AddressTest, FromHashTakesTrailingBytes) {
  Hash256 h;
  for (int i = 0; i < 32; ++i) h.bytes[i] = static_cast<uint8_t>(i);
  const Address a = Address::FromHash(h);
  EXPECT_EQ(a.bytes[0], 12);
  EXPECT_EQ(a.bytes[19], 31);
}

TEST(AddressTest, ContractAddressDependsOnCreatorAndNonce) {
  const Address c = Addr(5);
  EXPECT_EQ(Address::ForContract(c, 0), Address::ForContract(c, 0));
  EXPECT_NE(Address::ForContract(c, 0), Address::ForContract(c, 1));
  EXPECT_NE(Address::ForContract(c, 0), Address::ForContract(Addr(6), 0));
}

TEST(AddressTest, HexHasPrefix) {
  EXPECT_EQ(Address::Zero().ToHex(),
            "0x0000000000000000000000000000000000000000");
}

// -------------------------- Transaction --------------------------------

TEST(TransactionTest, IdIsDeterministic) {
  Transaction tx;
  tx.sender = Addr(1);
  tx.recipient = Addr(2);
  tx.fee = 7;
  EXPECT_EQ(tx.Id(), tx.Id());
}

TEST(TransactionTest, IdChangesWithEveryField) {
  Transaction base;
  base.sender = Addr(1);
  base.recipient = Addr(2);
  base.kind = TxKind::kContractCall;
  base.value = 10;
  base.fee = 5;
  base.nonce = 3;
  const Hash256 id = base.Id();

  Transaction t = base;
  t.sender = Addr(9);
  EXPECT_NE(t.Id(), id);
  t = base;
  t.recipient = Addr(9);
  EXPECT_NE(t.Id(), id);
  t = base;
  t.kind = TxKind::kDirectTransfer;
  EXPECT_NE(t.Id(), id);
  t = base;
  t.value = 11;
  EXPECT_NE(t.Id(), id);
  t = base;
  t.fee = 6;
  EXPECT_NE(t.Id(), id);
  t = base;
  t.nonce = 4;
  EXPECT_NE(t.Id(), id);
  t = base;
  t.payload = {0x01};
  EXPECT_NE(t.Id(), id);
  t = base;
  t.input_accounts.push_back(Addr(3));
  EXPECT_NE(t.Id(), id);
}

TEST(TransactionTest, InputCountIncludesSender) {
  Transaction tx;
  EXPECT_EQ(tx.InputCount(), 1u);
  tx.input_accounts = {Addr(1), Addr(2)};
  EXPECT_EQ(tx.InputCount(), 3u);
}

TEST(TransactionTest, KindNames) {
  EXPECT_STREQ(TxKindName(TxKind::kDirectTransfer), "DirectTransfer");
  EXPECT_STREQ(TxKindName(TxKind::kContractCall), "ContractCall");
  EXPECT_STREQ(TxKindName(TxKind::kContractDeploy), "ContractDeploy");
}

// ----------------------------- Block -----------------------------------

TEST(BlockTest, TxRootMatchesMerkleOfIds) {
  Block block;
  for (int i = 0; i < 5; ++i) {
    Transaction tx;
    tx.sender = Addr(static_cast<uint8_t>(i + 1));
    tx.fee = static_cast<Amount>(i);
    block.transactions.push_back(tx);
  }
  std::vector<Hash256> ids;
  for (const auto& tx : block.transactions) ids.push_back(tx.Id());
  EXPECT_EQ(block.ComputeTxRoot(), MerkleRoot(ids));
}

TEST(BlockTest, EmptyBlockDetection) {
  Block block;
  EXPECT_TRUE(block.IsEmpty());
  EXPECT_TRUE(block.ComputeTxRoot().IsZero());
  block.transactions.emplace_back();
  EXPECT_FALSE(block.IsEmpty());
}

TEST(BlockTest, TotalFeesSums) {
  Block block;
  for (Amount f : {3u, 5u, 7u}) {
    Transaction tx;
    tx.fee = f;
    block.transactions.push_back(tx);
  }
  EXPECT_EQ(block.TotalFees(), 15u);
}

TEST(BlockHeaderTest, HashCoversShardIdAndMiner) {
  BlockHeader h;
  const Hash256 base = h.Hash();
  h.shard_id = 3;
  EXPECT_NE(h.Hash(), base);
  h.shard_id = 0;
  h.miner = Addr(1);
  EXPECT_NE(h.Hash(), base);
  h.miner = Address::Zero();
  h.nonce = 42;
  EXPECT_NE(h.Hash(), base);
  h.nonce = 0;
  EXPECT_EQ(h.Hash(), base);
}

// ---------------------------- StateDB ----------------------------------

TEST(StateDBTest, MissingAccountReadsAsEmpty) {
  StateDB db;
  EXPECT_EQ(db.BalanceOf(Addr(1)), 0u);
  EXPECT_EQ(db.NonceOf(Addr(1)), 0u);
  EXPECT_FALSE(db.IsContract(Addr(1)));
  EXPECT_EQ(db.Find(Addr(1)), nullptr);
}

TEST(StateDBTest, MintAndTransfer) {
  StateDB db;
  db.Mint(Addr(1), 100);
  EXPECT_TRUE(db.Transfer(Addr(1), Addr(2), 40).ok());
  EXPECT_EQ(db.BalanceOf(Addr(1)), 60u);
  EXPECT_EQ(db.BalanceOf(Addr(2)), 40u);
}

TEST(StateDBTest, TransferFailsOnInsufficientBalance) {
  StateDB db;
  db.Mint(Addr(1), 10);
  EXPECT_TRUE(db.Transfer(Addr(1), Addr(2), 11).IsFailedPrecondition());
  EXPECT_EQ(db.BalanceOf(Addr(1)), 10u);
  EXPECT_EQ(db.BalanceOf(Addr(2)), 0u);
}

TEST(StateDBTest, DeployContractOnceOnly) {
  StateDB db;
  EXPECT_TRUE(db.DeployContract(Addr(3), {0x01}).ok());
  EXPECT_TRUE(db.IsContract(Addr(3)));
  EXPECT_TRUE(db.DeployContract(Addr(3), {0x02}).IsAlreadyExists());
}

TEST(StateDBTest, StorageDefaultsToZero) {
  StateDB db;
  EXPECT_EQ(db.StorageGet(Addr(1), 5), 0);
  db.StorageSet(Addr(1), 5, -17);
  EXPECT_EQ(db.StorageGet(Addr(1), 5), -17);
}

// A copy is the revert point: assigning it back drops every write made
// since it was taken.
TEST(StateDBTest, SnapshotRevertRestoresEverything) {
  StateDB db;
  db.Mint(Addr(1), 100);
  db.StorageSet(Addr(2), 1, 11);
  const Hash256 root_before = db.StateRoot();
  StateDB saved = db;

  ASSERT_TRUE(db.Transfer(Addr(1), Addr(3), 50).ok());
  db.StorageSet(Addr(2), 1, 99);
  ASSERT_TRUE(db.DeployContract(Addr(4), {0x01}).ok());
  EXPECT_NE(db.StateRoot(), root_before);
  EXPECT_EQ(saved.StateRoot(), root_before);

  db = std::move(saved);
  EXPECT_EQ(db.StateRoot(), root_before);
  EXPECT_EQ(db.BalanceOf(Addr(1)), 100u);
  EXPECT_EQ(db.StorageGet(Addr(2), 1), 11);
  EXPECT_FALSE(db.IsContract(Addr(4)));
}

TEST(StateDBTest, NestedSnapshots) {
  StateDB db;
  db.Mint(Addr(1), 10);
  const StateDB s1 = db;
  db.Mint(Addr(1), 10);
  const StateDB s2 = db;
  db.Mint(Addr(1), 10);
  db = s2;
  EXPECT_EQ(db.BalanceOf(Addr(1)), 20u);
  db = s1;
  EXPECT_EQ(db.BalanceOf(Addr(1)), 10u);
  // Copies are values: restoring the older one leaves the newer intact.
  db = s2;
  EXPECT_EQ(db.BalanceOf(Addr(1)), 20u);
  EXPECT_EQ(s1.BalanceOf(Addr(1)), 10u);
}

TEST(StateDBTest, StateRootIsOrderIndependentOfInsertion) {
  StateDB a;
  a.Mint(Addr(1), 5);
  a.Mint(Addr(2), 7);
  StateDB b;
  b.Mint(Addr(2), 7);
  b.Mint(Addr(1), 5);
  EXPECT_EQ(a.StateRoot(), b.StateRoot());
}

TEST(StateDBTest, StateRootSensitiveToBalances) {
  StateDB a;
  a.Mint(Addr(1), 5);
  StateDB b;
  b.Mint(Addr(1), 6);
  EXPECT_NE(a.StateRoot(), b.StateRoot());
}

// --------------------------- Workload ----------------------------------

TEST(WorkloadTest, UniformSpreadsAcrossContracts) {
  Rng rng(100);
  WorkloadConfig config;
  config.num_transactions = 900;
  config.num_contracts = 9;
  const Workload w = GenerateWorkload(config, &rng);
  ASSERT_EQ(w.transactions.size(), 900u);
  const auto counts = w.PerContractCounts();
  ASSERT_EQ(counts.size(), 9u);
  for (size_t c : counts) {
    EXPECT_GT(c, 60u);
    EXPECT_LT(c, 140u);
  }
}

TEST(WorkloadTest, SendersAreFreshAndSingleContract) {
  Rng rng(101);
  WorkloadConfig config;
  config.num_transactions = 50;
  const Workload w = GenerateWorkload(config, &rng);
  std::set<Address> senders;
  for (const auto& tx : w.transactions) {
    EXPECT_EQ(tx.kind, TxKind::kContractCall);
    EXPECT_TRUE(tx.input_accounts.empty());
    senders.insert(tx.sender);
  }
  EXPECT_EQ(senders.size(), w.transactions.size());
}

TEST(WorkloadTest, MaxShardFractionProducesUnshardableTxs) {
  Rng rng(102);
  WorkloadConfig config;
  config.num_transactions = 400;
  config.maxshard_fraction = 0.5;
  const Workload w = GenerateWorkload(config, &rng);
  size_t maxshard = 0;
  for (int c : w.contract_of) {
    if (c < 0) ++maxshard;
  }
  EXPECT_GT(maxshard, 120u);
  EXPECT_LT(maxshard, 280u);
}

TEST(WorkloadTest, FeesArePositive) {
  Rng rng(103);
  WorkloadConfig config;
  config.num_transactions = 200;
  const Workload w = GenerateWorkload(config, &rng);
  for (const auto& tx : w.transactions) EXPECT_GT(tx.fee, 0u);
}

TEST(WorkloadTest, ZipfConcentratesOnPopularContract) {
  Rng rng(104);
  WorkloadConfig config;
  config.num_transactions = 1000;
  config.num_contracts = 10;
  config.popularity = ContractPopularity::kZipf;
  config.zipf_exponent = 1.2;
  const Workload w = GenerateWorkload(config, &rng);
  const auto counts = w.PerContractCounts();
  const size_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, 1000u / 10u * 2u);  // Far above uniform share.
}

TEST(WorkloadTest, KInputTransactionsCarryExtras) {
  Rng rng(105);
  const auto txs = GenerateKInputTransactions(20, 3, 5, &rng);
  ASSERT_EQ(txs.size(), 20u);
  for (const auto& tx : txs) {
    EXPECT_EQ(tx.InputCount(), 3u);
    EXPECT_EQ(tx.fee, 5u);
  }
}

TEST(WorkloadTest, FundWorkloadCoversCosts) {
  Rng rng(106);
  WorkloadConfig config;
  config.num_transactions = 30;
  const Workload w = GenerateWorkload(config, &rng);
  StateDB state;
  FundWorkload(w.transactions, &state);
  for (const auto& tx : w.transactions) {
    EXPECT_GE(state.BalanceOf(tx.sender), tx.fee + tx.value);
  }
}

TEST(WorkloadTest, EqualFeeModel) {
  Rng rng(107);
  WorkloadConfig config;
  config.fee_model = FeeModel::kEqual;
  config.fee_equal = 42;
  EXPECT_EQ(DrawFee(config, &rng), 42u);
}

TEST(WorkloadTest, UniformFeeModelInRange) {
  Rng rng(108);
  WorkloadConfig config;
  config.fee_model = FeeModel::kUniform;
  config.fee_uniform_lo = 10;
  config.fee_uniform_hi = 20;
  for (int i = 0; i < 100; ++i) {
    const Amount f = DrawFee(config, &rng);
    EXPECT_GE(f, 10u);
    EXPECT_LE(f, 20u);
  }
}

// --------------------- Adversarial workload ----------------------------

/// Flat comparable fingerprint of one transaction, enough to detect any
/// divergence between two generated traces.
std::vector<std::tuple<Address, Address, uint64_t, Amount, Amount, int>>
Fingerprint(const Workload& w) {
  std::vector<std::tuple<Address, Address, uint64_t, Amount, Amount, int>> out;
  for (size_t i = 0; i < w.transactions.size(); ++i) {
    const Transaction& tx = w.transactions[i];
    out.emplace_back(tx.sender, tx.recipient, tx.nonce, tx.fee, tx.value,
                     w.contract_of[i]);
  }
  return out;
}

TEST(AdversarialWorkloadTest, SameSeedProducesIdenticalTrace) {
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 120;
  AdversarialWorkloadStream a(config, 77);
  AdversarialWorkloadStream b(config, 77);
  for (int epoch = 0; epoch < 5; ++epoch) {
    EXPECT_EQ(Fingerprint(a.NextEpoch()), Fingerprint(b.NextEpoch()))
        << "epoch " << epoch;
  }
  AdversarialWorkloadStream c(config, 78);
  a = AdversarialWorkloadStream(config, 77);
  EXPECT_NE(Fingerprint(a.NextEpoch()), Fingerprint(c.NextEpoch()));
}

TEST(AdversarialWorkloadTest, FlashEpochsFollowThePeriod) {
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 40;
  config.flash_period = 3;
  AdversarialWorkloadStream stream(config, 9);
  for (int epoch = 1; epoch <= 9; ++epoch) {
    stream.NextEpoch();
    EXPECT_EQ(stream.LastEpochWasFlash(), epoch % 3 == 0) << epoch;
    if (epoch % 3 == 0) {
      EXPECT_GE(stream.LastHotContract(), 0);
    } else {
      EXPECT_EQ(stream.LastHotContract(), -1);
    }
  }
}

TEST(AdversarialWorkloadTest, FlashCrowdConcentratesOnHotContract) {
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 1000;
  config.base.num_contracts = 10;
  config.flash_period = 1;  // Every epoch is a flash.
  config.flash_crowd_share = 0.8;
  config.returning_fraction = 0.0;
  AdversarialWorkloadStream stream(config, 5);
  const Workload w = stream.NextEpoch();
  ASSERT_GE(stream.LastHotContract(), 0);
  const auto counts = w.PerContractCounts();
  // The hot contract absorbs well above the Zipf-head share.
  EXPECT_GT(counts[static_cast<size_t>(stream.LastHotContract())], 600u);
}

TEST(AdversarialWorkloadTest, ReturningSendersCallOnlyTheirHomeContract) {
  // The order-invariance contract: within one epoch, every pool sender
  // calls exactly one contract — its (possibly freshly switched) home —
  // with strictly increasing nonces.
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 600;
  config.returning_fraction = 0.5;
  config.contract_switch_probability = 0.5;
  AdversarialWorkloadStream stream(config, 21);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const Workload w = stream.NextEpoch();
    std::map<Address, std::set<Address>> called;
    std::map<Address, uint64_t> last_nonce;
    const std::set<Address> pool(stream.ReturningSenders().begin(),
                                 stream.ReturningSenders().end());
    size_t pool_txs = 0;
    for (const Transaction& tx : w.transactions) {
      if (pool.count(tx.sender) == 0) continue;
      ++pool_txs;
      called[tx.sender].insert(tx.recipient);
      auto it = last_nonce.find(tx.sender);
      if (it != last_nonce.end()) {
        EXPECT_GT(tx.nonce, it->second);
      }
      last_nonce[tx.sender] = tx.nonce;
    }
    EXPECT_GT(pool_txs, 100u);
    for (const auto& [sender, contracts] : called) {
      EXPECT_EQ(contracts.size(), 1u)
          << "pool sender touched two contracts within one epoch";
    }
  }
}

TEST(AdversarialWorkloadTest, FlashEpochsCarryInflatedFees) {
  AdversarialWorkloadConfig config;
  config.base.num_transactions = 2000;
  config.base.fee_model = FeeModel::kEqual;
  config.base.fee_equal = 10;
  config.flash_period = 2;
  config.fee_attack_fraction = 0.2;
  config.fee_attack_multiplier = 8.0;
  AdversarialWorkloadStream stream(config, 33);
  const Workload calm = stream.NextEpoch();   // epoch 1: no flash
  const Workload flash = stream.NextEpoch();  // epoch 2: flash
  ASSERT_FALSE(stream.EpochsGenerated() != 2 || !stream.LastEpochWasFlash());
  auto inflated = [](const Workload& w) {
    size_t n = 0;
    for (const auto& tx : w.transactions) {
      if (tx.fee > 10) ++n;
    }
    return n;
  };
  EXPECT_EQ(inflated(calm), 0u);
  const size_t hits = inflated(flash);
  EXPECT_GT(hits, 250u);
  EXPECT_LT(hits, 550u);
  for (const auto& tx : flash.transactions) {
    if (tx.fee > 10) {
      EXPECT_EQ(tx.fee, 80u);
    }
  }
}

}  // namespace
}  // namespace shardchain
