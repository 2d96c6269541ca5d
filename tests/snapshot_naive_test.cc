#include <gtest/gtest.h>

#include "chain/snapshot.h"
#include "common/rng.h"
#include "contract/callgraph.h"
#include "contract/naive_classifier.h"
#include "contract/registry.h"
#include "sim/workload.h"

namespace shardchain {
namespace {

Address Addr(uint8_t tag) {
  Address a;
  a.bytes.fill(tag);
  return a;
}

// --------------------------- State snapshots ------------------------------

StateDB RichState() {
  StateDB state;
  state.Mint(Addr(1), 1000);
  state.Mint(Addr(2), 5);
  state.GetOrCreate(Addr(2)).nonce = 7;
  Result<Address> contract = ContractRegistry::Deploy(
      &state, Addr(3), contracts::Escrow(Addr(4)));
  EXPECT_TRUE(contract.ok());
  state.StorageSet(*contract, 0, 42);
  state.StorageSet(*contract, 9, -5);
  return state;
}

TEST(SnapshotTest, RoundTripPreservesRootAndContents) {
  const StateDB state = RichState();
  const Hash256 root = state.StateRoot();
  const Bytes wire = snapshot::Serialize(state);
  Result<StateDB> restored = snapshot::Deserialize(wire, root);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->StateRoot(), root);
  EXPECT_EQ(restored->BalanceOf(Addr(1)), 1000u);
  EXPECT_EQ(restored->NonceOf(Addr(2)), 7u);
  EXPECT_EQ(restored->AccountCount(), state.AccountCount());
}

TEST(SnapshotTest, EmptyStateRoundTrips) {
  StateDB empty;
  Result<StateDB> restored =
      snapshot::Deserialize(snapshot::Serialize(empty), empty.StateRoot());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->AccountCount(), 0u);
}

TEST(SnapshotTest, RootMismatchRejected) {
  const StateDB state = RichState();
  Hash256 wrong = state.StateRoot();
  wrong.bytes[0] ^= 1;
  EXPECT_TRUE(snapshot::Deserialize(snapshot::Serialize(state), wrong)
                  .status()
                  .IsCorruption());
}

TEST(SnapshotTest, TamperedBytesRejected) {
  const StateDB state = RichState();
  const Hash256 root = state.StateRoot();
  Bytes wire = snapshot::Serialize(state);
  // Flip a balance byte: structure still parses, root check catches it.
  wire[8 + 20 + 3] ^= 0x01;
  EXPECT_FALSE(snapshot::Deserialize(wire, root).ok());
}

TEST(SnapshotTest, RepeatedOrUnsortedAddressesRejected) {
  // The codec is canonical: accounts come in strictly ascending address
  // order. A wire that repeats an entry or swaps two entries describes
  // the same contents — the root check alone would accept it — and must
  // be rejected as Corruption.
  StateDB state;
  state.Mint(Addr(1), 10);
  state.Mint(Addr(2), 20);
  state.Mint(Addr(5), 50);
  const Hash256 root = state.StateRoot();
  const Bytes wire = snapshot::Serialize(state);
  constexpr size_t kEntry = 20 + 8 + 8 + 8 + 8;  // EOA: no code, no storage.
  ASSERT_EQ(wire.size(), 8 + 3 * kEntry);
  auto entry = [&wire](size_t i) {
    const auto begin = wire.begin() + static_cast<ptrdiff_t>(8 + i * kEntry);
    return Bytes(begin, begin + static_cast<ptrdiff_t>(kEntry));
  };
  auto assemble = [](const std::vector<Bytes>& entries) {
    Bytes out;
    AppendUint64(&out, entries.size());
    for (const Bytes& e : entries) out.insert(out.end(), e.begin(), e.end());
    return out;
  };
  ASSERT_TRUE(
      snapshot::Deserialize(assemble({entry(0), entry(1), entry(2)}), root)
          .ok());

  const Bytes repeated = assemble({entry(0), entry(0), entry(1), entry(2)});
  EXPECT_TRUE(snapshot::Deserialize(repeated, root).status().IsCorruption());
  const Bytes swapped = assemble({entry(1), entry(0), entry(2)});
  EXPECT_TRUE(snapshot::Deserialize(swapped, root).status().IsCorruption());
}

TEST(SnapshotTest, TruncationRejectedCleanly) {
  const StateDB state = RichState();
  const Bytes wire = snapshot::Serialize(state);
  for (size_t cut = 0; cut < wire.size(); cut += 11) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(snapshot::Deserialize(prefix, Hash256::Zero()).ok());
  }
}

TEST(SnapshotTest, GarbageNeverCrashes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Bytes junk(rng.UniformInt(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.UniformInt(256));
    (void)snapshot::Deserialize(junk, Hash256::Zero());
  }
  SUCCEED();
}

TEST(SnapshotTest, SizeMatchesSerialization) {
  const StateDB state = RichState();
  EXPECT_EQ(snapshot::SizeOf(state), snapshot::Serialize(state).size());
}

// ------------------------- Naive classifier -------------------------------

TEST(NaiveClassifierTest, AgreesWithCallGraphOnRandomStreams) {
  Rng rng(2);
  WorkloadConfig wl;
  wl.num_transactions = 400;
  wl.num_contracts = 6;
  wl.maxshard_fraction = 0.3;
  const Workload w = GenerateWorkload(wl, &rng);

  CallGraph graph;
  NaiveHistoryClassifier naive;
  for (const Transaction& tx : w.transactions) {
    // Both classifiers must agree on every incoming transaction BEFORE
    // recording it (the miner's admission decision).
    Address g_contract, n_contract;
    EXPECT_EQ(graph.IsShardable(tx, &g_contract),
              naive.IsShardable(tx, &n_contract));
    EXPECT_EQ(graph.Classify(tx.sender), naive.Classify(tx.sender));
    graph.Record(tx);
    naive.Record(tx);
  }
  EXPECT_EQ(naive.HistorySize(), 400u);
}

TEST(NaiveClassifierTest, MatchesKnownClasses) {
  NaiveHistoryClassifier naive;
  Transaction call;
  call.kind = TxKind::kContractCall;
  call.sender = Addr(1);
  call.recipient = Addr(0x10);
  naive.Record(call);
  EXPECT_EQ(naive.Classify(Addr(1)), SenderClass::kSingleContract);

  call.recipient = Addr(0x11);
  naive.Record(call);
  EXPECT_EQ(naive.Classify(Addr(1)), SenderClass::kMultiContract);

  Transaction direct;
  direct.kind = TxKind::kDirectTransfer;
  direct.sender = Addr(2);
  direct.recipient = Addr(3);
  naive.Record(direct);
  EXPECT_EQ(naive.Classify(Addr(2)), SenderClass::kDirect);
  EXPECT_EQ(naive.Classify(Addr(9)), SenderClass::kNoHistory);
}

}  // namespace
}  // namespace shardchain
