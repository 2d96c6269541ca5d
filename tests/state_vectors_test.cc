// Golden-vector pinning of the state-root commitment: five fixed
// account-state scenarios whose roots are committed as hex snapshots
// under tests/vectors/state<k>.hex. The state root goes into every
// block header, so any change to the account digest encoding, the trie
// node serialization, or the incremental update path that shifts a
// single byte forks the chain — and fails here first (DESIGN.md §10).
//
// Each file holds one root per checkpoint of its scenario, so the
// vectors pin intermediate roots (mid-mutation, post-revert), not just
// the final one.
//
// Regenerate deliberately with:
//   SHARDCHAIN_REGEN_VECTORS=1 ./shardchain_tests
//   --gtest_filter='StateVectors.*'

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "state/statedb.h"
#include "types/address.h"

namespace shardchain {
namespace {

#ifndef SHARDCHAIN_TEST_VECTOR_DIR
#error "SHARDCHAIN_TEST_VECTOR_DIR must point at tests/vectors"
#endif

Address VecAddr(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[19] = static_cast<uint8_t>(n * 131);
  return a;
}

/// Runs scenario `k`, collecting the root hex at each checkpoint.
/// Every input is a literal or drawn from a fixed-seed Rng, so the
/// byte stream can never drift.
std::vector<std::string> ScenarioRoots(int k) {
  std::vector<std::string> roots;
  StateDB db;
  auto checkpoint = [&] { roots.push_back(db.StateRoot().ToHex()); };
  switch (k) {
    case 0: {
      // Degenerate: the empty state, then a single empty account.
      checkpoint();
      db.GetOrCreate(VecAddr(0));
      checkpoint();
      break;
    }
    case 1: {
      // A handful of plain balance accounts.
      for (uint64_t i = 0; i < 5; ++i) db.Mint(VecAddr(i), 1000 * (i + 1));
      checkpoint();
      EXPECT_TRUE(db.Transfer(VecAddr(4), VecAddr(0), 1234).ok()) << k;
      checkpoint();
      break;
    }
    case 2: {
      // Contract-shaped accounts: code, storage, nonces.
      for (uint64_t i = 0; i < 3; ++i) {
        Account& a = db.GetOrCreate(VecAddr(10 + i));
        a.balance = 77 * (i + 1);
        a.nonce = i;
        a.code = Bytes{0x01, 0x02, static_cast<uint8_t>(i)};
        for (uint64_t s = 0; s < 4; ++s) {
          a.storage[s] = static_cast<int64_t>(i * 100 + s);
        }
      }
      checkpoint();
      db.StorageSet(VecAddr(11), 2, -5);
      checkpoint();
      break;
    }
    case 3: {
      // Copy as revert point: after assigning the kept copy back, the
      // root must land on the pre-copy bytes, and writes made while a
      // copy is held and then dropped must pin too.
      for (uint64_t i = 0; i < 8; ++i) db.Mint(VecAddr(i), 50 + i);
      checkpoint();
      StateDB saved = db;
      db.Mint(VecAddr(3), 999);
      db.GetOrCreate(VecAddr(100)).nonce = 7;
      checkpoint();
      db = std::move(saved);
      checkpoint();
      {
        const StateDB kept = db;
        db.Mint(VecAddr(5), 11);
      }
      checkpoint();
      break;
    }
    default: {
      // Stress: 200 seeded accounts with mixed mutations and deletions
      // of storage slots, checkpointed every 50 ops.
      Rng rng(5555);
      for (int op = 0; op < 200; ++op) {
        const Address addr = VecAddr(rng.Next() % 60);
        switch (rng.UniformInt(4)) {
          case 0:
            db.Mint(addr, 1 + rng.UniformInt(10000));
            break;
          case 1:
            db.GetOrCreate(addr).nonce += 1;
            break;
          case 2:
            db.StorageSet(addr, rng.Next() % 16,
                          static_cast<int64_t>(rng.Next() % 512));
            break;
          default: {
            Account& a = db.GetOrCreate(addr);
            a.code.push_back(static_cast<uint8_t>(rng.Next()));
            break;
          }
        }
        if (op % 50 == 49) checkpoint();
      }
      break;
    }
  }
  return roots;
}

std::string StateVectorPath(int k) {
  return std::string(SHARDCHAIN_TEST_VECTOR_DIR) + "/state" +
         std::to_string(k) + ".hex";
}

void CheckScenario(int k) {
  const std::vector<std::string> roots = ScenarioRoots(k);
  if (testing::Test::HasFailure()) return;
  const std::string path = StateVectorPath(k);
  if (std::getenv("SHARDCHAIN_REGEN_VECTORS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const std::string& root : roots) out << root << "\n";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden vector " << path
                         << " (regenerate with SHARDCHAIN_REGEN_VECTORS=1)";
  for (size_t i = 0; i < roots.size(); ++i) {
    std::string expected;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, expected)))
        << path << " truncated at checkpoint " << i;
    EXPECT_EQ(roots[i], expected)
        << "state root bytes changed at checkpoint " << i << " of scenario "
        << k << " — a consensus-visible commitment moved";
  }
  std::string extra;
  EXPECT_FALSE(static_cast<bool>(std::getline(in, extra)))
      << path << " has more checkpoints than the scenario produced";
}

TEST(StateVectors, Scenario0EmptyAndSingleAccount) { CheckScenario(0); }
TEST(StateVectors, Scenario1PlainBalances) { CheckScenario(1); }
TEST(StateVectors, Scenario2ContractAccounts) { CheckScenario(2); }
TEST(StateVectors, Scenario3SnapshotRevertCommit) { CheckScenario(3); }
TEST(StateVectors, Scenario4SeededStress) { CheckScenario(4); }

}  // namespace
}  // namespace shardchain
