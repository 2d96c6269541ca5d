// Randomized differential tests for the incremental authenticated
// state layer (DESIGN.md §10).
//
// The copy-on-write MerklePatriciaTrie and the StateDB built on it are
// driven through long seeded Put/Delete and copy/restore/drop
// sequences against deliberately naive reference models:
//
//   - trie  vs  std::map<Bytes, Bytes> + a rebuild-from-scratch trie
//     (equal contents, equal root bytes, valid proofs for present and
//     absent keys at every checkpoint);
//   - StateDB vs a plain account map whose snapshots are full copies
//     (equal balances/nonces/storage, a root byte-identical to a
//     from-scratch StateDB rebuilt from the model, valid account
//     proofs).
//
// Any divergence between the O(dirty·depth) incremental path and the
// O(n) rebuild — a stale cached hash, a write leaking into a kept
// copy, a COW node aliased across versions — fails here. The suites
// run under the ASan/UBSan and (via the shardchain_tests binary)
// release CI legs.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "state/statedb.h"
#include "state/trie.h"
#include "types/address.h"

namespace shardchain {
namespace {

// ------------------------------ Trie ----------------------------------

Bytes KeyFor(uint64_t n) {
  // Mix of short and long keys so leaf/extension/branch splits and
  // collapses all occur; low entropy in the first byte forces shared
  // prefixes (extension nodes).
  Bytes key;
  key.push_back(static_cast<uint8_t>(n % 7));
  key.push_back(static_cast<uint8_t>(n % 13));
  if (n % 3 != 0) key.push_back(static_cast<uint8_t>(n >> 8));
  if (n % 5 == 0) key.push_back(static_cast<uint8_t>(n >> 16));
  return key;
}

Bytes ValueFor(uint64_t n) {
  Bytes value;
  for (int i = 0; i < 1 + static_cast<int>(n % 9); ++i) {
    value.push_back(static_cast<uint8_t>(n >> (i * 4)));
  }
  return value;
}

Hash256 RebuildRoot(const std::map<Bytes, Bytes>& model) {
  MerklePatriciaTrie scratch;
  for (const auto& [key, value] : model) scratch.Put(key, value);
  return scratch.RootHash();
}

void CheckTrieAgainstModel(const MerklePatriciaTrie& trie,
                           const std::map<Bytes, Bytes>& model,
                           uint64_t probe_seed) {
  ASSERT_EQ(trie.Size(), model.size());
  // Root bytes must equal a from-scratch rebuild of the same contents.
  const Hash256 root = trie.RootHash();
  ASSERT_EQ(root, RebuildRoot(model)) << "incremental root diverged";
  // Entries come back sorted and complete.
  const auto entries = trie.Entries();
  ASSERT_EQ(entries.size(), model.size());
  auto it = model.begin();
  for (const auto& [key, value] : entries) {
    ASSERT_EQ(key, it->first);
    ASSERT_EQ(value, it->second);
    ++it;
  }
  // Proofs for a sample of present keys and for probing absent keys.
  Rng probe(probe_seed);
  for (int i = 0; i < 8; ++i) {
    const Bytes key = KeyFor(probe.Next() % 4096);
    const auto expected = trie.Get(key);
    auto model_it = model.find(key);
    ASSERT_EQ(expected.has_value(), model_it != model.end());
    if (expected.has_value()) {
      ASSERT_EQ(*expected, model_it->second);
    }
    const auto proof = trie.Prove(key);
    auto verified = MerklePatriciaTrie::VerifyProof(root, key, proof);
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    ASSERT_EQ(*verified, expected) << "proof resolved the wrong value";
  }
}

TEST(StateDifferential, TrieMatchesMapThroughRandomOps) {
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    Rng rng(seed);
    MerklePatriciaTrie trie;
    std::map<Bytes, Bytes> model;
    for (int step = 0; step < 1200; ++step) {
      const uint64_t n = rng.Next() % 4096;
      const Bytes key = KeyFor(n);
      if (rng.UniformInt(100) < 70) {
        Bytes value = ValueFor(rng.Next());
        model[key] = value;
        trie.Put(key, std::move(value));
      } else {
        const bool removed = trie.Delete(key);
        ASSERT_EQ(removed, model.erase(key) > 0);
      }
      if (step % 150 == 149) {
        CheckTrieAgainstModel(trie, model, seed * 1000 + step);
      }
    }
    CheckTrieAgainstModel(trie, model, seed);
  }
}

TEST(StateDifferential, TrieCopiesAreIndependentVersions) {
  Rng rng(4242);
  MerklePatriciaTrie base;
  std::map<Bytes, Bytes> base_model;
  for (int i = 0; i < 300; ++i) {
    const Bytes key = KeyFor(rng.Next() % 2048);
    Bytes value = ValueFor(rng.Next());
    base_model[key] = value;
    base.Put(key, std::move(value));
  }
  const Hash256 base_root = base.RootHash();

  // An O(1) copy shares structure; divergent mutations on the copy
  // must never leak into the original (and vice versa).
  MerklePatriciaTrie fork = base;
  std::map<Bytes, Bytes> fork_model = base_model;
  for (int i = 0; i < 300; ++i) {
    const Bytes key = KeyFor(rng.Next() % 2048);
    if (rng.UniformInt(2) == 0) {
      Bytes value = ValueFor(rng.Next());
      fork_model[key] = value;
      fork.Put(key, std::move(value));
    } else {
      fork.Delete(key);
      fork_model.erase(key);
    }
  }
  EXPECT_EQ(base.RootHash(), base_root) << "fork mutated the original";
  CheckTrieAgainstModel(base, base_model, 1);
  CheckTrieAgainstModel(fork, fork_model, 2);

  // And a chain of versions each sharing with its predecessor.
  std::vector<MerklePatriciaTrie> versions;
  std::vector<Hash256> roots;
  MerklePatriciaTrie head = base;
  for (int v = 0; v < 10; ++v) {
    head.Put(KeyFor(9000 + static_cast<uint64_t>(v)), ValueFor(v));
    versions.push_back(head);
    roots.push_back(head.RootHash());
  }
  for (int v = 0; v < 10; ++v) {
    EXPECT_EQ(versions[static_cast<size_t>(v)].RootHash(), roots[static_cast<size_t>(v)]);
  }
}

// ----------------------------- StateDB --------------------------------

Address AddrFor(uint64_t n) {
  Address a;
  a.bytes[0] = static_cast<uint8_t>(n);
  a.bytes[1] = static_cast<uint8_t>(n >> 8);
  a.bytes[19] = static_cast<uint8_t>(n * 31);
  return a;
}

/// The naive reference: plain account data, snapshots as full copies —
/// exactly the semantics kept StateDB copies (root handles) must
/// reproduce.
struct RefAccount {
  Amount balance = 0;
  uint64_t nonce = 0;
  Bytes code;
  std::map<uint64_t, int64_t> storage;
};

struct RefState {
  std::map<Address, RefAccount> accounts;
  std::vector<std::map<Address, RefAccount>> snapshots;

  RefAccount& Get(const Address& a) { return accounts[a]; }
  size_t Snapshot() {
    snapshots.push_back(accounts);
    return snapshots.size() - 1;
  }
  void RevertTo(size_t id) {
    accounts = snapshots[id];
    snapshots.resize(id);
  }
  void Commit() { snapshots.pop_back(); }
};

/// Rebuild-from-scratch root: a fresh StateDB populated with the
/// model's contents, with no shared history with the incremental one.
Hash256 RebuildRoot(const RefState& ref) {
  StateDB scratch;
  for (const auto& [addr, account] : ref.accounts) {
    Account& a = scratch.GetOrCreate(addr);
    a.balance = account.balance;
    a.nonce = account.nonce;
    a.code = account.code;
    a.storage = account.storage;
  }
  return scratch.StateRoot();
}

void CheckStateAgainstModel(const StateDB& db, const RefState& ref) {
  ASSERT_EQ(db.AccountCount(), ref.accounts.size());
  for (const auto& [addr, account] : ref.accounts) {
    ASSERT_EQ(db.BalanceOf(addr), account.balance);
    ASSERT_EQ(db.NonceOf(addr), account.nonce);
    const Account* held = db.Find(addr);
    ASSERT_NE(held, nullptr);
    ASSERT_EQ(held->code, account.code);
    ASSERT_EQ(held->storage, account.storage);
  }
  const Hash256 root = db.StateRoot();
  ASSERT_EQ(root, RebuildRoot(ref))
      << "incremental state root diverged from scratch rebuild";
  // Account proofs: a present and an absent address.
  if (!ref.accounts.empty()) {
    const Address present = ref.accounts.begin()->first;
    auto verified = StateDB::VerifyAccount(root, present,
                                           db.ProveAccount(present));
    ASSERT_TRUE(verified.ok()) << verified.status().ToString();
    ASSERT_TRUE(verified->has_value());
    ASSERT_EQ(**verified, db.Find(present)->Digest(present));
  }
  Address absent;
  absent.bytes.fill(0xfe);
  auto absent_proof = StateDB::VerifyAccount(root, absent,
                                             db.ProveAccount(absent));
  ASSERT_TRUE(absent_proof.ok()) << absent_proof.status().ToString();
  ASSERT_FALSE(absent_proof->has_value());
}

TEST(StateDifferential, StateDBMatchesModelThroughSnapshotsAndReverts) {
  for (uint64_t seed : {7ull, 77ull, 777ull}) {
    Rng rng(seed);
    StateDB db;
    RefState ref;
    // Kept copies of db, oldest first: copy i mirrors ref's snapshot i.
    std::vector<StateDB> copies;
    for (int step = 0; step < 900; ++step) {
      const Address addr = AddrFor(rng.Next() % 64);
      switch (rng.UniformInt(10)) {
        case 0:
        case 1:
        case 2: {  // Mint.
          const Amount amount = 1 + rng.UniformInt(1000);
          db.Mint(addr, amount);
          ref.Get(addr).balance += amount;
          break;
        }
        case 3: {  // Transfer (may legitimately fail).
          const Address to = AddrFor(rng.Next() % 64);
          const Amount amount = 1 + rng.UniformInt(500);
          const bool ok = db.Transfer(addr, to, amount).ok();
          const bool ref_ok = ref.Get(addr).balance >= amount;
          ASSERT_EQ(ok, ref_ok);
          if (ok) {
            ref.Get(addr).balance -= amount;
            ref.Get(to).balance += amount;
          }
          break;
        }
        case 4: {  // Nonce bump through the mutable accessor.
          db.GetOrCreate(addr).nonce += 1;
          ref.Get(addr).nonce += 1;
          break;
        }
        case 5:
        case 6: {  // Contract storage write.
          const uint64_t key = rng.Next() % 16;
          const int64_t value = static_cast<int64_t>(rng.Next() % 1000);
          db.StorageSet(addr, key, value);
          ref.Get(addr).storage[key] = value;
          break;
        }
        case 7: {  // Copy.
          copies.push_back(db);
          ASSERT_EQ(copies.size() - 1, ref.Snapshot());
          break;
        }
        case 8: {  // Restore a random kept copy, dropping the later ones.
          if (copies.empty()) break;
          const size_t pick = rng.UniformInt(copies.size());
          db = std::move(copies[pick]);
          copies.resize(pick);
          ref.RevertTo(pick);
          break;
        }
        default: {  // Drop the newest copy, keeping db's writes.
          if (copies.empty()) break;
          copies.pop_back();
          ref.Commit();
          break;
        }
      }
      if (step % 90 == 89) CheckStateAgainstModel(db, ref);
    }
    CheckStateAgainstModel(db, ref);
  }
}

TEST(StateDifferential, CopiedStateDBForksIndependently) {
  StateDB base;
  for (uint64_t i = 0; i < 200; ++i) base.Mint(AddrFor(i), 1000 + i);
  const Hash256 base_root = base.StateRoot();

  StateDB fork = base;  // Shares the trie structurally.
  fork.Mint(AddrFor(3), 5);
  fork.GetOrCreate(AddrFor(7)).nonce = 9;
  EXPECT_NE(fork.StateRoot(), base_root);
  EXPECT_EQ(base.StateRoot(), base_root) << "fork wrote through the copy";

  // The fork's root equals a scratch rebuild of the fork's contents.
  RefState ref;
  for (uint64_t i = 0; i < 200; ++i) {
    ref.Get(AddrFor(i)).balance = 1000 + i;
  }
  ref.Get(AddrFor(3)).balance += 5;
  ref.Get(AddrFor(7)).nonce = 9;
  EXPECT_EQ(fork.StateRoot(), RebuildRoot(ref));
}

}  // namespace
}  // namespace shardchain
