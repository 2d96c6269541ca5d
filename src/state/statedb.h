#ifndef SHARDCHAIN_STATE_STATEDB_H_
#define SHARDCHAIN_STATE_STATEDB_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "state/account.h"
#include "state/trie.h"
#include "types/address.h"
#include "types/transaction.h"

namespace shardchain {

/// \brief The world state: accounts in a persistent Merkle Patricia
/// trie, with an authenticated state root.
///
/// In the sharded system each shard's miners hold a StateDB restricted
/// to their shard's accounts; MaxShard miners hold the full state
/// (Sec. III-A). The trie is the only store (DESIGN.md §10): its leaves
/// hold the accounts, so a copy is a root handle — O(1), hashing
/// nothing, sharing every node and account with the source until one
/// side writes. A copy is also the revert point: keep one, write, and
/// assign it back to drop every write made since. Writes copy the
/// O(depth) spine to the touched account (or write in place where this
/// StateDB alone owns it), so StateRoot() re-hashes only what changed
/// since the previous call, and the root is byte-identical to a
/// from-scratch rebuild over the same contents, whatever the
/// mutation/copy/revert history (pinned by the differential tests and
/// the tests/vectors/state*.hex golden vectors).
class StateDB {
 public:
  /// Read access. Missing accounts read as empty (balance 0, nonce 0).
  const Account* Find(const Address& addr) const;
  Amount BalanceOf(const Address& addr) const;
  uint64_t NonceOf(const Address& addr) const;
  bool IsContract(const Address& addr) const;

  /// Mutable access, creating the account if absent. The sole mutation
  /// choke point: copy-on-write on the path to the account, so no copy
  /// sees the write. The reference is valid until the next call that
  /// writes or copies this StateDB.
  Account& GetOrCreate(const Address& addr);

  /// Credits `amount` to `addr` (minting; used for genesis funding and
  /// block/shard rewards).
  void Mint(const Address& addr, Amount amount);

  /// Moves `amount` from `from` to `to`. Fails with FailedPrecondition
  /// on insufficient balance. Does not touch nonces.
  Status Transfer(const Address& from, const Address& to, Amount amount);

  /// Deploys contract `code` at `addr`. Fails if an account with code
  /// already exists there.
  Status DeployContract(const Address& addr, Bytes code);

  /// Contract storage access (creates the account if needed).
  int64_t StorageGet(const Address& addr, uint64_t key) const;
  void StorageSet(const Address& addr, uint64_t key, int64_t value);

  /// Removes `addr` entirely (cross-shard migration: the account's
  /// authoritative home moved away). Returns false when absent.
  bool EraseAccount(const Address& addr);

  /// Overwrites `addr` with `account` wholesale (creating it if absent).
  void ApplyAccount(const Address& addr, const Account& account);

  /// Authenticated commitment over all accounts: the root of a Merkle
  /// Patricia trie keyed by address, with account digests as values.
  /// Hashes only the nodes and accounts written since the previous call,
  /// on `pool`'s threads when given (MerklePatriciaTrie::RootHash); the
  /// root is the same bytes either way.
  Hash256 StateRoot(ThreadPool* pool = nullptr) const;

  /// Merkle Patricia proof that `addr` has the returned digest under
  /// the current StateRoot (or is absent). Verify with VerifyAccount.
  MerklePatriciaTrie::Proof ProveAccount(const Address& addr) const;

  /// Verifies an account proof against a state root. Returns the
  /// proven account digest, or nullopt if the account is proven absent.
  static Result<std::optional<Hash256>> VerifyAccount(
      const Hash256& state_root, const Address& addr,
      const MerklePatriciaTrie::Proof& proof);

  size_t AccountCount() const { return trie_.Size(); }

  /// All addresses in deterministic (sorted) order.
  std::vector<Address> Addresses() const;

 private:
  MerklePatriciaTrie trie_;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_STATEDB_H_
