#ifndef SHARDCHAIN_STATE_TRIE_H_
#define SHARDCHAIN_STATE_TRIE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/result.h"
#include "crypto/sha256.h"
#include "state/account.h"

namespace shardchain {

class ThreadPool;

/// \brief A persistent Merkle Patricia-style radix trie over hex
/// nibbles with structural sharing.
///
/// The authenticated key-value store behind account state, in the
/// spirit of Ethereum's state trie: every node's hash commits to its
/// subtree, the root hash commits to the whole mapping, and compact
/// Merkle proofs authenticate single entries (including proofs of
/// absence). Three node kinds, as in Ethereum:
///   - leaf: remaining key nibbles + value;
///   - extension: shared nibble run + one child;
///   - branch: 16 children + optional value at this exact key.
///
/// An entry is either a byte string (Put/Get) or, in a StateDB trie,
/// an Account (MutableAccount/FindAccount). An account entry's value
/// bytes are the account's digest, Account::Digest(address), derived
/// lazily at hashing time and kept in the node; it serializes exactly
/// like a byte entry holding those 32 bytes. A trie holds one kind of
/// entry, never both.
///
/// Nodes are held by `std::shared_ptr` and are written in place only
/// while this trie is their sole owner; an account lives inside its
/// leaf, so it is shared exactly as far as the leaf is. A write
/// reaching a node that another version shares copies it first, so
/// `Put`/`MutableAccount`/`Delete` copy at most the O(depth) spine to
/// the touched key and share every untouched subtree (copy-on-write).
/// Consequences, relied on by StateDB (DESIGN.md §10):
///   - copying a trie is O(1) and hashes nothing — the copy is a root
///     handle sharing the whole node graph, so snapshots are copies;
///   - cached subtree hashes on untouched nodes stay valid, so
///     RootHash() after k mutations re-hashes only the O(k·depth)
///     nodes written since;
///   - the root hash is a pure function of the key-value contents —
///     byte-identical to a rebuild-from-scratch trie holding the same
///     entries, whatever the mutation history.
///
/// Threading: structure (kind, path, value, account, children) is
/// never written on a node reachable from two versions, and a write or
/// lookup never reads a shared node's hash cache. The cache is written
/// by the first thread to hash the node. So one thread may hash a
/// version while another writes or reads a copy of it — BlockPipeline's
/// commit worker hashes the handed-off state while the producer keeps
/// executing on its own copy — but two threads must not hash versions
/// that share unhashed nodes at the same time. RootHash(pool) splits
/// one version's hashing over the pool by subtrie (DESIGN.md §9): the
/// subtries under one branch share no node, so each chunk writes only
/// its own nodes' caches.
///
/// Keys are arbitrary byte strings, walked a nibble at a time. The
/// empty trie hashes to Hash256::Zero().
class MerklePatriciaTrie {
 public:
  using Key = std::span<const uint8_t>;

  /// Inserts or overwrites `key` with `value`. At most O(depth) node
  /// copies; subtrees off the key path are shared, not cloned.
  void Put(Key key, Bytes value);

  /// The stored byte value, or nullopt.
  std::optional<Bytes> Get(Key key) const;

  /// The account stored at `key`, or nullptr.
  const Account* FindAccount(Key key) const;

  /// The account at `key`, created empty if absent, made private to
  /// this trie (copied if another version shares it) and with its
  /// spine's hashes invalidated. The reference stays valid until the
  /// next call that writes or copies this trie; writes through it after
  /// that are not seen by the hash cache.
  Account& MutableAccount(Key key);

  /// Removes `key`; returns true if it was present. O(depth) copies.
  bool Delete(Key key);

  bool Contains(Key key) const { return Get(key).has_value(); }

  /// Number of stored entries.
  size_t Size() const { return size_; }
  bool Empty() const { return size_ == 0; }

  /// Root commitment. O(dirty spine) — hashes are cached per node and
  /// only nodes written since the last RootHash() are re-hashed. With a
  /// pool, the stale subtries under the first branch that has any are
  /// hashed in parallel, one chunk per child; the bytes and the node
  /// caches are the serial walk's (`pool == nullptr`).
  Hash256 RootHash(ThreadPool* pool = nullptr) const;

  /// All (key, value) pairs in lexicographic key order (account
  /// entries carry an empty value).
  std::vector<std::pair<Bytes, Bytes>> Entries() const;

  // --- Authenticated reads -------------------------------------------

  /// \brief A proof node: the serialized bytes of one trie node on the
  /// path from the root to the key.
  struct ProofNode {
    Bytes encoded;
  };
  using Proof = std::vector<ProofNode>;

  /// Builds a Merkle proof for `key` (works for absent keys too: the
  /// proof then shows the divergence point).
  Proof Prove(Key key) const;

  /// Verifies a proof against a root hash. Returns the proven value
  /// (nullopt = proven absent), or an error if the proof is invalid or
  /// does not match the root.
  static Result<std::optional<Bytes>> VerifyProof(const Hash256& root,
                                                  Key key,
                                                  const Proof& proof);

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;

  struct Node {
    enum class Kind : uint8_t { kLeaf, kExtension, kBranch };
    Kind kind = Kind::kLeaf;

    // kLeaf: path = remaining nibbles, entry set.
    // kExtension: path = shared nibbles, children[0] used as the child.
    // kBranch: children[0..15], optional entry.
    std::vector<uint8_t> path;
    bool has_value = false;
    Bytes value;
    std::optional<Account> account;  ///< Account entries only.
    std::array<NodePtr, 16> children;

    // Derived on first hash, by the hashing thread: the subtree hash
    // and, for an account entry, the account digest.
    mutable Hash256 cached_hash;
    mutable Hash256 digest;
    mutable bool hash_valid = false;
  };

  /// Fresh node copying `src`'s fields (a leaf's account included) but
  /// *sharing* its children — the COW spine-copy primitive. The copy
  /// starts stale.
  static NodePtr ShallowCopy(const Node& src);
  /// Makes `*slot` writable: a node another version shares is replaced
  /// by a private shallow copy. Either way its hash goes stale.
  static Node& Own(NodePtr* slot);

  /// A key's nibbles, read in place from its bytes.
  class Nibbles {
   public:
    explicit Nibbles(Key key) : key_(key) {}
    size_t size() const { return 2 * key_.size(); }
    uint8_t operator[](size_t i) const {
      return i % 2 == 0 ? key_[i / 2] >> 4 : key_[i / 2] & 0x0f;
    }
    /// Nibbles [from, to) as a node path.
    std::vector<uint8_t> Slice(size_t from, size_t to) const;

   private:
    Key key_;
  };

  /// `prefix` holds the key nibbles leading to `node` (restored on
  /// return); account entries need it for their address. Sets *digest
  /// to the account entry's digest, if any.
  static Bytes Serialize(const Node& node, std::vector<uint8_t>* prefix,
                         Hash256* digest);
  static Hash256 HashOf(const Node& node, std::vector<uint8_t>* prefix);
  /// Walks to the entry slot for `nibbles`, owning every node on the
  /// way and splitting leaves/extensions as needed; returns the leaf
  /// or branch that holds (or now may hold) the entry.
  static Node& Upsert(NodePtr* slot, const Nibbles& nibbles);
  static const Node* Find(const Node* node, const Nibbles& nibbles);
  /// Functional delete; returns the (possibly shared, unchanged) new
  /// version root. Sets *removed when the key was present.
  static NodePtr Remove(const NodePtr& node, const Nibbles& nibbles,
                        size_t depth, bool* removed);
  /// Collapses single-child branches / chained extensions after delete.
  /// `node` must be freshly created (unshared); children may be shared.
  static NodePtr Normalize(NodePtr node);
  static void CollectEntries(const Node* node, std::vector<uint8_t>* prefix,
                             std::vector<std::pair<Bytes, Bytes>>* out);
  static void CollectProof(const Node* node, const Nibbles& nibbles,
                           Proof* proof);

  NodePtr root_;
  size_t size_ = 0;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_STATE_TRIE_H_
