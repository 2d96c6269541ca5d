#include "state/trie.h"

#include <algorithm>
#include <cassert>

#include "parallel/parallel.h"

namespace shardchain {

namespace {

/// How many leading nibbles of `path` match `key` from `depth` on.
template <typename Key>
size_t CommonPrefix(const std::vector<uint8_t>& path, const Key& key,
                    size_t depth) {
  size_t n = 0;
  while (n < path.size() && depth + n < key.size() &&
         path[n] == key[depth + n]) {
    ++n;
  }
  return n;
}

/// Whether the key suffix key[depth..] equals `path`.
template <typename Key>
bool SuffixEquals(const Key& key, size_t depth,
                  const std::vector<uint8_t>& path) {
  return key.size() - depth == path.size() &&
         CommonPrefix(path, key, depth) == path.size();
}

}  // namespace

// ---------------------------------------------------------------------
// Node basics
// ---------------------------------------------------------------------

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::ShallowCopy(const Node& src) {
  auto copy = std::make_shared<Node>();
  copy->kind = src.kind;
  copy->path = src.path;
  copy->has_value = src.has_value;
  copy->value = src.value;
  copy->account = src.account;
  copy->children = src.children;  // Pointer copies: subtrees are shared.
  return copy;
}

MerklePatriciaTrie::Node& MerklePatriciaTrie::Own(NodePtr* slot) {
  // use_count() == 1 means no other version can reach the node: every
  // version reaching it holds a pointer on the path from its root, and
  // copying a version bumps the root's count.
  if (slot->use_count() > 1) *slot = ShallowCopy(**slot);
  (*slot)->hash_valid = false;
  return **slot;
}

std::vector<uint8_t> MerklePatriciaTrie::Nibbles::Slice(size_t from,
                                                        size_t to) const {
  std::vector<uint8_t> out;
  out.reserve(to - from);
  for (size_t i = from; i < to; ++i) out.push_back((*this)[i]);
  return out;
}

// ---------------------------------------------------------------------
// Serialization & hashing
// ---------------------------------------------------------------------

namespace {

/// The address an account entry is keyed by: its full key nibbles,
/// `prefix` then `rest` (a leaf's path; a branch's path is empty).
Address EntryAddress(const std::vector<uint8_t>& prefix,
                     const std::vector<uint8_t>& rest) {
  Address addr;
  assert(prefix.size() + rest.size() == 2 * addr.bytes.size() &&
         "account keys are addresses");
  for (size_t i = 0; i < 2 * addr.bytes.size(); ++i) {
    const uint8_t nibble =
        i < prefix.size() ? prefix[i] : rest[i - prefix.size()];
    addr.bytes[i / 2] |= static_cast<uint8_t>(i % 2 == 0 ? nibble << 4 : nibble);
  }
  return addr;
}

/// The exact length Serialize writes for `node`, so the buffer is
/// allocated once.
template <typename Node>
size_t SerializedSize(const Node& node) {
  const size_t value = 8 + (node.account ? 32 : node.value.size());
  switch (node.kind) {
    case Node::Kind::kLeaf:
      return 1 + 4 + node.path.size() + value;
    case Node::Kind::kExtension:
      return 1 + 4 + node.path.size() + 32;
    case Node::Kind::kBranch:
      return 1 + 16 * 32 + 1 + value;
  }
  return 0;
}

}  // namespace

Bytes MerklePatriciaTrie::Serialize(const Node& node,
                                    std::vector<uint8_t>* prefix,
                                    Hash256* digest) {
  auto append_value = [&](Bytes* out) {
    if (!node.account) {
      AppendUint64(out, node.value.size());
      out->insert(out->end(), node.value.begin(), node.value.end());
      return;
    }
    *digest = node.hash_valid
                  ? node.digest
                  : node.account->Digest(EntryAddress(*prefix, node.path));
    AppendUint64(out, digest->bytes.size());
    out->insert(out->end(), digest->bytes.begin(), digest->bytes.end());
  };
  Bytes out;
  out.reserve(SerializedSize(node));
  out.push_back(static_cast<uint8_t>(node.kind));
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      AppendUint32(&out, static_cast<uint32_t>(node.path.size()));
      out.insert(out.end(), node.path.begin(), node.path.end());
      append_value(&out);
      break;
    }
    case Node::Kind::kExtension: {
      AppendUint32(&out, static_cast<uint32_t>(node.path.size()));
      out.insert(out.end(), node.path.begin(), node.path.end());
      prefix->insert(prefix->end(), node.path.begin(), node.path.end());
      const Hash256 child = node.children[0]
                                ? HashOf(*node.children[0], prefix)
                                : Hash256::Zero();
      prefix->resize(prefix->size() - node.path.size());
      out.insert(out.end(), child.bytes.begin(), child.bytes.end());
      break;
    }
    case Node::Kind::kBranch: {
      for (uint8_t i = 0; i < 16; ++i) {
        Hash256 h = Hash256::Zero();
        if (node.children[i]) {
          prefix->push_back(i);
          h = HashOf(*node.children[i], prefix);
          prefix->pop_back();
        }
        out.insert(out.end(), h.bytes.begin(), h.bytes.end());
      }
      out.push_back(node.has_value ? 1 : 0);
      append_value(&out);
      break;
    }
  }
  return out;
}

Hash256 MerklePatriciaTrie::HashOf(const Node& node,
                                   std::vector<uint8_t>* prefix) {
  if (node.hash_valid) return node.cached_hash;
  node.cached_hash = Sha256Digest(Serialize(node, prefix, &node.digest));
  node.hash_valid = true;
  return node.cached_hash;
}

Hash256 MerklePatriciaTrie::RootHash(ThreadPool* pool) const {
  if (!root_) return Hash256::Zero();
  // Descend the stale extensions to the first stale branch and hash its
  // stale children's subtries in parallel; HashOf below then encodes the
  // branch and its ancestors from their cached hashes.
  std::vector<uint8_t> prefix;
  const Node* node = root_.get();
  while (!node->hash_valid && node->kind == Node::Kind::kExtension &&
         node->children[0]) {
    prefix.insert(prefix.end(), node->path.begin(), node->path.end());
    node = node->children[0].get();
  }
  if (!node->hash_valid && node->kind == Node::Kind::kBranch) {
    // Chunk i writes only the caches of nodes under key prefix
    // `prefix ‖ i`: within one version a node sits under exactly one
    // prefix (§9 rule 2), and each chunk walks with its own prefix copy.
    const Node& branch = *node;
    ParallelFor(pool, 16, /*grain=*/1, [&branch, &prefix](size_t i) {
      const Node* child = branch.children[i].get();
      if (child == nullptr || child->hash_valid) return;
      std::vector<uint8_t> child_prefix = prefix;
      child_prefix.push_back(static_cast<uint8_t>(i));
      (void)HashOf(*child, &child_prefix);
    });
  }
  prefix.clear();
  return HashOf(*root_, &prefix);
}

// ---------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------

MerklePatriciaTrie::Node& MerklePatriciaTrie::Upsert(NodePtr* slot,
                                                     const Nibbles& nibbles) {
  size_t depth = 0;
  for (;;) {
    if (!*slot) {
      *slot = std::make_shared<Node>();
      (*slot)->kind = Node::Kind::kLeaf;
      (*slot)->path = nibbles.Slice(depth, nibbles.size());
      return **slot;
    }
    Node& node = Own(slot);
    if (node.kind == Node::Kind::kBranch) {
      if (depth == nibbles.size()) return node;
      slot = &node.children[nibbles[depth++]];
      continue;
    }
    const size_t cp = CommonPrefix(node.path, nibbles, depth);
    if (cp == node.path.size()) {
      if (node.kind == Node::Kind::kExtension) {
        depth += cp;
        slot = &node.children[0];
        continue;
      }
      if (depth + cp == nibbles.size()) return node;  // This leaf.
    }
    // The key leaves `node`'s path after cp nibbles: split there. A
    // branch takes the old node (trimmed, under its next nibble) and
    // the descent continues into it for the new key.
    auto branch = std::make_shared<Node>();
    branch->kind = Node::Kind::kBranch;
    NodePtr rest = std::move(*slot);
    if (cp == rest->path.size()) {
      // A leaf whose key ends here: its entry moves onto the branch.
      branch->has_value = true;
      branch->value = std::move(rest->value);
      branch->account = std::move(rest->account);
    } else {
      const uint8_t idx = rest->path[cp];
      rest->path.erase(rest->path.begin(),
                       rest->path.begin() + static_cast<ptrdiff_t>(cp + 1));
      branch->children[idx] =
          rest->kind == Node::Kind::kExtension && rest->path.empty()
              ? std::move(rest->children[0])
              : std::move(rest);
    }
    if (cp == 0) {
      *slot = std::move(branch);
    } else {
      auto ext = std::make_shared<Node>();
      ext->kind = Node::Kind::kExtension;
      ext->path = nibbles.Slice(depth, depth + cp);
      ext->children[0] = std::move(branch);
      *slot = std::move(ext);
      slot = &(*slot)->children[0];
      depth += cp;
    }
  }
}

void MerklePatriciaTrie::Put(Key key, Bytes value) {
  Node& node = Upsert(&root_, Nibbles(key));
  if (!node.has_value) {
    node.has_value = true;
    ++size_;
  }
  node.value = std::move(value);
}

Account& MerklePatriciaTrie::MutableAccount(Key key) {
  Node& node = Upsert(&root_, Nibbles(key));
  if (!node.has_value) {
    node.has_value = true;
    ++size_;
  }
  if (!node.account) node.account.emplace();
  return *node.account;
}

// ---------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------

const MerklePatriciaTrie::Node* MerklePatriciaTrie::Find(
    const Node* node, const Nibbles& nibbles) {
  size_t depth = 0;
  while (node != nullptr) {
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return SuffixEquals(nibbles, depth, node->path) ? node : nullptr;
      case Node::Kind::kExtension: {
        const size_t cp = CommonPrefix(node->path, nibbles, depth);
        if (cp != node->path.size()) return nullptr;
        depth += cp;
        node = node->children[0].get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) {
          return node->has_value ? node : nullptr;
        }
        node = node->children[nibbles[depth]].get();
        ++depth;
        break;
      }
    }
  }
  return nullptr;
}

std::optional<Bytes> MerklePatriciaTrie::Get(Key key) const {
  const Node* node = Find(root_.get(), Nibbles(key));
  if (node == nullptr) return std::nullopt;
  return node->value;
}

const Account* MerklePatriciaTrie::FindAccount(Key key) const {
  const Node* node = Find(root_.get(), Nibbles(key));
  return node == nullptr || !node->account ? nullptr : &*node->account;
}

// ---------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::Normalize(NodePtr node) {
  if (!node) return node;
  if (node->kind == Node::Kind::kExtension) {
    const Node* child = node->children[0].get();
    if (child == nullptr) return nullptr;
    if (child->kind == Node::Kind::kLeaf ||
        child->kind == Node::Kind::kExtension) {
      // ext(p) + leaf(q) => leaf(p+q); ext(p) + ext(q) => ext(p+q).
      // The child may be shared, so the merge builds a fresh node.
      NodePtr merged = ShallowCopy(*child);
      merged->path.insert(merged->path.begin(), node->path.begin(),
                          node->path.end());
      return merged;
    }
    return node;
  }
  if (node->kind == Node::Kind::kBranch) {
    int only_child = -1;
    int child_count = 0;
    for (int i = 0; i < 16; ++i) {
      if (node->children[i]) {
        ++child_count;
        only_child = i;
      }
    }
    if (child_count == 0 && !node->has_value) return nullptr;
    if (child_count == 0 && node->has_value) {
      auto leaf = std::make_shared<Node>();
      leaf->kind = Node::Kind::kLeaf;
      leaf->value = std::move(node->value);
      leaf->account = std::move(node->account);
      leaf->has_value = true;
      return leaf;
    }
    if (child_count == 1 && !node->has_value) {
      const NodePtr& child = node->children[only_child];
      switch (child->kind) {
        case Node::Kind::kLeaf:
        case Node::Kind::kExtension: {
          NodePtr merged = ShallowCopy(*child);
          merged->path.insert(merged->path.begin(),
                              static_cast<uint8_t>(only_child));
          return merged;
        }
        case Node::Kind::kBranch: {
          auto ext = std::make_shared<Node>();
          ext->kind = Node::Kind::kExtension;
          ext->path = {static_cast<uint8_t>(only_child)};
          ext->children[0] = child;
          return ext;
        }
      }
    }
  }
  return node;
}

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::Remove(const NodePtr& node,
                                                     const Nibbles& nibbles,
                                                     size_t depth,
                                                     bool* removed) {
  if (!node) return node;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      if (SuffixEquals(nibbles, depth, node->path)) {
        *removed = true;
        return nullptr;
      }
      return node;
    }
    case Node::Kind::kExtension: {
      const size_t cp = CommonPrefix(node->path, nibbles, depth);
      if (cp != node->path.size()) return node;
      NodePtr child = Remove(node->children[0], nibbles, depth + cp, removed);
      if (!*removed) return node;
      NodePtr copy = ShallowCopy(*node);
      copy->children[0] = std::move(child);
      return Normalize(std::move(copy));
    }
    case Node::Kind::kBranch: {
      NodePtr copy;
      if (depth == nibbles.size()) {
        if (!node->has_value) return node;
        copy = ShallowCopy(*node);
        copy->has_value = false;
        copy->value.clear();
        copy->account.reset();
        *removed = true;
      } else {
        const uint8_t idx = nibbles[depth];
        NodePtr child =
            Remove(node->children[idx], nibbles, depth + 1, removed);
        if (!*removed) return node;
        copy = ShallowCopy(*node);
        copy->children[idx] = std::move(child);
      }
      return Normalize(std::move(copy));
    }
  }
  return node;
}

bool MerklePatriciaTrie::Delete(Key key) {
  bool removed = false;
  root_ = Remove(root_, Nibbles(key), 0, &removed);
  if (removed) --size_;
  return removed;
}

// ---------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------

void MerklePatriciaTrie::CollectEntries(
    const Node* node, std::vector<uint8_t>* prefix,
    std::vector<std::pair<Bytes, Bytes>>* out) {
  if (node == nullptr) return;
  auto emit = [&](const Bytes& value) {
    assert(prefix->size() % 2 == 0 && "keys are whole bytes");
    Bytes key;
    key.reserve(prefix->size() / 2);
    for (size_t i = 0; i + 1 < prefix->size(); i += 2) {
      key.push_back(
          static_cast<uint8_t>(((*prefix)[i] << 4) | (*prefix)[i + 1]));
    }
    out->emplace_back(std::move(key), value);
  };
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      prefix->insert(prefix->end(), node->path.begin(), node->path.end());
      emit(node->value);
      prefix->resize(prefix->size() - node->path.size());
      break;
    }
    case Node::Kind::kExtension: {
      prefix->insert(prefix->end(), node->path.begin(), node->path.end());
      CollectEntries(node->children[0].get(), prefix, out);
      prefix->resize(prefix->size() - node->path.size());
      break;
    }
    case Node::Kind::kBranch: {
      if (node->has_value) emit(node->value);
      for (uint8_t i = 0; i < 16; ++i) {
        if (!node->children[i]) continue;
        prefix->push_back(i);
        CollectEntries(node->children[i].get(), prefix, out);
        prefix->pop_back();
      }
      break;
    }
  }
}

std::vector<std::pair<Bytes, Bytes>> MerklePatriciaTrie::Entries() const {
  std::vector<std::pair<Bytes, Bytes>> out;
  out.reserve(size_);
  std::vector<uint8_t> prefix;
  CollectEntries(root_.get(), &prefix, &out);
  return out;
}

// ---------------------------------------------------------------------
// Proofs
// ---------------------------------------------------------------------

void MerklePatriciaTrie::CollectProof(const Node* node,
                                      const Nibbles& nibbles, Proof* proof) {
  size_t depth = 0;
  Hash256 digest;
  while (node != nullptr) {
    std::vector<uint8_t> prefix = nibbles.Slice(0, depth);
    proof->push_back(ProofNode{Serialize(*node, &prefix, &digest)});
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return;
      case Node::Kind::kExtension: {
        const size_t cp = CommonPrefix(node->path, nibbles, depth);
        if (cp != node->path.size()) return;  // Diverged: absence proof.
        depth += cp;
        node = node->children[0].get();
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) return;
        node = node->children[nibbles[depth]].get();
        ++depth;
        break;
      }
    }
  }
}

MerklePatriciaTrie::Proof MerklePatriciaTrie::Prove(Key key) const {
  Proof proof;
  CollectProof(root_.get(), Nibbles(key), &proof);
  return proof;
}

namespace {

/// Parsed view of a serialized trie node (for proof verification).
struct ParsedNode {
  uint8_t kind = 0;
  std::vector<uint8_t> path;
  Bytes value;
  bool has_value = false;
  std::array<Hash256, 16> child_hashes;
  Hash256 ext_child;
};

Result<ParsedNode> ParseNode(const Bytes& raw) {
  if (raw.empty()) return Status::Corruption("empty proof node");
  ParsedNode out;
  out.kind = raw[0];
  size_t pos = 1;
  auto need = [&](size_t n) { return pos + n <= raw.size(); };
  switch (out.kind) {
    case 0: {  // Leaf.
      if (!need(4)) return Status::Corruption("truncated leaf");
      uint32_t plen = 0;
      for (int i = 0; i < 4; ++i) plen = (plen << 8) | raw[pos++];
      if (!need(plen + 8)) return Status::Corruption("truncated leaf path");
      out.path.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                      raw.begin() + static_cast<ptrdiff_t>(pos + plen));
      pos += plen;
      const uint64_t vlen = ReadUint64(raw, pos);
      pos += 8;
      if (!need(vlen)) return Status::Corruption("truncated leaf value");
      out.value.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                       raw.begin() + static_cast<ptrdiff_t>(pos + vlen));
      out.has_value = true;
      break;
    }
    case 1: {  // Extension.
      if (!need(4)) return Status::Corruption("truncated extension");
      uint32_t plen = 0;
      for (int i = 0; i < 4; ++i) plen = (plen << 8) | raw[pos++];
      if (!need(plen + 32)) return Status::Corruption("truncated ext path");
      out.path.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                      raw.begin() + static_cast<ptrdiff_t>(pos + plen));
      pos += plen;
      std::copy(raw.begin() + static_cast<ptrdiff_t>(pos),
                raw.begin() + static_cast<ptrdiff_t>(pos + 32),
                out.ext_child.bytes.begin());
      break;
    }
    case 2: {  // Branch.
      if (!need(16 * 32 + 1 + 8)) return Status::Corruption("truncated branch");
      for (int c = 0; c < 16; ++c) {
        std::copy(raw.begin() + static_cast<ptrdiff_t>(pos),
                  raw.begin() + static_cast<ptrdiff_t>(pos + 32),
                  out.child_hashes[c].bytes.begin());
        pos += 32;
      }
      out.has_value = raw[pos++] != 0;
      const uint64_t vlen = ReadUint64(raw, pos);
      pos += 8;
      if (!need(vlen)) return Status::Corruption("truncated branch value");
      out.value.assign(raw.begin() + static_cast<ptrdiff_t>(pos),
                       raw.begin() + static_cast<ptrdiff_t>(pos + vlen));
      break;
    }
    default:
      return Status::Corruption("unknown proof node kind");
  }
  return out;
}

}  // namespace

Result<std::optional<Bytes>> MerklePatriciaTrie::VerifyProof(
    const Hash256& root, Key key, const Proof& proof) {
  const Nibbles nibbles(key);
  if (proof.empty()) {
    // Only the empty trie proves anything with an empty proof.
    if (root.IsZero()) return std::optional<Bytes>(std::nullopt);
    return Status::Corruption("empty proof for non-empty root");
  }

  Hash256 expected = root;
  size_t depth = 0;
  for (size_t i = 0; i < proof.size(); ++i) {
    if (Sha256Digest(proof[i].encoded) != expected) {
      return Status::Corruption("proof node hash mismatch");
    }
    ParsedNode node;
    SHARDCHAIN_ASSIGN_OR_RETURN(node, ParseNode(proof[i].encoded));
    const bool last = (i + 1 == proof.size());
    switch (node.kind) {
      case 0: {  // Leaf.
        if (!last) return Status::Corruption("leaf before end of proof");
        if (SuffixEquals(nibbles, depth, node.path)) {
          return std::optional<Bytes>(node.value);
        }
        return std::optional<Bytes>(std::nullopt);  // Proven absent.
      }
      case 1: {  // Extension.
        const size_t cp = CommonPrefix(node.path, nibbles, depth);
        if (cp != node.path.size()) {
          if (!last) return Status::Corruption("diverged mid-proof");
          return std::optional<Bytes>(std::nullopt);
        }
        depth += cp;
        if (last) return Status::Corruption("proof ends at extension");
        expected = node.ext_child;
        break;
      }
      case 2: {  // Branch.
        if (depth == nibbles.size()) {
          if (!last) return Status::Corruption("key ends before proof");
          if (node.has_value) return std::optional<Bytes>(node.value);
          return std::optional<Bytes>(std::nullopt);
        }
        const uint8_t idx = nibbles[depth];
        ++depth;
        if (node.child_hashes[idx].IsZero()) {
          if (!last) return Status::Corruption("absent child mid-proof");
          return std::optional<Bytes>(std::nullopt);  // Proven absent.
        }
        if (last) return Status::Corruption("proof ends inside branch");
        expected = node.child_hashes[idx];
        break;
      }
      default:
        return Status::Corruption("unknown node kind");
    }
  }
  return Status::Corruption("proof exhausted without resolution");
}

}  // namespace shardchain
