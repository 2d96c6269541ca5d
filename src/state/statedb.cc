#include "state/statedb.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace shardchain {

Hash256 Account::Digest(const Address& addr) const {
  Bytes buf;
  buf.reserve(64 + code.size() + storage.size() * 16);
  buf.insert(buf.end(), addr.bytes.begin(), addr.bytes.end());
  AppendUint64(&buf, balance);
  AppendUint64(&buf, nonce);
  AppendUint64(&buf, code.size());
  buf.insert(buf.end(), code.begin(), code.end());
  AppendUint64(&buf, storage.size());
  for (const auto& [key, value] : storage) {
    AppendUint64(&buf, key);
    AppendUint64(&buf, static_cast<uint64_t>(value));
  }
  return Sha256Digest(buf);
}

const Account* StateDB::Find(const Address& addr) const {
  return trie_.FindAccount(addr.bytes);
}

Amount StateDB::BalanceOf(const Address& addr) const {
  const Account* a = Find(addr);
  return a ? a->balance : 0;
}

uint64_t StateDB::NonceOf(const Address& addr) const {
  const Account* a = Find(addr);
  return a ? a->nonce : 0;
}

bool StateDB::IsContract(const Address& addr) const {
  const Account* a = Find(addr);
  return a != nullptr && a->IsContract();
}

Account& StateDB::GetOrCreate(const Address& addr) {
  return trie_.MutableAccount(addr.bytes);
}

void StateDB::Mint(const Address& addr, Amount amount) {
  GetOrCreate(addr).balance += amount;
}

Status StateDB::Transfer(const Address& from, const Address& to,
                         Amount amount) {
  Account& src = GetOrCreate(from);
  if (src.balance < amount) {
    return Status::FailedPrecondition("insufficient balance for transfer");
  }
  src.balance -= amount;
  GetOrCreate(to).balance += amount;
  return Status::OK();
}

Status StateDB::DeployContract(const Address& addr, Bytes code) {
  Account& a = GetOrCreate(addr);
  if (a.IsContract()) {
    return Status::AlreadyExists("contract already deployed at address");
  }
  a.code = std::move(code);
  return Status::OK();
}

int64_t StateDB::StorageGet(const Address& addr, uint64_t key) const {
  const Account* a = Find(addr);
  if (a == nullptr) return 0;
  auto it = a->storage.find(key);
  return it == a->storage.end() ? 0 : it->second;
}

void StateDB::StorageSet(const Address& addr, uint64_t key, int64_t value) {
  GetOrCreate(addr).storage[key] = value;
}

bool StateDB::EraseAccount(const Address& addr) {
  return trie_.Delete(addr.bytes);
}

void StateDB::ApplyAccount(const Address& addr, const Account& account) {
  GetOrCreate(addr) = account;
}

Hash256 StateDB::StateRoot(ThreadPool* pool) const {
  return trie_.RootHash(pool);
}

MerklePatriciaTrie::Proof StateDB::ProveAccount(const Address& addr) const {
  return trie_.Prove(addr.bytes);
}

Result<std::optional<Hash256>> StateDB::VerifyAccount(
    const Hash256& state_root, const Address& addr,
    const MerklePatriciaTrie::Proof& proof) {
  std::optional<Bytes> value;
  SHARDCHAIN_ASSIGN_OR_RETURN(
      value,
      MerklePatriciaTrie::VerifyProof(state_root, addr.bytes, proof));
  if (!value.has_value()) return std::optional<Hash256>(std::nullopt);
  if (value->size() != 32) {
    return Status::Corruption("account digest has wrong size");
  }
  Hash256 digest;
  std::copy(value->begin(), value->end(), digest.bytes.begin());
  return std::optional<Hash256>(digest);
}

std::vector<Address> StateDB::Addresses() const {
  std::vector<Address> out;
  out.reserve(trie_.Size());
  for (const auto& [key, value] : trie_.Entries()) {
    Address& addr = out.emplace_back();
    std::copy(key.begin(), key.end(), addr.bytes.begin());
  }
  return out;
}

}  // namespace shardchain
