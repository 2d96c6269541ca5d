#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "net/faults.h"

namespace shardchain {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kTxGossip:
      return "TxGossip";
    case MsgKind::kBlockGossip:
      return "BlockGossip";
    case MsgKind::kCrossShardQuery:
      return "CrossShardQuery";
    case MsgKind::kCrossShardVote:
      return "CrossShardVote";
    case MsgKind::kLeaderStat:
      return "LeaderStat";
    case MsgKind::kLeaderBroadcast:
      return "LeaderBroadcast";
    case MsgKind::kGameGossip:
      return "GameGossip";
  }
  return "Unknown";
}

void Network::Register(NodeId node, ShardId shard) {
  auto [it, inserted] = shard_of_.try_emplace(node, shard);
  if (!inserted) {
    if (it->second == shard) return;
    RemoveMember(it->second, node);
    it->second = shard;
  }
  std::vector<NodeId>& list = members_[shard];
  list.insert(std::lower_bound(list.begin(), list.end(), node), node);
}

void Network::Unregister(NodeId node) {
  auto it = shard_of_.find(node);
  if (it == shard_of_.end()) return;
  RemoveMember(it->second, node);
  shard_of_.erase(it);
}

void Network::RemoveMember(ShardId shard, NodeId node) {
  auto it = members_.find(shard);
  assert(it != members_.end());
  std::vector<NodeId>& list = it->second;
  list.erase(std::lower_bound(list.begin(), list.end(), node));
  if (list.empty()) members_.erase(it);
}

ShardId Network::ShardOf(NodeId node) const {
  auto it = shard_of_.find(node);
  return it == shard_of_.end() ? kUnassignedShard : it->second;
}

std::vector<NodeId> Network::Members(ShardId shard) const {
  auto it = members_.find(shard);
  return it == members_.end() ? std::vector<NodeId>{} : it->second;
}

void Network::Account(NodeId from, NodeId to, MsgKind kind) {
  const size_t k = static_cast<size_t>(kind);
  ++total_[k];
  if (ShardOf(from) != ShardOf(to)) ++cross_shard_[k];
}

bool Network::Suppressed(NodeId from, NodeId to, SimTime now) {
  if (faults_ == nullptr) return false;
  if (faults_->IsCrashed(from, now) || faults_->IsCrashed(to, now) ||
      faults_->LinkCut(from, to, now)) {
    ++suppressed_;
    return true;
  }
  return false;
}

bool Network::Send(NodeId from, NodeId to, MsgKind kind, SimTime now) {
  if (Suppressed(from, to, now)) return false;
  Account(from, to, kind);
  return true;
}

void Network::Broadcast(NodeId from, MsgKind kind, SimTime now) {
  for (const auto& [node, shard] : shard_of_) {
    if (node != from && !Suppressed(from, node, now)) {
      Account(from, node, kind);
    }
  }
}

void Network::MulticastShard(NodeId from, ShardId shard, MsgKind kind,
                             SimTime now) {
  auto it = members_.find(shard);
  if (it == members_.end()) return;
  // Every target is in `shard`, so one comparison decides whether the
  // whole multicast crosses a shard boundary.
  const size_t k = static_cast<size_t>(kind);
  const bool cross = ShardOf(from) != shard;
  for (NodeId node : it->second) {
    if (node != from && !Suppressed(from, node, now)) {
      ++total_[k];
      if (cross) ++cross_shard_[k];
    }
  }
}

uint64_t Network::Count(MsgKind kind) const {
  return total_[static_cast<size_t>(kind)];
}

uint64_t Network::CrossShardCount(MsgKind kind) const {
  return cross_shard_[static_cast<size_t>(kind)];
}

uint64_t Network::CoordinationMessages() const {
  uint64_t sum = 0;
  for (MsgKind kind :
       {MsgKind::kCrossShardQuery, MsgKind::kCrossShardVote,
        MsgKind::kLeaderStat, MsgKind::kLeaderBroadcast,
        MsgKind::kGameGossip}) {
    sum += CrossShardCount(kind);
  }
  return sum;
}

double Network::CommunicationTimesPerShard(size_t shard_count) const {
  if (shard_count == 0) return 0.0;
  return static_cast<double>(CoordinationMessages()) /
         static_cast<double>(shard_count);
}

void Network::ResetCounters() {
  total_.fill(0);
  cross_shard_.fill(0);
}

}  // namespace shardchain
