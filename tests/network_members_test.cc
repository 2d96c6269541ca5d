// Differential test of Network's per-shard member lists. The oracle is
// the accounting Network used before it kept those lists: one ordered
// node → shard map, filtered on every multicast and every Members()
// call. Random Register / re-Register / Unregister / MulticastShard /
// Broadcast sequences, with and without a FaultPlan (crashes and a
// partition), must leave both with the same counters and memberships.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/faults.h"
#include "net/network.h"

namespace shardchain {
namespace {

/// The full-map walk: membership and multicast scan every node.
class FullMapNetwork {
 public:
  explicit FullMapNetwork(const FaultPlan* faults) : faults_(faults) {}

  void Register(NodeId node, ShardId shard) { shard_of_[node] = shard; }
  void Unregister(NodeId node) { shard_of_.erase(node); }

  ShardId ShardOf(NodeId node) const {
    auto it = shard_of_.find(node);
    return it == shard_of_.end() ? kUnassignedShard : it->second;
  }
  size_t NodeCount() const { return shard_of_.size(); }

  std::vector<NodeId> Members(ShardId shard) const {
    std::vector<NodeId> out;
    for (const auto& [node, s] : shard_of_) {
      if (s == shard) out.push_back(node);
    }
    return out;
  }

  void Broadcast(NodeId from, MsgKind kind, SimTime now) {
    for (const auto& [node, shard] : shard_of_) {
      if (node != from && !Suppressed(from, node, now)) {
        Account(from, node, kind);
      }
    }
  }

  void MulticastShard(NodeId from, ShardId shard, MsgKind kind,
                      SimTime now) {
    for (const auto& [node, s] : shard_of_) {
      if (s == shard && node != from && !Suppressed(from, node, now)) {
        Account(from, node, kind);
      }
    }
  }

  uint64_t Count(MsgKind kind) const {
    return total_[static_cast<size_t>(kind)];
  }
  uint64_t CrossShardCount(MsgKind kind) const {
    return cross_shard_[static_cast<size_t>(kind)];
  }
  uint64_t SuppressedCount() const { return suppressed_; }

 private:
  void Account(NodeId from, NodeId to, MsgKind kind) {
    const size_t k = static_cast<size_t>(kind);
    ++total_[k];
    if (ShardOf(from) != ShardOf(to)) ++cross_shard_[k];
  }

  bool Suppressed(NodeId from, NodeId to, SimTime now) {
    if (faults_ == nullptr) return false;
    if (faults_->IsCrashed(from, now) || faults_->IsCrashed(to, now) ||
        faults_->LinkCut(from, to, now)) {
      ++suppressed_;
      return true;
    }
    return false;
  }

  const FaultPlan* faults_;
  std::map<NodeId, ShardId> shard_of_;
  std::array<uint64_t, kMsgKindCount> total_{};
  std::array<uint64_t, kMsgKindCount> cross_shard_{};
  uint64_t suppressed_ = 0;
};

constexpr NodeId kNodes = 48;
// Shard ids drawn by the sequences: the MaxShard, a few ordinary
// shards, and the unassigned sentinel (a multicast to it reaches no
// one in either implementation).
constexpr std::array<ShardId, 6> kShards = {kMaxShardId, 1, 2, 3, 7,
                                            kUnassignedShard};

void ExpectSame(const Network& net, const FullMapNetwork& oracle,
                const std::string& where) {
  for (size_t k = 0; k < kMsgKindCount; ++k) {
    const MsgKind kind = static_cast<MsgKind>(k);
    ASSERT_EQ(net.Count(kind), oracle.Count(kind))
        << where << " kind=" << MsgKindName(kind);
    ASSERT_EQ(net.CrossShardCount(kind), oracle.CrossShardCount(kind))
        << where << " kind=" << MsgKindName(kind);
  }
  ASSERT_EQ(net.SuppressedCount(), oracle.SuppressedCount()) << where;
  ASSERT_EQ(net.NodeCount(), oracle.NodeCount()) << where;
  for (ShardId shard : kShards) {
    ASSERT_EQ(net.Members(shard), oracle.Members(shard))
        << where << " shard=" << shard;
  }
  for (NodeId node = 0; node < kNodes; ++node) {
    ASSERT_EQ(net.ShardOf(node), oracle.ShardOf(node))
        << where << " node=" << node;
  }
}

/// Runs one random sequence of `steps` operations against both.
void RunSequence(uint64_t seed, int steps, FaultPlan* faults) {
  Network net;
  net.SetFaultPlan(faults);
  FullMapNetwork oracle(faults);
  Rng rng(seed);
  auto pick_node = [&rng] {
    return static_cast<NodeId>(rng.UniformRange(0, kNodes - 1));
  };
  // The sentinel (last) is a multicast target only, never registered.
  auto pick_shard = [&rng](bool with_sentinel) {
    const auto last = static_cast<int64_t>(kShards.size()) -
                      (with_sentinel ? 1 : 2);
    return kShards[static_cast<size_t>(rng.UniformRange(0, last))];
  };
  for (int step = 0; step < steps; ++step) {
    const int64_t op = rng.UniformRange(0, 9);
    const SimTime now = rng.UniformDouble() * 20.0;
    const MsgKind kind = static_cast<MsgKind>(
        rng.UniformRange(0, static_cast<int64_t>(kMsgKindCount) - 1));
    if (op <= 3) {
      // Register: a new node or a move (re-register, also to its own
      // shard).
      const NodeId node = pick_node();
      const ShardId shard = pick_shard(false);
      net.Register(node, shard);
      oracle.Register(node, shard);
    } else if (op == 4) {
      const NodeId node = pick_node();  // May be unknown: a no-op.
      net.Unregister(node);
      oracle.Unregister(node);
    } else if (op <= 8) {
      // The sender may sit outside the shard or be unregistered, as the
      // user's tx gossip (sender 0) can be.
      const NodeId from = pick_node();
      const ShardId shard = pick_shard(true);
      net.MulticastShard(from, shard, kind, now);
      oracle.MulticastShard(from, shard, kind, now);
    } else {
      const NodeId from = pick_node();
      net.Broadcast(from, kind, now);
      oracle.Broadcast(from, kind, now);
    }
    ExpectSame(net, oracle,
               "seed=" + std::to_string(seed) + " step=" +
                   std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkMembersTest, MatchesFullMapWalkWithoutFaults) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunSequence(seed, 400, nullptr);
    if (HasFatalFailure()) return;
  }
}

TEST(NetworkMembersTest, MatchesFullMapWalkUnderCrashesAndPartition) {
  FaultConfig config;
  config.crashes = {{3, 2.0}, {11, 8.0}, {20, 0.0}, {41, 15.0}};
  config.partitions = {{5.0, 12.0, {0, 1, 2, 3, 4, 5, 6, 7, 30, 31}}};
  FaultPlan plan(config, 99);
  for (uint64_t seed = 101; seed <= 120; ++seed) {
    RunSequence(seed, 400, &plan);
    if (HasFatalFailure()) return;
  }
}

TEST(NetworkMembersTest, MembersStayAscendingAcrossMoves) {
  Network net;
  for (NodeId n : {9u, 2u, 7u, 4u}) net.Register(n, 1);
  EXPECT_EQ(net.Members(1), (std::vector<NodeId>{2, 4, 7, 9}));
  net.Register(4, 2);
  net.Register(4, 1);  // Back again: re-inserted in order.
  net.Unregister(7);
  EXPECT_EQ(net.Members(1), (std::vector<NodeId>{2, 4, 9}));
  EXPECT_EQ(net.Members(2), std::vector<NodeId>{});
  for (NodeId n : {2u, 4u, 9u}) net.Unregister(n);
  EXPECT_EQ(net.Members(1), std::vector<NodeId>{});
  EXPECT_EQ(net.NodeCount(), 0u);
}

}  // namespace
}  // namespace shardchain
