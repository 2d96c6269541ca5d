#ifndef SHARDCHAIN_NET_NETWORK_H_
#define SHARDCHAIN_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/block.h"

namespace shardchain {

/// Node identifier within the simulated network.
using NodeId = uint32_t;

/// Shard reported for nodes the network has never seen. Registration
/// assigns real shards; `ShardOf` is total and returns this sentinel
/// instead of faulting on unknown nodes.
inline constexpr ShardId kUnassignedShard = ~ShardId{0};

/// Message categories, so experiments can attribute traffic. The
/// paper's "communication times" metric (Fig. 4) counts cross-shard
/// coordination messages; block/tx gossip inside a shard is the
/// baseline cost every scheme pays and is tracked separately.
enum class MsgKind : uint8_t {
  kTxGossip = 0,
  kBlockGossip = 1,
  kCrossShardQuery = 2,     ///< Validation needing foreign shard state.
  kCrossShardVote = 3,      ///< 2PC/BFT-style coordination votes.
  kLeaderStat = 4,          ///< Shard stats submitted to the leader.
  kLeaderBroadcast = 5,     ///< Leader's randomness/parameter broadcast.
  kGameGossip = 6,          ///< Per-iteration exchanges in Alg. 2/3.
};

/// Number of MsgKind values (counters are arrays indexed by kind).
inline constexpr size_t kMsgKindCount = 7;

const char* MsgKindName(MsgKind kind);

class FaultPlan;

/// \brief A simulated message-passing network with per-kind, per-shard
/// accounting.
///
/// Delivery is immediate and reliable (latency belongs to the
/// discrete-event layer); what the experiments need from this class is
/// *counting*: "communication times per shard" (Fig. 4b/4c) is
/// cross-shard message count divided by shard count.
///
/// With a FaultPlan attached, sends involving a crashed endpoint or
/// crossing an active partition are suppressed instead of counted —
/// the accounting then reflects the traffic that actually flows.
///
/// Besides each node's shard, the network keeps one member list per
/// shard (ascending NodeId, updated by Register/Unregister). Every
/// submitted transaction is multicast to its shard, so that walk costs
/// the shard's size, not the network's; the counts equal a filter over
/// all nodes (tests/network_members_test.cc).
class Network {
 public:
  Network() = default;

  /// Registers a node and its shard. Re-registering updates the shard
  /// (used after merging and epoch-boundary reassignment).
  void Register(NodeId node, ShardId shard);

  /// Removes a departed node: it stops appearing in Members() and its
  /// ShardOf reverts to kUnassignedShard. No-op for unknown nodes.
  void Unregister(NodeId node);

  /// Total: returns kUnassignedShard for nodes never registered.
  ShardId ShardOf(NodeId node) const;
  size_t NodeCount() const { return shard_of_.size(); }

  /// Nodes currently assigned to `shard`, ascending.
  std::vector<NodeId> Members(ShardId shard) const;

  /// Attaches a fault injector (non-owning; nullptr restores perfect
  /// delivery). `now` arguments below are evaluated against its crash
  /// and partition schedules.
  void SetFaultPlan(FaultPlan* faults) { faults_ = faults; }

  /// Records a point-to-point message. Returns false (and counts
  /// nothing) when the attached fault plan suppresses it.
  bool Send(NodeId from, NodeId to, MsgKind kind, SimTime now = 0.0);

  /// Records a broadcast from `from` to every other node (counted as
  /// N-1 messages, minus any the fault plan suppresses).
  void Broadcast(NodeId from, MsgKind kind, SimTime now = 0.0);

  /// Records a multicast to every node in `shard` other than `from`,
  /// walking only that shard's member list.
  void MulticastShard(NodeId from, ShardId shard, MsgKind kind,
                      SimTime now = 0.0);

  /// Messages suppressed by the fault plan so far.
  uint64_t SuppressedCount() const { return suppressed_; }

  /// Total messages of `kind`.
  uint64_t Count(MsgKind kind) const;

  /// Messages of `kind` that crossed a shard boundary.
  uint64_t CrossShardCount(MsgKind kind) const;

  /// All cross-shard coordination traffic (queries + votes + leader
  /// stats/broadcasts + game gossip) — the "communication times" of
  /// Fig. 4 — divided by `shard_count`.
  double CommunicationTimesPerShard(size_t shard_count) const;

  /// Total cross-shard coordination messages (see above), undivided.
  uint64_t CoordinationMessages() const;

  void ResetCounters();

 private:
  void Account(NodeId from, NodeId to, MsgKind kind);
  bool Suppressed(NodeId from, NodeId to, SimTime now);

  /// Drops `node` from `shard`'s member list (and the list once empty).
  void RemoveMember(ShardId shard, NodeId node);

  /// Ordered by NodeId so Broadcast walks the membership in one fixed
  /// order on every miner — delivery and accounting order must not
  /// depend on hash-bucket layout (Sec. IV-C determinism).
  std::map<NodeId, ShardId> shard_of_;
  /// Each shard's members, ascending by NodeId: the same nodes and
  /// order as filtering `shard_of_` by shard, kept in step by
  /// Register/Unregister so MulticastShard and Members walk one shard's
  /// nodes instead of the whole network. Shards with no members have no
  /// entry.
  std::map<ShardId, std::vector<NodeId>> members_;
  std::array<uint64_t, kMsgKindCount> total_{};
  std::array<uint64_t, kMsgKindCount> cross_shard_{};
  FaultPlan* faults_ = nullptr;
  uint64_t suppressed_ = 0;
};

}  // namespace shardchain

#endif  // SHARDCHAIN_NET_NETWORK_H_
