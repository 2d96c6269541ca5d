#include "chain/pipeline.h"

#include <exception>
#include <utility>

#include "parallel/async_worker.h"

namespace shardchain {

namespace {

/// A block finalized by the commit worker, awaiting its ledger append.
struct Prepared {
  Block block;
  StateDB post_state;
};

}  // namespace

BlockPipeline::BlockPipeline(Ledger* ledger, TxPool* pool,
                             PipelineConfig config)
    : ledger_(ledger), pool_(pool), config_(config) {}

// flowlint: deterministic-root — consensus entry point (DESIGN.md §14)
Result<PipelineResult> BlockPipeline::Run(const Address& miner, size_t count) {
  PipelineResult result;
  if (count == 0) return result;
  const ChainConfig& config = ledger_->config();

  // The selector/executor's working state. Each block's post-state is
  // handed to the commit worker as a copy: a root handle sharing every
  // node, so the producer's next writes copy their spines instead of
  // touching what the worker hashes (DESIGN.md §10, §14).
  StateDB exec_state = ledger_->tip_state();

  // Written only by the commit worker after initialization; read by the
  // producer only after WaitIdle (the worker's mutex orders both).
  std::vector<Prepared> prepared;
  prepared.reserve(count);
  Hash256 prev_hash = ledger_->tip_hash();
  const uint64_t start_height = ledger_->tip_number();

  {
    AsyncWorker committer(config_.max_queued_blocks);
    for (size_t round = 0; round < count; ++round) {
      std::vector<Transaction> candidates =
          pool_->TopByFee(config.max_txs_per_block);

      // Greedy inclusion — Ledger's packing rule, run against
      // exec_state in place.
      std::vector<Transaction> included;
      SHARDCHAIN_ASSIGN_OR_RETURN(
          included, Ledger::PackTransactions(std::move(candidates), miner,
                                             config, &exec_state));
      pool_->RemoveAll(included);

      Block block;
      block.header.number = start_height + round + 1;
      block.header.shard_id = ledger_->shard_id();
      block.header.miner = miner;
      // The simulator's convention (ShardingSystem::MineBlock):
      // timestamp = block number on the virtual clock.
      block.header.timestamp = block.header.number;
      block.transactions = std::move(included);
      result.txs_confirmed += block.transactions.size();

      // Commit stage: derive the root of the handed-off state, finalize
      // the header (FIFO chaining via worker-local prev_hash). Explicit
      // captures only — the closure owns its inputs (block, handed-off
      // state) by value and the worker-confined outputs by pointer
      // (§9 / tools/parlint). The root is hashed serially: this thread
      // runs beside the producer, and the system pool takes one
      // external caller at a time.
      committer.Submit([block = std::move(block), post = exec_state,
                        out = &prepared, prev = &prev_hash]() mutable {
        block.header.parent_hash = *prev;
        block.header.tx_root = block.ComputeTxRoot();
        block.header.state_root = post.StateRoot();
        *prev = block.header.Hash();
        out->push_back(Prepared{std::move(block), std::move(post)});
      });
    }
    try {
      committer.WaitIdle();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("pipeline commit stage failed: ") +
                              e.what());
    }
  }

  // Record the finished blocks in height order. Cheap: AppendExecuted
  // skips re-execution and root re-derivation.
  result.hashes.reserve(prepared.size());
  for (Prepared& p : prepared) {
    Hash256 hash;
    SHARDCHAIN_ASSIGN_OR_RETURN(
        hash, ledger_->AppendExecuted(p.block, std::move(p.post_state)));
    result.hashes.push_back(hash);
  }
  return result;
}

}  // namespace shardchain
