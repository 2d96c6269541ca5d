// Micro-benchmarks (google-benchmark) for the substrate primitives:
// hashing, signatures, Merkle trees, the contract VM, the transaction
// pool, and both game algorithms. These are not paper figures; they
// document the cost model of the library.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "contract/assembler.h"
#include "contract/registry.h"
#include "core/merging_game.h"
#include "core/selection_game.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/vrf.h"
#include "state/statedb.h"
#include "txpool/txpool.h"

namespace {

using namespace shardchain;

// Hashing benches come in scalar/dispatched pairs: `scalar` runs the
// portable compression, `dispatched` the one the library selected for
// this CPU (printed as the sha256_compression context line; the
// 32-byte path is the sha256_digest32 line).
void BM_Sha256(benchmark::State& state,
               sha256_internal::CompressFn compress) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  const auto* bytes = reinterpret_cast<const uint8_t*>(data.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sha256_internal::DigestWith(compress, bytes, data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256, scalar, &sha256_internal::CompressScalar)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_Sha256, dispatched, sha256_internal::SelectedCompress())
    ->Arg(64)
    ->Arg(1024)
    ->Arg(65536);

void BM_LamportSign(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  const Hash256 msg = Sha256Digest("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
}
BENCHMARK(BM_LamportSign);

/// `Verify` (crypto/keys.cc) through the portable compression: one
/// single-block scalar digest per revealed preimage.
bool VerifyScalar(const PublicKey& pk, const Hash256& message_digest,
                  const Signature& sig) {
  for (int i = 0; i < 256; ++i) {
    const Hash256& pre = sig.preimages[i];
    if (sha256_internal::DigestWith(&sha256_internal::CompressScalar,
                                    pre.bytes.data(), pre.bytes.size()) !=
        pk.hashes[i][DigestBit(message_digest, i)]) {
      return false;
    }
  }
  return true;
}

/// `scalar` times the portable rounds; `dispatched` times the library
/// `Verify` itself, i.e. the 32-byte kernel `Sha256Digest` selected.
void BM_LamportVerify(benchmark::State& state, bool scalar) {
  KeyPair kp = KeyPair::FromSeed(2);
  const Hash256 msg = Sha256Digest("message");
  const Signature sig = kp.Sign(msg);
  if (!VerifyScalar(kp.public_key(), msg, sig) ||
      !Verify(kp.public_key(), msg, sig)) {
    state.SkipWithError("a genuine signature did not verify");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scalar ? VerifyScalar(kp.public_key(), msg, sig)
               : Verify(kp.public_key(), msg, sig));
  }
}
BENCHMARK_CAPTURE(BM_LamportVerify, scalar, true);
BENCHMARK_CAPTURE(BM_LamportVerify, dispatched, false);

/// One 32-byte digest (a Lamport preimage), each input the previous
/// digest so the calls cannot overlap: `scalar` is the portable
/// one-shot path, `dispatched` the library `Sha256Digest`.
void BM_Sha256Digest32(benchmark::State& state, bool scalar) {
  Hash256 h = Sha256Digest("seed");
  for (auto _ : state) {
    h = scalar ? sha256_internal::DigestWith(&sha256_internal::CompressScalar,
                                             h.bytes.data(), h.bytes.size())
               : Sha256Digest(h.bytes.data(), h.bytes.size());
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK_CAPTURE(BM_Sha256Digest32, scalar, true);
BENCHMARK_CAPTURE(BM_Sha256Digest32, dispatched, false);

/// Key generation: 512 random preimages and their 32-byte digests.
void BM_LamportKeygen(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyPair::FromSeed(seed++));
  }
}
BENCHMARK(BM_LamportKeygen);

void BM_VrfEvaluate(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(3);
  const Hash256 seed = Sha256Digest("epoch");
  for (auto _ : state) {
    benchmark::DoNotOptimize(VrfEvaluate(kp, seed));
  }
}
BENCHMARK(BM_VrfEvaluate);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256Digest("leaf" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleRoot(leaves));
  }
}
BENCHMARK(BM_MerkleRoot)->Arg(10)->Arg(100)->Arg(1000);

void BM_VmConditionalTransfer(benchmark::State& state) {
  StateDB db;
  Address recipient;
  recipient.bytes.fill(2);
  const ContractProgram program =
      contracts::ConditionalTransfer(recipient, 1u << 30);
  Address caller;
  caller.bytes.fill(1);
  db.Mint(caller, ~uint64_t{0} >> 1);
  CallContext ctx;
  ctx.contract = Address::ForContract(caller, 0);
  ctx.caller = caller;
  ctx.call_value = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Vm::Execute(program, ctx, &db));
  }
}
BENCHMARK(BM_VmConditionalTransfer);

void BM_TxPoolAddRemove(benchmark::State& state) {
  Rng rng(4);
  std::vector<Transaction> txs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    Transaction tx;
    tx.fee = rng.UniformRange(1, 1000);
    tx.nonce = static_cast<uint64_t>(i);
    txs.push_back(tx);
  }
  for (auto _ : state) {
    TxPool pool;
    for (const auto& tx : txs) benchmark::DoNotOptimize(pool.Add(tx).ok());
    benchmark::DoNotOptimize(pool.TopByFee(10));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TxPoolAddRemove)->Arg(100)->Arg(1000);

void BM_SelectionGame(benchmark::State& state) {
  Rng fee_rng(5);
  std::vector<Amount> fees;
  for (int64_t i = 0; i < state.range(0); ++i) {
    fees.push_back(fee_rng.Binomial(200, 0.5) + 1);
  }
  const size_t miners = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    Rng rng(6);
    benchmark::DoNotOptimize(RunSelectionGame(fees, miners, {10, 1000}, &rng));
  }
}
BENCHMARK(BM_SelectionGame)->Args({200, 9})->Args({1000, 50});

void BM_MergingGame(benchmark::State& state) {
  Rng size_rng(7);
  std::vector<uint64_t> sizes;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sizes.push_back(static_cast<uint64_t>(size_rng.UniformRange(1, 9)));
  }
  MergingGameConfig config;
  config.min_shard_size = 20;
  config.subslots = 16;
  config.max_slots = 100;
  for (auto _ : state) {
    Rng rng(8);
    benchmark::DoNotOptimize(RunOneTimeMerge(sizes, config, &rng));
  }
}
BENCHMARK(BM_MergingGame)->Arg(8)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_compression",
                              sha256_internal::SelectedCompressName());
  benchmark::AddCustomContext("sha256_digest32",
                              sha256_internal::SelectedDigest32Name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
