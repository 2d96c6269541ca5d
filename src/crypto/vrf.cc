#include "crypto/vrf.h"

#include <cassert>

#include "parallel/parallel.h"

namespace shardchain {

namespace {

/// VrfEvaluate costs 130 SHA-256 compressions (seed digest plus the
/// 8 KiB proof) and VrfVerify 386 (Verify's 256 on top), so a handful
/// of identities per chunk already amortizes the dispatch.
constexpr size_t kVrfGrain = 4;

}  // namespace

Hash256 VrfSeedDigest(const Hash256& seed) {
  Sha256 h;
  h.Update("shardchain.vrf.v1");
  h.Update(seed.bytes.data(), seed.bytes.size());
  return h.Finalize();
}

VrfOutput VrfEvaluate(const KeyPair& key, const Hash256& seed) {
  VrfOutput out;
  out.proof = key.Sign(VrfSeedDigest(seed));
  Sha256 h;
  for (const Hash256& pre : out.proof.preimages) {
    h.Update(pre.bytes.data(), pre.bytes.size());
  }
  out.value = h.Finalize();
  return out;
}

bool VrfVerify(const PublicKey& pk, const Hash256& seed,
               const VrfOutput& out) {
  if (!Verify(pk, VrfSeedDigest(seed), out.proof)) return false;
  Sha256 h;
  for (const Hash256& pre : out.proof.preimages) {
    h.Update(pre.bytes.data(), pre.bytes.size());
  }
  return h.Finalize() == out.value;
}

std::vector<VrfOutput> VrfEvaluateBatch(const std::vector<const KeyPair*>& keys,
                                        const Hash256& seed,
                                        ThreadPool* pool) {
  std::vector<VrfOutput> out(keys.size());
  ParallelFor(pool, keys.size(), kVrfGrain, [&out, &keys, &seed](size_t i) {
    out[i] = VrfEvaluate(*keys[i], seed);
  });
  return out;
}

std::vector<uint8_t> VrfVerifyBatch(const std::vector<const PublicKey*>& pks,
                                    const Hash256& seed,
                                    const std::vector<const VrfOutput*>& outs,
                                    ThreadPool* pool) {
  assert(pks.size() == outs.size());
  std::vector<uint8_t> ok(pks.size(), 0);
  ParallelFor(pool, pks.size(), kVrfGrain,
              [&ok, &pks, &seed, &outs](size_t i) {
                ok[i] = VrfVerify(*pks[i], seed, *outs[i]) ? 1 : 0;
              });
  return ok;
}

double VrfTicket(const Hash256& value) {
  // Top 53 bits -> [0, 1), matching Rng::UniformDouble's precision.
  return static_cast<double>(value.Prefix64() >> 11) * 0x1.0p-53;
}

}  // namespace shardchain
