#ifndef SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
#define SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_

// The two SHA-256 compression functions behind `Sha256`, and the
// 32-byte SHA-NI kernel behind `Sha256Digest`, exposed for the
// differential test (tests/sha256_dispatch_test.cc), the
// scalar-vs-dispatched micro-benchmarks, and the CI dispatch check.
// Library code hashes through `Sha256`/`Sha256Digest` only.

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace shardchain::sha256_internal {

/// Compresses `nblocks` consecutive 64-byte blocks into `state`
/// (FIPS 180-4 §6.2.2). Both implementations are byte-identical.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t nblocks);

/// Portable rounds: the fallback and the differential oracle.
void CompressScalar(uint32_t state[8], const uint8_t* data, size_t nblocks);

#if defined(__x86_64__)
/// SHA-NI rounds (`sha256rnds2`/`msg1`/`msg2`). Only call when
/// `CpuHasShaNi()`; on other CPUs it raises SIGILL.
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t nblocks);

/// SHA-256 of exactly 32 bytes in one SHA-NI compression, with the IV,
/// padding and length as constants. `Sha256Digest` takes it for 32-byte
/// inputs when `SelectedCompress()` is `CompressShaNi`; the scalar side
/// is `DigestWith(CompressScalar, data, 32)`. Same CPU rule as above.
Hash256 Digest32ShaNi(const uint8_t* data);
#endif

/// Whether this CPU implements the SHA extensions (always false off
/// x86-64).
bool CpuHasShaNi();

/// The compression `Sha256` uses in this process, chosen once on first
/// use: SHA-NI when the CPU has it, scalar otherwise.
CompressFn SelectedCompress();

/// "sha-ni" or "scalar", naming `SelectedCompress()`.
const char* SelectedCompressName();

/// "sha-ni" or "scalar", naming the path `Sha256Digest` takes for a
/// 32-byte input.
const char* SelectedDigest32Name();

/// One-shot SHA-256 through an explicit compression function.
Hash256 DigestWith(CompressFn compress, const uint8_t* data, size_t len);

}  // namespace shardchain::sha256_internal

#endif  // SHARDCHAIN_CRYPTO_SHA256_INTERNAL_H_
