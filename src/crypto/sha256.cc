#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace shardchain {

namespace sha256_internal {

namespace {

alignas(16) constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr uint32_t kInitialState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                       0x1f83d9ab, 0x5be0cd19};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// Big-endian stores, written as one byte-swapped word so the digest
/// and length field do not cost a loop of byte shifts per hash.
template <typename Word>
void StoreBigEndian(uint8_t* out, Word v) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(Word) == 4) {
      v = __builtin_bswap32(v);
    } else {
      v = __builtin_bswap64(v);
    }
  }
  std::memcpy(out, &v, sizeof(v));
}

/// Appends the FIPS 180-4 §5.1.1 padding to the `len`-byte tail in
/// `block` (a 64-byte buffer) and compresses it: one block when the
/// tail leaves room for the 8-byte length, two otherwise.
void PadAndCompress(CompressFn compress, uint32_t state[8], uint8_t* block,
                    size_t len, uint64_t total_len) {
  block[len++] = 0x80;
  if (len > 56) {
    std::memset(block + len, 0, 64 - len);
    compress(state, block, 1);
    len = 0;
  }
  std::memset(block + len, 0, 56 - len);
  StoreBigEndian<uint64_t>(block + 56, total_len * 8);
  compress(state, block, 1);
}

Hash256 DigestOf(const uint32_t state[8]) {
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    StoreBigEndian<uint32_t>(out.bytes.data() + 4 * i, state[i]);
  }
  return out;
}

}  // namespace

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The target attributes enable the SHA extensions for these functions
// only, so the rest of the binary still runs on any x86-64 CPU.
#define SHARDCHAIN_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

namespace {

/// Byte-swaps each 32-bit lane: message words are big-endian.
SHARDCHAIN_SHA_NI_TARGET inline __m128i ByteSwapMask() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

/// The 64 rounds of one block on the two state vectors `sha256rnds2`
/// keeps, ABEF and CDGH (most significant lane first). `m` holds the
/// block's 16 message words, four per vector in load order; the
/// schedule extends them in place, four words per group. The caller
/// adds the input state afterwards.
SHARDCHAIN_SHA_NI_TARGET __attribute__((always_inline)) inline void
ShaNiRounds(__m128i& abef, __m128i& cdgh, __m128i m[4]) {
#pragma GCC unroll 16
  for (int j = 0; j < 16; ++j) {
    if (j >= 4) {
      const __m128i w7 = _mm_alignr_epi8(m[(j + 3) & 3], m[(j + 2) & 3], 4);
      m[j & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m[j & 3], m[(j + 1) & 3]), w7),
          m[(j + 3) & 3]);
    }
    const __m128i wk = _mm_add_epi32(
        m[j & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(
                      kRoundConstants + 4 * j)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  }
}

}  // namespace

SHARDCHAIN_SHA_NI_TARGET void CompressShaNi(uint32_t state[8],
                                            const uint8_t* data,
                                            size_t nblocks) {
  const __m128i byte_swap = ByteSwapMask();
  const __m128i dcba =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<__m128i*>(state)),
                        0xB1);  // lanes B A D C
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state + 4)),
      0x1B);  // lanes H G F E
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
    for (int j = 0; j < 4; ++j) {
      m[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
          byte_swap);
    }
    ShaNiRounds(abef, cdgh, m);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);  // lanes A B E F
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);  // lanes G H C D
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

SHARDCHAIN_SHA_NI_TARGET Hash256 Digest32ShaNi(const uint8_t* data) {
  // A 32-byte message pads to exactly one block whose second half is
  // fixed: word 8 is the 0x80 terminator, words 9-14 are zero and word
  // 15 is the bit length, 256. The state starts at the IV.
  const __m128i abef_iv = _mm_set_epi32(
      static_cast<int>(kInitialState[0]), static_cast<int>(kInitialState[1]),
      static_cast<int>(kInitialState[4]), static_cast<int>(kInitialState[5]));
  const __m128i cdgh_iv = _mm_set_epi32(
      static_cast<int>(kInitialState[2]), static_cast<int>(kInitialState[3]),
      static_cast<int>(kInitialState[6]), static_cast<int>(kInitialState[7]));
  const __m128i byte_swap = ByteSwapMask();
  __m128i m[4] = {
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)), byte_swap),
      _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)),
          byte_swap),
      _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u)),
      _mm_set_epi32(256, 0, 0, 0)};
  __m128i abef = abef_iv;
  __m128i cdgh = cdgh_iv;
  ShaNiRounds(abef, cdgh, m);
  abef = _mm_add_epi32(abef, abef_iv);
  cdgh = _mm_add_epi32(cdgh, cdgh_iv);

  // Reversing all 16 bytes of a vector reverses its lanes and
  // byte-swaps each word: ABEF becomes the big-endian bytes of A B E F
  // and CDGH those of C D G H; the digest is A B C D | E F G H.
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  const __m128i abef_be = _mm_shuffle_epi8(abef, reverse);
  const __m128i cdgh_be = _mm_shuffle_epi8(cdgh, reverse);
  Hash256 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.bytes.data()),
                   _mm_unpacklo_epi64(abef_be, cdgh_be));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.bytes.data() + 16),
                   _mm_unpackhi_epi64(abef_be, cdgh_be));
  return out;
}

#undef SHARDCHAIN_SHA_NI_TARGET
#endif  // __x86_64__

bool CpuHasShaNi() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
#else
  return false;
#endif
}

CompressFn SelectedCompress() {
  // Chosen once, on first use, so that hashing from another file's
  // static initializer cannot see an unset pointer. Both choices
  // produce the same bytes (DESIGN.md §7).
  static const CompressFn kCompress = [] {
#if defined(__x86_64__)
    if (CpuHasShaNi()) return &CompressShaNi;
#endif
    return &CompressScalar;
  }();
  return kCompress;
}

const char* SelectedCompressName() {
  return SelectedCompress() == &CompressScalar ? "scalar" : "sha-ni";
}

namespace {

/// Whether `Sha256Digest` hashes a 32-byte input with `Digest32ShaNi`:
/// exactly when the selected compression is the SHA-NI one.
bool Digest32OnShaNi() {
#if defined(__x86_64__)
  return SelectedCompress() == &CompressShaNi;
#else
  return false;
#endif
}

}  // namespace

const char* SelectedDigest32Name() {
  return Digest32OnShaNi() ? "sha-ni" : "scalar";
}

Hash256 DigestWith(CompressFn compress, const uint8_t* data, size_t len) {
  uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof(state));
  const size_t full = len / 64;
  if (full > 0) compress(state, data, full);
  uint8_t block[64];
  const size_t tail = len % 64;
  if (tail > 0) std::memcpy(block, data + full * 64, tail);
  PadAndCompress(compress, state, block, tail, len);
  return DigestOf(state);
}

}  // namespace sha256_internal

using sha256_internal::CompressFn;
using sha256_internal::SelectedCompress;

Sha256::Sha256() {
  std::memcpy(state_, sha256_internal::kInitialState, sizeof(state_));
}

void Sha256::Update(const uint8_t* data, size_t len) {
  const CompressFn compress = SelectedCompress();
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      compress(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    compress(state_, data, len / 64);
    data += len - len % 64;
    len %= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha256::Update(std::string_view data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

void Sha256::Update(const Bytes& data) { Update(data.data(), data.size()); }

Hash256 Sha256::Finalize() {
  sha256_internal::PadAndCompress(SelectedCompress(), state_, buffer_,
                                  buffer_len_, total_len_);
  return sha256_internal::DigestOf(state_);
}

Hash256 Sha256Digest(const uint8_t* data, size_t len) {
#if defined(__x86_64__)
  // Lamport keys, signatures and VRF proofs hash 32-byte preimages.
  if (len == 32 && sha256_internal::Digest32OnShaNi()) {
    return sha256_internal::Digest32ShaNi(data);
  }
#endif
  return sha256_internal::DigestWith(SelectedCompress(), data, len);
}

Hash256 Sha256Digest(std::string_view data) {
  return Sha256Digest(reinterpret_cast<const uint8_t*>(data.data()),
                      data.size());
}

Hash256 Sha256Digest(const Bytes& data) {
  return Sha256Digest(data.data(), data.size());
}

Hash256 HashPair(const Hash256& a, const Hash256& b) {
  uint8_t block[64];
  std::memcpy(block, a.bytes.data(), 32);
  std::memcpy(block + 32, b.bytes.data(), 32);
  return Sha256Digest(block, sizeof(block));
}

}  // namespace shardchain
