// Differential test of the two SHA-256 compression functions: the
// scalar rounds (fallback and oracle) and the SHA-NI rounds the
// library selects when the CPU has them, plus the one-block SHA-NI
// kernel for 32-byte inputs. All must produce the same bytes on every
// input, or the hardware a miner runs on would change consensus
// (DESIGN.md §7).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace shardchain {
namespace {

using sha256_internal::CompressFn;
using sha256_internal::CompressScalar;
using sha256_internal::CpuHasShaNi;
using sha256_internal::DigestWith;

std::string DigestHex(CompressFn compress, const std::string& msg) {
  return DigestWith(compress, reinterpret_cast<const uint8_t*>(msg.data()),
                    msg.size())
      .ToHex();
}

struct Vector {
  std::string message;
  const char* digest;
};

/// FIPS 180-4 examples, plus messages of 'a' at every length where the
/// padding changes shape: 55 (fits one block), 56 and 63 (spill into a
/// second), 64/65 (one full block), 119/120 (the same edges one block
/// later). The 'a'-run digests come from an independent implementation.
std::vector<Vector> KnownVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
      {std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(63, 'a'),
       "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(65, 'a'),
       "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {std::string(119, 'a'),
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {std::string(120, 'a'),
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t len) {
  std::vector<uint8_t> out(len);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

/// The SHA-NI compression, or nullptr where the CPU cannot run it.
CompressFn ShaNiIfSupported() {
#if defined(__x86_64__)
  if (CpuHasShaNi()) return &sha256_internal::CompressShaNi;
#endif
  return nullptr;
}

TEST(Sha256DispatchTest, ScalarMatchesKnownVectors) {
  for (const Vector& v : KnownVectors()) {
    EXPECT_EQ(DigestHex(&CompressScalar, v.message), v.digest)
        << "len=" << v.message.size();
  }
}

TEST(Sha256DispatchTest, ShaNiMatchesKnownVectors) {
  const CompressFn sha_ni = ShaNiIfSupported();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  for (const Vector& v : KnownVectors()) {
    EXPECT_EQ(DigestHex(sha_ni, v.message), v.digest)
        << "len=" << v.message.size();
  }
}

TEST(Sha256DispatchTest, ShaNiMatchesScalarOnMultiBlockCalls) {
  const CompressFn sha_ni = ShaNiIfSupported();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(0x5a5a);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t scalar_state[8];
    for (uint32_t& w : scalar_state) w = static_cast<uint32_t>(rng.Next());
    uint32_t ni_state[8];
    std::memcpy(ni_state, scalar_state, sizeof(ni_state));
    const size_t nblocks = static_cast<size_t>(rng.UniformRange(1, 9));
    const std::vector<uint8_t> data = RandomBytes(&rng, 64 * nblocks);
    CompressScalar(scalar_state, data.data(), nblocks);
    sha_ni(ni_state, data.data(), nblocks);
    ASSERT_EQ(0, std::memcmp(scalar_state, ni_state, sizeof(ni_state)))
        << "trial=" << trial << " nblocks=" << nblocks;
  }
}

/// 10k random messages of 0..1024 bytes: the dispatched incremental
/// hasher, fed through random Update split points, must equal the
/// scalar one-shot digest, and so must the SHA-NI one-shot digest when
/// the CPU has it.
TEST(Sha256DispatchTest, RandomSplitsMatchScalarOracle) {
  const CompressFn sha_ni = ShaNiIfSupported();
  Rng rng(0xd15ba7c4);
  for (int trial = 0; trial < 10000; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformRange(0, 1024));
    const std::vector<uint8_t> msg = RandomBytes(&rng, len);
    const Hash256 oracle = DigestWith(&CompressScalar, msg.data(), len);

    Sha256 h;
    size_t pos = 0;
    while (pos < len) {
      const size_t most = std::min<size_t>(len - pos, 200);
      const size_t take = static_cast<size_t>(
          rng.UniformRange(0, static_cast<int64_t>(most)));
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), oracle) << "trial=" << trial << " len=" << len;
    ASSERT_EQ(Sha256Digest(msg.data(), len), oracle) << "len=" << len;
    if (sha_ni != nullptr) {
      ASSERT_EQ(DigestWith(sha_ni, msg.data(), len), oracle)
          << "trial=" << trial << " len=" << len;
    }
  }
}

/// 32-byte inputs (Lamport preimages) take their own one-block kernel
/// on SHA-NI CPUs. Known answers first, through the library entry point
/// and the scalar oracle.
TEST(Sha256DispatchTest, Digest32MatchesKnownVectors) {
  std::vector<uint8_t> zeros(32, 0);
  std::vector<uint8_t> counting(32);
  for (size_t i = 0; i < counting.size(); ++i) {
    counting[i] = static_cast<uint8_t>(i);
  }
  const struct {
    const std::vector<uint8_t>& message;
    const char* digest;
  } vectors[] = {
      {zeros,
       "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"},
      {counting,
       "630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(Sha256Digest(v.message.data(), 32).ToHex(), v.digest);
    EXPECT_EQ(DigestWith(&CompressScalar, v.message.data(), 32).ToHex(),
              v.digest);
#if defined(__x86_64__)
    if (CpuHasShaNi()) {
      EXPECT_EQ(sha256_internal::Digest32ShaNi(v.message.data()).ToHex(),
                v.digest);
    }
#endif
  }
}

/// 100k random 32-byte inputs: the dispatched `Sha256Digest` equals the
/// scalar one-shot digest.
TEST(Sha256DispatchTest, Digest32DispatchedMatchesScalarOracle) {
  Rng rng(0x32b17e5);
  for (int trial = 0; trial < 100000; ++trial) {
    const std::vector<uint8_t> msg = RandomBytes(&rng, 32);
    ASSERT_EQ(Sha256Digest(msg.data(), 32),
              DigestWith(&CompressScalar, msg.data(), 32))
        << "trial=" << trial;
  }
}

/// The same 100k inputs straight through the SHA-NI kernel, so the
/// comparison holds even if the dispatch stopped selecting it.
TEST(Sha256DispatchTest, Digest32ShaNiMatchesScalarOracle) {
  if (ShaNiIfSupported() == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
#if defined(__x86_64__)
  Rng rng(0x32b17e5);
  for (int trial = 0; trial < 100000; ++trial) {
    const std::vector<uint8_t> msg = RandomBytes(&rng, 32);
    ASSERT_EQ(sha256_internal::Digest32ShaNi(msg.data()),
              DigestWith(&CompressScalar, msg.data(), 32))
        << "trial=" << trial;
  }
#endif
}

/// Prints the selected compression and the 32-byte path (ci/check.sh
/// reads both lines) and checks that each selection follows the CPU.
TEST(Sha256DispatchTest, ReportsSelectedCompression) {
  const std::string name = sha256_internal::SelectedCompressName();
  const std::string name32 = sha256_internal::SelectedDigest32Name();
  std::cout << "sha256 compression: " << name << std::endl;
  std::cout << "sha256 32-byte digest: " << name32 << std::endl;
  const CompressFn sha_ni = ShaNiIfSupported();
  EXPECT_EQ(name, sha_ni != nullptr ? "sha-ni" : "scalar");
  EXPECT_EQ(name32, name);
  EXPECT_EQ(sha256_internal::SelectedCompress(),
            sha_ni != nullptr ? sha_ni : &CompressScalar);
}

}  // namespace
}  // namespace shardchain
