#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/vrf.h"

namespace shardchain {
namespace {

// --------------------------- SHA-256 ----------------------------------
// Vectors from FIPS 180-4 / NIST CAVP.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'x');
  EXPECT_EQ(Sha256Digest(msg).ToHex(),
            Sha256Digest(msg.substr(0, 32) + msg.substr(32)).ToHex());
  // 55 and 56 bytes straddle the length-field boundary.
  EXPECT_NE(Sha256Digest(std::string(55, 'y')),
            Sha256Digest(std::string(56, 'y')));
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finalize(), Sha256Digest(msg)) << "split=" << split;
  }
}

TEST(Hash256Test, ZeroAndPrefix) {
  EXPECT_TRUE(Hash256::Zero().IsZero());
  EXPECT_FALSE(Sha256Digest("x").IsZero());
  Hash256 h;
  h.bytes[0] = 0x01;
  h.bytes[7] = 0xff;
  EXPECT_EQ(h.Prefix64(), 0x01000000000000ffULL);
}

TEST(Hash256Test, OrderingIsLexicographic) {
  Hash256 a;
  Hash256 b;
  b.bytes[31] = 1;
  EXPECT_LT(a, b);
  b = a;
  EXPECT_EQ(a, b);
}

TEST(Sha256Test, HashPairDependsOnOrder) {
  const Hash256 a = Sha256Digest("a");
  const Hash256 b = Sha256Digest("b");
  EXPECT_NE(HashPair(a, b), HashPair(b, a));
}

// ------------------------ Lamport signatures ---------------------------

TEST(KeysTest, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(1);
  const Hash256 msg = Sha256Digest("hello world");
  const Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(KeysTest, VerifyRejectsWrongMessage) {
  KeyPair kp = KeyPair::FromSeed(2);
  const Signature sig = kp.Sign(Sha256Digest("msg1"));
  EXPECT_FALSE(Verify(kp.public_key(), Sha256Digest("msg2"), sig));
}

TEST(KeysTest, VerifyRejectsTamperedSignature) {
  KeyPair kp = KeyPair::FromSeed(3);
  const Hash256 msg = Sha256Digest("payload");
  Signature sig = kp.Sign(msg);
  sig.preimages[17].bytes[0] ^= 0x01;
  EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
}

TEST(KeysTest, VerifyRejectsForeignKey) {
  KeyPair kp1 = KeyPair::FromSeed(4);
  KeyPair kp2 = KeyPair::FromSeed(5);
  const Hash256 msg = Sha256Digest("payload");
  EXPECT_FALSE(Verify(kp2.public_key(), msg, kp1.Sign(msg)));
}

TEST(KeysTest, FingerprintIsStableAndUnique) {
  KeyPair a = KeyPair::FromSeed(6);
  KeyPair b = KeyPair::FromSeed(7);
  EXPECT_EQ(a.public_key().Fingerprint(), a.public_key().Fingerprint());
  EXPECT_NE(a.public_key().Fingerprint(), b.public_key().Fingerprint());
}

/// Fingerprints pinned before 32-byte digests took their own SHA-NI
/// kernel: key generation hashes 512 preimages of 32 bytes each, so any
/// byte the kernel got wrong would move these.
TEST(KeysTest, FingerprintsArePinned) {
  const char* kPinned[] = {
      "6059d80c11f11b8cbc33c58a9182287f9f53cce71c5d8b6844dcce526b36477b",
      "da2aa719d72749a606b585b3d9b54fa3082f3bb221e7b0e6b7ec7394622c3de0",
      "952d755e08ac2549a5e5a5d0f378c7a10fc29b485eced8bc495a31e8706f0e59",
  };
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(KeyPair::FromSeed(seed).public_key().Fingerprint().ToHex(),
              kPinned[seed - 1])
        << "seed=" << seed;
  }
}

/// Verify hashes every revealed preimage: one flipped bit in the first,
/// a middle or the last preimage fails it, and so does a genuine
/// signature checked against another key.
TEST(KeysTest, VerifyRejectsOneBitFlipInFirstMiddleAndLastPreimage) {
  KeyPair kp = KeyPair::FromSeed(8);
  KeyPair other = KeyPair::FromSeed(9);
  const Hash256 msg = Sha256Digest("one bit");
  const Signature sig = kp.Sign(msg);
  ASSERT_TRUE(Verify(kp.public_key(), msg, sig));
  for (int i : {0, 127, 255}) {
    Signature flipped = sig;
    flipped.preimages[i].bytes[i % 32] ^= 0x01;
    EXPECT_FALSE(Verify(kp.public_key(), msg, flipped)) << "preimage=" << i;
  }
  EXPECT_FALSE(Verify(other.public_key(), msg, sig));
}

TEST(KeysTest, DigestBitExtraction) {
  Hash256 d;
  d.bytes[0] = 0b10000001;
  EXPECT_EQ(DigestBit(d, 0), 1);
  EXPECT_EQ(DigestBit(d, 1), 0);
  EXPECT_EQ(DigestBit(d, 7), 1);
  EXPECT_EQ(DigestBit(d, 8), 0);
}

// ------------------------------ VRF ------------------------------------

TEST(VrfTest, EvaluateVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed(10);
  const Hash256 seed = Sha256Digest("epoch-1");
  const VrfOutput out = VrfEvaluate(kp, seed);
  EXPECT_TRUE(VrfVerify(kp.public_key(), seed, out));
}

TEST(VrfTest, OutputIsDeterministicPerKeySeed) {
  KeyPair kp = KeyPair::FromSeed(11);
  const Hash256 seed = Sha256Digest("epoch-2");
  EXPECT_EQ(VrfEvaluate(kp, seed).value, VrfEvaluate(kp, seed).value);
}

TEST(VrfTest, DifferentSeedsDifferentValues) {
  KeyPair kp = KeyPair::FromSeed(12);
  EXPECT_NE(VrfEvaluate(kp, Sha256Digest("s1")).value,
            VrfEvaluate(kp, Sha256Digest("s2")).value);
}

TEST(VrfTest, VerifyRejectsWrongSeed) {
  KeyPair kp = KeyPair::FromSeed(13);
  const VrfOutput out = VrfEvaluate(kp, Sha256Digest("s1"));
  EXPECT_FALSE(VrfVerify(kp.public_key(), Sha256Digest("s2"), out));
}

TEST(VrfTest, VerifyRejectsTamperedValue) {
  KeyPair kp = KeyPair::FromSeed(14);
  const Hash256 seed = Sha256Digest("s");
  VrfOutput out = VrfEvaluate(kp, seed);
  out.value.bytes[0] ^= 0xff;
  EXPECT_FALSE(VrfVerify(kp.public_key(), seed, out));
}

TEST(VrfTest, TicketInUnitInterval) {
  KeyPair kp = KeyPair::FromSeed(15);
  for (int i = 0; i < 8; ++i) {
    const double t =
        VrfTicket(VrfEvaluate(kp, Sha256Digest(std::to_string(i))).value);
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 1.0);
  }
}

// ---------------------------- Merkle -----------------------------------

std::vector<Hash256> MakeLeaves(size_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256Digest("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_TRUE(tree.root().IsZero());
  EXPECT_EQ(MerkleRoot({}), Hash256::Zero());
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  const auto leaves = MakeLeaves(1);
  EXPECT_EQ(MerkleTree(leaves).root(), leaves[0]);
}

TEST(MerkleTest, RootMatchesStandaloneComputation) {
  for (size_t n : {2u, 3u, 4u, 5u, 8u, 13u}) {
    const auto leaves = MakeLeaves(n);
    EXPECT_EQ(MerkleTree(leaves).root(), MerkleRoot(leaves)) << "n=" << n;
  }
}

TEST(MerkleTest, RootChangesWhenLeafChanges) {
  auto leaves = MakeLeaves(6);
  const Hash256 before = MerkleRoot(leaves);
  leaves[3].bytes[0] ^= 1;
  EXPECT_NE(before, MerkleRoot(leaves));
}

class MerkleProofTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleProofTest, EveryLeafProves) {
  const size_t n = GetParam();
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  for (size_t i = 0; i < n; ++i) {
    const MerkleProof proof = tree.Prove(i);
    EXPECT_TRUE(MerkleVerify(leaves[i], proof, tree.root()))
        << "leaf " << i << " of " << n;
  }
}

TEST_P(MerkleProofTest, ProofFailsForWrongLeaf) {
  const size_t n = GetParam();
  if (n < 2) return;
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  const MerkleProof proof = tree.Prove(0);
  EXPECT_FALSE(MerkleVerify(leaves[1], proof, tree.root()));
}

TEST_P(MerkleProofTest, ProofFailsAgainstWrongRoot) {
  const size_t n = GetParam();
  const auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  Hash256 bad_root = tree.root();
  bad_root.bytes[31] ^= 1;
  EXPECT_FALSE(MerkleVerify(leaves[0], tree.Prove(0), bad_root));
}

INSTANTIATE_TEST_SUITE_P(TreeSizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 31));

}  // namespace
}  // namespace shardchain
