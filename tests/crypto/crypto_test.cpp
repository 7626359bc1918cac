// Tests for ChaCha20, Poly1305 and the ChaCha20-Poly1305 tag (against
// RFC 8439 vectors) and the Sealer envelope.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/mac.h"
#include "crypto/sealer.h"

namespace bf::crypto {
namespace {

Key256 rfcKey() {
  Key256 key{};
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2 test vector.
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  const auto block = chacha20Block(key, nonce, 1);
  const std::uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(block[i], expected[i]) << "byte " << i;
  }
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  // RFC 8439 section 2.4.2: the "sunscreen" plaintext.
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const std::string ct = chacha20Xor(plaintext, key, nonce, 1);
  const std::uint8_t expectedPrefix[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                           0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                           0xdd, 0x0d, 0x69, 0x81};
  ASSERT_GE(ct.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(ct[i]), expectedPrefix[i])
        << "byte " << i;
  }
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  const std::string msg = "attack at dawn";
  EXPECT_EQ(chacha20Xor(chacha20Xor(msg, key, nonce), key, nonce), msg);
}

TEST(ChaCha20, EmptyInput) {
  EXPECT_EQ(chacha20Xor("", rfcKey(), Nonce96{}), "");
}

TEST(ChaCha20, MultiBlockMessage) {
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  const std::string msg(300, 'q');  // spans 5 blocks
  const std::string ct = chacha20Xor(msg, key, nonce);
  EXPECT_EQ(ct.size(), msg.size());
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20Xor(ct, key, nonce), msg);
}

TEST(Sealer, RoundTrip) {
  Sealer sealer("org-secret");
  const std::string secret = "candidate evaluation: strong hire";
  const std::string envelope = sealer.seal(secret);
  EXPECT_TRUE(Sealer::isSealed(envelope));
  EXPECT_EQ(envelope.find(secret), std::string::npos);
  const auto back = sealer.unseal(envelope);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, secret);
}

TEST(Sealer, FreshNoncePerSeal) {
  Sealer sealer("org-secret");
  EXPECT_NE(sealer.seal("same text"), sealer.seal("same text"));
}

TEST(Sealer, DifferentSecretsCannotUnseal) {
  Sealer a("secret-a");
  Sealer b("secret-b");
  const std::string env = a.seal("payload");
  const auto wrong = b.unseal(env);
  // Stream cipher: unseal "succeeds" but yields garbage, never the
  // plaintext.
  ASSERT_TRUE(wrong.has_value());
  EXPECT_NE(*wrong, "payload");
}

TEST(Sealer, RejectsMalformedEnvelopes) {
  Sealer sealer("s");
  EXPECT_FALSE(sealer.unseal("not an envelope").has_value());
  EXPECT_FALSE(sealer.unseal("BFENC1:zz").has_value());
  EXPECT_FALSE(sealer.unseal("BFENC1:abcd:xyz!").has_value());
  EXPECT_FALSE(sealer.unseal("BFENC1:ab:cd").has_value());  // short nonce
}

TEST(Sealer, EnvelopeIsPrintable) {
  Sealer sealer("s");
  const std::string env = sealer.seal(std::string("\x00\x01\xff binary", 10));
  for (char c : env) {
    EXPECT_TRUE(std::isprint(static_cast<unsigned char>(c))) << env;
  }
}

TEST(Sealer, IsSealedPrefixOnly) {
  EXPECT_TRUE(Sealer::isSealed("BFENC1:whatever"));
  EXPECT_FALSE(Sealer::isSealed("BFENC2:whatever"));
  EXPECT_FALSE(Sealer::isSealed(""));
}

TEST(ChaCha20, CounterAdvancesPerBlock) {
  // Block 2 of a long message equals a direct encryption starting at
  // counter 2 (the keystream is deterministic per (key, nonce, counter)).
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  const std::string msg(128, 'z');
  const std::string whole = chacha20Xor(msg, key, nonce, 1);
  const std::string tail =
      chacha20Xor(std::string(64, 'z'), key, nonce, 2);
  EXPECT_EQ(whole.substr(64), tail);
}

TEST(ChaCha20, DifferentNoncesProduceUnrelatedKeystreams) {
  const Key256 key = rfcKey();
  Nonce96 a{}, b{};
  b[0] = 1;
  const std::string msg(64, 'q');
  EXPECT_NE(chacha20Xor(msg, key, a), chacha20Xor(msg, key, b));
}

TEST(ChaCha20, DifferentKeysProduceUnrelatedKeystreams) {
  Key256 a = rfcKey();
  Key256 b = rfcKey();
  b[31] ^= 1;
  const std::string msg(64, 'q');
  EXPECT_NE(chacha20Xor(msg, a, Nonce96{}), chacha20Xor(msg, b, Nonce96{}));
}

TEST(Sealer, EmptyPlaintextRoundTrips) {
  Sealer sealer("s");
  const auto back = sealer.unseal(sealer.seal(""));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "");
}

TEST(Sealer, LargePlaintextRoundTrips) {
  Sealer sealer("s");
  std::string big;
  for (int i = 0; i < 5000; ++i) big += "paragraph of content ";
  const auto back = sealer.unseal(sealer.seal(big));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, big);
}

TEST(Sealer, ManySealsUseDistinctNonces) {
  Sealer sealer("s");
  std::set<std::string> envelopes;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(envelopes.insert(sealer.seal("same")).second)
        << "nonce reuse at seal " << i;
  }
}

TEST(Sealer, SameSecretDifferentInstancesInteroperate) {
  Sealer a("shared-secret");
  Sealer b("shared-secret");
  const auto back = b.unseal(a.seal("cross-instance payload"));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "cross-instance payload");
}

TEST(Sealer, EnvelopeBytesAreStable) {
  // The key schedule is shared with state files (crypto::deriveKey); the
  // Sealer's domain must keep producing the same envelopes.
  Sealer sealer("org-secret");
  EXPECT_EQ(sealer.seal("confidential paragraph"),
            "BFENC1:010000000000000000000000:"
            "519d85cac065817b9a31ec79337431acb012850b8c80");
}

namespace {
Key256 macTestKey(std::uint8_t fill) {
  Key256 key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(fill + i);
  }
  return key;
}

std::string hex(const Tag128& tag) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : tag) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string unhex(std::string_view hexText) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hexText.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hexText.substr(i, 2)), nullptr, 16)));
  }
  return out;
}
}  // namespace

TEST(Poly1305, Rfc8439Vector) {
  // RFC 8439 section 2.5.2.
  Key256 key{};
  const std::string keyBytes = unhex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(keyBytes.begin(), keyBytes.end(), key.begin());
  EXPECT_EQ(hex(poly1305(key, "Cryptographic Forum Research Group")),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(ChaCha20Poly1305, Rfc8439AeadVector) {
  // RFC 8439 section 2.8.2: the ciphertext is ChaCha20 from counter 1 and
  // the tag covers the AAD and the ciphertext.
  Key256 key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  Nonce96 nonce{};
  const std::string nonceBytes = unhex("070000004041424344454647");
  std::copy(nonceBytes.begin(), nonceBytes.end(), nonce.begin());
  const std::string aad = unhex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const std::string ciphertext = chacha20Xor(plaintext, key, nonce);
  EXPECT_EQ(ciphertext,
            unhex("d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a7"
                  "36ee62d63dbea45e8ca9671282fafb69da92728b1a71de0a9e060b29"
                  "05d6a5b67ecd3b3692ddbd7f2d778b8c9803aee328091b58fab324e4"
                  "fad675945585808b4831d7bc3ff4def08e4b7a9de576d26586cec64b"
                  "6116"));
  EXPECT_EQ(hex(aeadTag(key, nonce, aad, ciphertext)),
            "1ae10b594f09e26a7e902ecbd0600691");
  // Empty AAD and message: only the length block is authenticated.
  EXPECT_EQ(hex(aeadTag(key, nonce, "", "")),
            "a0784d7a4716f3feb4f64e7f4b39bf04");
}

TEST(ChaCha20, InPlaceMatchesCopy) {
  const Key256 key = rfcKey();
  Nonce96 nonce{};
  nonce[0] = 0x11;
  std::string data(300, 'q');
  const std::string copied = chacha20Xor(data, key, nonce, 5);
  chacha20XorInPlace(data, key, nonce, 5);
  EXPECT_EQ(data, copied);
}

TEST(KeyedTag, DeterministicForSameKeyAndData) {
  const Key256 key = macTestKey(0x10);
  const Tag128 a = poly1305(key, "snapshot ciphertext");
  const Tag128 b = poly1305(key, "snapshot ciphertext");
  EXPECT_TRUE(tagEquals(a, b));
}

TEST(KeyedTag, DifferentKeysProduceDifferentTags) {
  const Tag128 a = poly1305(macTestKey(0x10), "snapshot ciphertext");
  const Tag128 b = poly1305(macTestKey(0x11), "snapshot ciphertext");
  EXPECT_FALSE(tagEquals(a, b));
}

TEST(KeyedTag, AnySingleBitFlipChangesTheTag) {
  // The tag defends encrypted state files against ChaCha20 malleability:
  // every 1-bit ciphertext change must be visible in the tag.
  const Key256 key = macTestKey(0x42);
  const std::string data = "BFSTATE envelope bytes under test 0123456789";
  const Tag128 clean = poly1305(key, data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(
          static_cast<unsigned char>(flipped[byte]) ^ (1u << bit));
      EXPECT_FALSE(tagEquals(poly1305(key, flipped), clean))
          << "tag blind to flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(KeyedTag, LengthAndPositionBound) {
  const Key256 key = macTestKey(0x07);
  // Moving a boundary byte between "prefix" and "suffix" must not collide.
  EXPECT_FALSE(tagEquals(poly1305(key, "ab"),
                         poly1305(key, std::string("a\0b", 3))));
  EXPECT_FALSE(tagEquals(poly1305(key, "abc"), poly1305(key, "ab")));
  EXPECT_FALSE(tagEquals(poly1305(key, ""), poly1305(key, std::string(1, 0))));
  // The AEAD tag binds the AAD/ciphertext split through the length block.
  Nonce96 nonce{};
  EXPECT_FALSE(tagEquals(aeadTag(key, nonce, "ab", "c"),
                         aeadTag(key, nonce, "a", "bc")));
}

TEST(KeyedTag, EmptyMessageHasAStableKeyedValue) {
  const Tag128 a = poly1305(macTestKey(0x00), "");
  const Tag128 b = poly1305(macTestKey(0x00), "");
  const Tag128 c = poly1305(macTestKey(0x01), "");
  EXPECT_TRUE(tagEquals(a, b));
  EXPECT_FALSE(tagEquals(a, c));
}

}  // namespace
}  // namespace bf::crypto
