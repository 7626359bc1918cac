#include "crypto/mac.h"

#include <cstring>

namespace bf::crypto {

namespace {

__extension__ typedef unsigned __int128 U128;

std::uint64_t load64le(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store64le(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Poly1305 over 2^130 - 5 with h in two 64-bit limbs plus a small top
/// limb and 128-bit products (the 64-bit layout of OpenSSL's poly1305.c).
class Poly1305 {
 public:
  explicit Poly1305(const Key256& key) noexcept
      : r0_(load64le(key.data()) & 0x0ffffffc0fffffffULL),  // clamped r
        r1_(load64le(key.data() + 8) & 0x0ffffffc0ffffffcULL),
        s0_(load64le(key.data() + 16)),
        s1_(load64le(key.data() + 24)) {}

  /// Absorbs `data` in 16-byte blocks, each with its 2^128 bit set. A
  /// partial last block is zero-padded (AEAD padding), or with
  /// `terminate` gets a 0x01 byte and no 2^128 bit (plain Poly1305).
  void absorb(std::string_view data, bool terminate = false) noexcept {
    const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
    std::size_t n = data.size();
    for (; n >= 16; p += 16, n -= 16) block(p, 1);
    if (n == 0) return;
    std::uint8_t last[16] = {};
    std::memcpy(last, p, n);
    if (terminate) last[n] = 1;
    block(last, terminate ? 0 : 1);
  }

  /// Fully reduces h mod 2^130 - 5 and returns (h + s) mod 2^128.
  [[nodiscard]] Tag128 finish() const noexcept {
    // h < 2p here, so h mod p is h or h + 5 - 2^130, whichever has no
    // borrow; the mask picks without a branch.
    U128 t = U128{h0_} + 5;
    const std::uint64_t g0 = static_cast<std::uint64_t>(t);
    t = U128{h1_} + (t >> 64);
    const std::uint64_t g1 = static_cast<std::uint64_t>(t);
    const std::uint64_t useG =
        0 - ((h2_ + static_cast<std::uint64_t>(t >> 64)) >> 2);
    const std::uint64_t h0 = (h0_ & ~useG) | (g0 & useG);
    const std::uint64_t h1 = (h1_ & ~useG) | (g1 & useG);
    t = U128{h0} + s0_;
    Tag128 tag{};
    store64le(tag.data(), static_cast<std::uint64_t>(t));
    store64le(tag.data() + 8, h1 + s1_ + static_cast<std::uint64_t>(t >> 64));
    return tag;
  }

 private:
  /// h = (h + block + hibit * 2^128) * r mod 2^130 - 5, partially reduced.
  void block(const std::uint8_t* m, std::uint64_t hibit) noexcept {
    U128 t = U128{h0_} + load64le(m);
    h0_ = static_cast<std::uint64_t>(t);
    t = U128{h1_} + load64le(m + 8) + (t >> 64);
    h1_ = static_cast<std::uint64_t>(t);
    h2_ += static_cast<std::uint64_t>(t >> 64) + hibit;

    // r1 is a multiple of 4, so h_i * r1 * 2^128 folds down as
    // h_i * (r1 + r1 / 4) at 2^0 (2^130 = 5 mod p).
    const std::uint64_t s1 = r1_ + (r1_ >> 2);
    const U128 d0 = U128{h0_} * r0_ + U128{h1_} * s1;
    const U128 d1 = U128{h0_} * r1_ + U128{h1_} * r0_ + U128{h2_} * s1 +
                    (d0 >> 64);
    const std::uint64_t d2 = h2_ * r0_ + static_cast<std::uint64_t>(d1 >> 64);
    h0_ = static_cast<std::uint64_t>(d0);
    h1_ = static_cast<std::uint64_t>(d1);
    // Fold everything at or above 2^130 back in, times 5.
    const std::uint64_t carry = (d2 >> 2) + (d2 & ~std::uint64_t{3});
    h2_ = d2 & 3;
    t = U128{h0_} + carry;
    h0_ = static_cast<std::uint64_t>(t);
    t = U128{h1_} + (t >> 64);
    h1_ = static_cast<std::uint64_t>(t);
    h2_ += static_cast<std::uint64_t>(t >> 64);
  }

  std::uint64_t r0_, r1_, s0_, s1_;
  std::uint64_t h0_ = 0, h1_ = 0, h2_ = 0;
};

}  // namespace

Tag128 poly1305(const Key256& oneTimeKey, std::string_view message) {
  Poly1305 poly(oneTimeKey);
  poly.absorb(message, /*terminate=*/true);
  return poly.finish();
}

Tag128 aeadTag(const Key256& key, const Nonce96& nonce, std::string_view aad,
               std::string_view ciphertext) {
  const std::array<std::uint8_t, 64> block0 = chacha20Block(key, nonce, 0);
  Key256 oneTimeKey{};
  std::memcpy(oneTimeKey.data(), block0.data(), oneTimeKey.size());
  Poly1305 poly(oneTimeKey);
  poly.absorb(aad);
  poly.absorb(ciphertext);
  std::uint8_t lengths[16];
  store64le(lengths, aad.size());
  store64le(lengths + 8, ciphertext.size());
  poly.absorb(std::string_view(reinterpret_cast<const char*>(lengths), 16));
  return poly.finish();
}

bool tagEquals(const Tag128& a, const Tag128& b) noexcept {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<unsigned>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace bf::crypto
