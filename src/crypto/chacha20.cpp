#include "crypto/chacha20.h"

#include <cstring>

#include "util/hashing.h"

namespace bf::crypto {

namespace {

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

void quarterRound(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d) noexcept {
  a += b;
  d = rotl32(d ^ a, 16);
  c += d;
  b = rotl32(b ^ c, 12);
  a += b;
  d = rotl32(d ^ a, 8);
  c += d;
  b = rotl32(b ^ c, 7);
}

std::uint32_t load32le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store32le(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

std::array<std::uint8_t, 64> chacha20Block(const Key256& key,
                                           const Nonce96& nonce,
                                           std::uint32_t counter) {
  std::uint32_t state[16];
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load32le(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load32le(nonce.data() + 4 * i);

  std::uint32_t w[16];
  std::memcpy(w, state, sizeof(w));
  for (int round = 0; round < 10; ++round) {
    quarterRound(w[0], w[4], w[8], w[12]);
    quarterRound(w[1], w[5], w[9], w[13]);
    quarterRound(w[2], w[6], w[10], w[14]);
    quarterRound(w[3], w[7], w[11], w[15]);
    quarterRound(w[0], w[5], w[10], w[15]);
    quarterRound(w[1], w[6], w[11], w[12]);
    quarterRound(w[2], w[7], w[8], w[13]);
    quarterRound(w[3], w[4], w[9], w[14]);
  }
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) store32le(out.data() + 4 * i, w[i] + state[i]);
  return out;
}

void chacha20XorInPlace(std::span<char> data, const Key256& key,
                        const Nonce96& nonce, std::uint32_t counter) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    const auto block = chacha20Block(key, nonce, counter++);
    const std::size_t n = std::min<std::size_t>(64, data.size() - pos);
    for (std::size_t i = 0; i < n; ++i) {
      data[pos + i] = static_cast<char>(
          static_cast<std::uint8_t>(data[pos + i]) ^ block[i]);
    }
    pos += n;
  }
}

std::string chacha20Xor(std::string_view data, const Key256& key,
                        const Nonce96& nonce, std::uint32_t counter) {
  std::string out(data);
  chacha20XorInPlace(out, key, nonce, counter);
  return out;
}

Key256 deriveKey(std::string_view secret, std::uint64_t domain) {
  Key256 key{};
  std::uint64_t h = util::fnv1a64(secret);
  for (int i = 0; i < 4; ++i) {
    h = util::mix64(h + static_cast<std::uint64_t>(i) + domain);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<std::size_t>(i * 8 + b)] =
          static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return key;
}

}  // namespace bf::crypto
