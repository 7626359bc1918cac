// ChaCha20 stream cipher (RFC 8439 block function and counter mode).
//
// BrowserFlow's enforcement module "can also encrypt confidential data
// before upload" (paper S5); this provides that primitive for the simulated
// middleware. Implemented from the RFC; verified against the RFC 8439 test
// vectors in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace bf::crypto {

using Key256 = std::array<std::uint8_t, 32>;
using Nonce96 = std::array<std::uint8_t, 12>;

/// Encrypts or decrypts `data` (the cipher is its own inverse) with the
/// given key, nonce and initial block counter.
[[nodiscard]] std::string chacha20Xor(std::string_view data, const Key256& key,
                                      const Nonce96& nonce,
                                      std::uint32_t counter = 1);

/// chacha20Xor() over `data` in place, for buffers too large to copy.
void chacha20XorInPlace(std::span<char> data, const Key256& key,
                        const Nonce96& nonce, std::uint32_t counter = 1);

/// One 64-byte keystream block (block 0 keys Poly1305 in crypto/mac.h).
[[nodiscard]] std::array<std::uint8_t, 64> chacha20Block(const Key256& key,
                                                         const Nonce96& nonce,
                                                         std::uint32_t counter);

/// Expands `secret` into a 256-bit key by chained FNV/SplitMix hashing.
/// `domain` separates the keys of different uses of one secret. Not a
/// password KDF: the simulated deployment has no KMS, and its security
/// lives in the model, not in the key schedule.
[[nodiscard]] Key256 deriveKey(std::string_view secret, std::uint64_t domain);

}  // namespace bf::crypto
