// Poly1305 and the ChaCha20-Poly1305 AEAD tag (RFC 8439 §2.5 and §2.8).
//
// ChaCha20 in counter mode is malleable: flipping ciphertext bit i flips
// plaintext bit i, so an unauthenticated encrypted state file could load
// with silently altered hashes whenever the parse still succeeds. Sealed
// state files (io/state_file.h) therefore carry the RFC 8439 AEAD tag over
// their header and ciphertext, verified BEFORE decryption or parsing.
// Implemented from the RFC; verified against its test vectors in
// tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/chacha20.h"

namespace bf::crypto {

using Tag128 = std::array<std::uint8_t, 16>;

/// Poly1305 authenticator of `message` under a 32-byte ONE-TIME key
/// (r || s). Reusing a one-time key for two messages reveals it.
[[nodiscard]] Tag128 poly1305(const Key256& oneTimeKey,
                              std::string_view message);

/// The ChaCha20-Poly1305 AEAD tag over `aad` and `ciphertext`: Poly1305
/// keyed with the first 32 bytes of ChaCha20 block 0 under (key, nonce),
/// over aad | pad16 | ciphertext | pad16 | le64(|aad|) | le64(|ciphertext|).
/// The ciphertext itself is ChaCha20 under (key, nonce) from counter 1.
[[nodiscard]] Tag128 aeadTag(const Key256& key, const Nonce96& nonce,
                             std::string_view aad, std::string_view ciphertext);

/// Tag comparison without an early exit.
[[nodiscard]] bool tagEquals(const Tag128& a, const Tag128& b) noexcept;

}  // namespace bf::crypto
