// State files: the one at-rest format for durable BrowserFlow state.
//
// The paper recommends "encrypting all fingerprint data at rest" (S4.4).
// Checkpoints (flow/snapshot.h) and deployment files (core/deployment.h)
// are both written and read here, in one envelope:
//
//   magic "BFSTATE\n" | u8 version | u8 kind | u8 cipher | u64 sequence |
//   12-byte nonce | payload | trailer
//
//  - cipher 0 (no secret): the payload is plain and the trailer is a
//    masked CRC32C over everything before it; the nonce is zero.
//  - cipher 1 (a secret): the payload is ChaCha20 under a key derived from
//    the secret and a random nonce, and the trailer is the RFC 8439
//    ChaCha20-Poly1305 tag with the header as additional data, so a flip
//    of any header or ciphertext bit fails before anything is decrypted.
//
// A reader names the kind it expects, so a deployment file is never loaded
// as a checkpoint or the other way round, and given a secret it refuses a
// plain file. Writes are crash-safe: temp file, fsync, rename, fsync of
// the directory. The WAL (flow/wal.h) has its own CRC-framed format and is
// not encrypted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "io/vfs.h"
#include "util/result.h"

namespace bf::io {

/// What a state file holds.
enum class StateKind : std::uint8_t { kCheckpoint = 1, kDeployment = 2 };

/// Bytes before the payload.
inline constexpr std::size_t kStateFileHeaderBytes = 8 + 3 + 8 + 12;

/// The most bytes the trailer adds after the payload. A writer that sizes
/// its payload buffer up front reserves this much more, so sealing never
/// reallocates the buffer.
inline constexpr std::size_t kStateFileTrailerBytes = 16;

/// Writes a state file of `kind` at `path`. `appendPayload` appends the
/// payload to the file buffer after the header; the payload is then sealed
/// with a key derived from `secret` (empty secret = plain, CRC trailer).
/// Crash-safe: on ANY failure the temp file is removed and the previous
/// file at `path` is untouched.
[[nodiscard]] util::Status writeStateFile(
    Vfs& vfs, const std::string& path, StateKind kind, std::uint64_t sequence,
    std::string_view secret,
    const std::function<void(std::string&)>& appendPayload);

/// A verified state file: `bytes` is the file buffer less its trailer,
/// with the payload decrypted in place after the header.
struct StateFile {
  std::uint64_t sequence = 0;
  std::string bytes;

  [[nodiscard]] std::string_view payload() const noexcept {
    return std::string_view(bytes).substr(kStateFileHeaderBytes);
  }
};

/// Reads a state file of `kind` and verifies its trailer before anything
/// else reads the payload. Fails on a missing or truncated file, a wrong
/// magic, version or kind, a CRC or tag mismatch, an encrypted file without
/// a secret, and a plain file when a secret is given.
[[nodiscard]] util::Result<StateFile> readStateFile(Vfs& vfs,
                                                    const std::string& path,
                                                    StateKind kind,
                                                    std::string_view secret);

}  // namespace bf::io
