#include "io/state_file.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <random>

#include "crypto/chacha20.h"
#include "crypto/mac.h"
#include "util/binary_io.h"
#include "util/crc32c.h"

namespace bf::io {

namespace {

constexpr std::string_view kMagic = "BFSTATE\n";
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kCipherNone = 0;
constexpr std::uint8_t kCipherChaChaPoly = 1;
constexpr std::size_t kNonceOffset = kStateFileHeaderBytes - 12;
static_assert(sizeof(crypto::Tag128) == kStateFileTrailerBytes);
/// Key-derivation domain of state files (crypto::deriveKey).
constexpr std::uint64_t kKeyDomain = 0xB0F1;

std::string kindName(std::uint8_t kind) {
  if (kind == static_cast<std::uint8_t>(StateKind::kCheckpoint)) {
    return "checkpoint";
  }
  if (kind == static_cast<std::uint8_t>(StateKind::kDeployment)) {
    return "deployment";
  }
  return "kind " + std::to_string(kind);
}

/// Crash-safe whole-file write: full content to a sibling temp file,
/// fsync, atomic rename over the target, then fsync the directory so the
/// rename itself is durable. A crash or disk-full mid-write can never
/// leave a truncated file at `path`, and EVERY failure path removes the
/// temp file — a save that fails (ENOSPC, short write, fsync error) leaves
/// no orphan and never clobbers the previous good snapshot, which only the
/// final rename replaces. The temp name is unique per process and per
/// call: concurrent saves to the same path must never share a temp file,
/// or interleaved writes could be renamed over the target.
util::Status atomicWriteFile(io::Vfs& vfs, const std::string& path,
                             std::string_view fileData) {
  static std::atomic<std::uint64_t> tmpCounter{0};
  const std::string tmpPath =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(tmpCounter.fetch_add(1, std::memory_order_relaxed));
  std::unique_ptr<io::File> file = vfs.openForWrite(tmpPath);
  if (file == nullptr) {
    return util::Status::error("cannot open for writing: " + tmpPath);
  }
  if (!file->write(fileData).ok) {
    (void)file->close();
    (void)vfs.remove(tmpPath);
    return util::Status::error("write failed: " + tmpPath);
  }
  if (!file->sync()) {
    (void)file->close();
    (void)vfs.remove(tmpPath);
    return util::Status::error("fsync failed: " + tmpPath);
  }
  if (!file->close()) {
    (void)vfs.remove(tmpPath);
    return util::Status::error("close failed: " + tmpPath);
  }
  if (!vfs.rename(tmpPath, path)) {
    (void)vfs.remove(tmpPath);
    return util::Status::error("rename failed: " + tmpPath + " -> " + path);
  }
  // Durable rename: fsync the containing directory (best effort — some
  // filesystems reject O_RDONLY directory fsync; the rename is still
  // atomic, just not yet journalled).
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  vfs.syncDir(dir);
  return {};
}

}  // namespace

util::Status writeStateFile(
    Vfs& vfs, const std::string& path, StateKind kind, std::uint64_t sequence,
    std::string_view secret,
    const std::function<void(std::string&)>& appendPayload) {
  const bool sealed = !secret.empty();
  crypto::Nonce96 nonce{};
  if (sealed) {
    std::random_device device;
    for (std::uint8_t& b : nonce) b = static_cast<std::uint8_t>(device());
  }
  std::string file(kMagic);
  util::putU8(file, kVersion);
  util::putU8(file, static_cast<std::uint8_t>(kind));
  util::putU8(file, sealed ? kCipherChaChaPoly : kCipherNone);
  util::putU64(file, sequence);
  file.append(reinterpret_cast<const char*>(nonce.data()), nonce.size());
  appendPayload(file);

  if (sealed) {
    const crypto::Key256 key = crypto::deriveKey(secret, kKeyDomain);
    crypto::chacha20XorInPlace(std::span(file).subspan(kStateFileHeaderBytes),
                               key, nonce);
    const crypto::Tag128 tag = crypto::aeadTag(
        key, nonce, std::string_view(file).substr(0, kStateFileHeaderBytes),
        std::string_view(file).substr(kStateFileHeaderBytes));
    file.append(reinterpret_cast<const char*>(tag.data()), tag.size());
  } else {
    util::putU32(file, util::maskCrc32c(util::crc32c(file)));
  }
  return atomicWriteFile(vfs, path, file);
}

util::Result<StateFile> readStateFile(Vfs& vfs, const std::string& path,
                                      StateKind kind,
                                      std::string_view secret) {
  using R = util::Result<StateFile>;
  util::Result<std::string> read = vfs.readFile(path);
  if (!read.ok()) return R::error("cannot open: " + path);
  StateFile out;
  std::string& file = out.bytes;
  file = std::move(read).value();
  if (file.size() < kStateFileHeaderBytes || !file.starts_with(kMagic)) {
    return R::error("not a BrowserFlow state file: " + path);
  }
  util::BinaryReader header(std::string_view(file).substr(
      kMagic.size(), kNonceOffset - kMagic.size()));
  const std::uint8_t version = header.u8();
  const std::uint8_t fileKind = header.u8();
  const std::uint8_t cipher = header.u8();
  out.sequence = header.u64();
  if (version != kVersion || cipher > kCipherChaChaPoly) {
    return R::error("unsupported state file version " +
                    std::to_string(version) + " or cipher " +
                    std::to_string(cipher) + ": " + path);
  }
  const bool sealed = cipher == kCipherChaChaPoly;
  if (sealed == secret.empty()) {
    return R::error(std::string(sealed ? "state file is encrypted; secret "
                                         "needed: "
                                       : "state file is not encrypted but a "
                                         "secret was given: ") +
                    path);
  }
  const std::size_t trailer = sealed ? sizeof(crypto::Tag128) : 4;
  if (file.size() < kStateFileHeaderBytes + trailer) {
    return R::error("state file truncated: " + path);
  }
  const std::string_view view(file);
  const std::string_view covered = view.substr(0, file.size() - trailer);
  const std::string_view stored = view.substr(covered.size());

  // Verify the trailer over the header and payload before the kind or any
  // payload byte is trusted.
  if (!sealed) {
    util::BinaryReader crc(stored);
    if (util::unmaskCrc32c(crc.u32()) != util::crc32c(covered)) {
      return R::error("state file CRC mismatch: " + path);
    }
  } else {
    crypto::Nonce96 nonce{};
    std::memcpy(nonce.data(), file.data() + kNonceOffset, nonce.size());
    crypto::Tag128 tag{};
    std::memcpy(tag.data(), stored.data(), tag.size());
    const crypto::Key256 key = crypto::deriveKey(secret, kKeyDomain);
    if (!crypto::tagEquals(
            tag, crypto::aeadTag(key, nonce,
                                 covered.substr(0, kStateFileHeaderBytes),
                                 covered.substr(kStateFileHeaderBytes)))) {
      return R::error("state file authentication failed (corrupt or wrong "
                      "key): " + path);
    }
    crypto::chacha20XorInPlace(
        std::span(file).subspan(kStateFileHeaderBytes,
                                covered.size() - kStateFileHeaderBytes),
        key, nonce);
  }
  if (fileKind != static_cast<std::uint8_t>(kind)) {
    return R::error("state file holds a " + kindName(fileKind) + ", not a " +
                    kindName(static_cast<std::uint8_t>(kind)) + ": " + path);
  }
  file.resize(covered.size());
  return out;
}

}  // namespace bf::io
