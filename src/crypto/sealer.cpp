#include "crypto/sealer.h"

#include <cstdio>

#include "util/strings.h"

namespace bf::crypto {

namespace {

constexpr std::string_view kMagic = "BFENC1:";

std::string toHex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::optional<std::string> fromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace

Sealer::Sealer(std::string_view orgSecret)
    : key_(deriveKey(orgSecret, /*domain=*/0)) {}

std::string Sealer::seal(sec::SensitiveView plaintext) {
  Nonce96 nonce{};
  const std::uint64_t n = ++nonceCounter_;
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  const std::string ct = chacha20Xor(plaintext.raw(), key_, nonce);
  std::string nonceBytes(reinterpret_cast<const char*>(nonce.data()),
                         nonce.size());
  return std::string(kMagic) + toHex(nonceBytes) + ":" + toHex(ct);
}

std::optional<std::string> Sealer::unseal(std::string_view envelope) const {
  if (!isSealed(envelope)) return std::nullopt;
  std::string_view rest = envelope.substr(kMagic.size());
  const std::size_t sep = rest.find(':');
  if (sep == std::string_view::npos) return std::nullopt;
  const auto nonceBytes = fromHex(rest.substr(0, sep));
  const auto ct = fromHex(rest.substr(sep + 1));
  if (!nonceBytes || !ct || nonceBytes->size() != 12) return std::nullopt;
  Nonce96 nonce{};
  for (std::size_t i = 0; i < 12; ++i) {
    nonce[i] = static_cast<std::uint8_t>((*nonceBytes)[i]);
  }
  return chacha20Xor(*ct, key_, nonce);
}

bool Sealer::isSealed(std::string_view s) noexcept {
  return util::startsWith(s, kMagic);
}

}  // namespace bf::crypto
