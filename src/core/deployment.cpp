#include "core/deployment.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "crypto/chacha20.h"
#include "flow/snapshot.h"
#include "tdm/policy_snapshot.h"
#include "util/binary_io.h"
#include "util/hashing.h"

namespace bf::core {

namespace {

constexpr std::string_view kPlainMagic = "BFDEPP1\n";
constexpr std::string_view kEncMagic = "BFDEPE1\n";

crypto::Key256 deriveKey(std::string_view secret) {
  crypto::Key256 key{};
  std::uint64_t h = util::fnv1a64(secret);
  for (int i = 0; i < 4; ++i) {
    h = util::mix64(h + static_cast<std::uint64_t>(i) + 0xDEB1ULL);
    for (int b = 0; b < 8; ++b) {
      key[static_cast<std::size_t>(i * 8 + b)] =
          static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return key;
}

}  // namespace

util::Status saveDeployment(BrowserFlowPlugin& plugin, const std::string& path,
                            std::string_view secret) {
  // One tracker blob per shard (one blob at N = 1), then the policy.
  std::string payload;
  const flow::FlowTracker& tracker = plugin.tracker();
  for (std::size_t k = 0; k < tracker.shardCount(); ++k) {
    util::putStr(payload, flow::exportState(tracker, k));
  }
  util::putStr(payload, tdm::exportPolicy(plugin.policy()));

  std::string fileData;
  if (secret.empty()) {
    fileData.append(kPlainMagic);
    fileData += payload;
  } else {
    fileData.append(kEncMagic);
    crypto::Nonce96 nonce{};
    const std::uint64_t n1 = util::fnv1a64(payload);
    const std::uint64_t n2 = util::mix64(n1 ^ util::fnv1a64(secret));
    for (int i = 0; i < 8; ++i) {
      nonce[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(n1 >> (8 * i));
    }
    for (int i = 0; i < 4; ++i) {
      nonce[static_cast<std::size_t>(8 + i)] =
          static_cast<std::uint8_t>(n2 >> (8 * i));
    }
    fileData.append(reinterpret_cast<const char*>(nonce.data()), nonce.size());
    fileData += crypto::chacha20Xor(payload, deriveKey(secret), nonce);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::error("cannot open for writing: " + path);
  out.write(fileData.data(), static_cast<std::streamsize>(fileData.size()));
  if (!out) return util::Status::error("write failed: " + path);
  return {};
}

util::Result<util::Timestamp> loadDeployment(BrowserFlowPlugin& plugin,
                                             const std::string& path,
                                             std::string_view secret) {
  using R = util::Result<util::Timestamp>;
  std::ifstream in(path, std::ios::binary);
  if (!in) return R::error("cannot open: " + path);
  std::string fileData((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());

  std::string payload;
  if (fileData.substr(0, kEncMagic.size()) == kEncMagic) {
    if (secret.empty()) {
      return R::error("deployment file is encrypted; secret needed");
    }
    const std::size_t header = kEncMagic.size();
    if (fileData.size() < header + 12) return R::error("file truncated");
    crypto::Nonce96 nonce{};
    for (std::size_t i = 0; i < 12; ++i) {
      nonce[i] = static_cast<std::uint8_t>(fileData[header + i]);
    }
    payload = crypto::chacha20Xor(
        std::string_view(fileData).substr(header + 12), deriveKey(secret),
        nonce);
  } else if (fileData.substr(0, kPlainMagic.size()) == kPlainMagic) {
    payload = fileData.substr(kPlainMagic.size());
  } else {
    return R::error("not a BrowserFlow deployment file");
  }

  util::BinaryReader r(payload);
  std::vector<std::string> blobs;
  while (r.ok() && !r.atEnd()) blobs.push_back(r.str());
  if (!r.ok() || blobs.size() < 2) {
    return R::error("deployment payload corrupt");
  }
  const std::string policyBlob = std::move(blobs.back());
  blobs.pop_back();
  flow::FlowTracker& tracker = plugin.tracker();
  if (blobs.size() != tracker.shardCount()) {
    return R::error("deployment holds " + std::to_string(blobs.size()) +
                    " tracker shard(s), the plug-in has " +
                    std::to_string(tracker.shardCount()));
  }

  util::Timestamp maxTs = 0;
  for (std::size_t k = 0; k < blobs.size(); ++k) {
    const auto info = flow::importStateEx(tracker, blobs[k], k);
    if (!info.ok()) return R::error(info.errorMessage());
    maxTs = std::max(maxTs, info.value().maxTimestamp);
  }
  const auto st = tdm::importPolicy(plugin.policy(), policyBlob);
  if (!st.ok()) return R::error(st.errorMessage());
  return maxTs;
}

}  // namespace bf::core
