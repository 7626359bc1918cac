#include "core/deployment.h"

#include <algorithm>
#include <vector>

#include "flow/snapshot.h"
#include "io/state_file.h"
#include "tdm/policy_snapshot.h"
#include "util/binary_io.h"

namespace bf::core {

util::Status saveDeployment(BrowserFlowPlugin& plugin, const std::string& path,
                            std::string_view secret, io::Vfs* vfs) {
  // One tracker body per shard (one body at N = 1), then the policy.
  const flow::FlowTracker& tracker = plugin.tracker();
  return io::writeStateFile(
      vfs != nullptr ? *vfs : io::defaultVfs(), path,
      io::StateKind::kDeployment, /*sequence=*/0, secret,
      [&](std::string& out) {
        for (std::size_t k = 0; k < tracker.shardCount(); ++k) {
          util::putStr(out, flow::exportState(tracker, k));
        }
        util::putStr(out, tdm::exportPolicy(plugin.policy()));
      });
}

util::Result<util::Timestamp> loadDeployment(BrowserFlowPlugin& plugin,
                                             const std::string& path,
                                             std::string_view secret,
                                             io::Vfs* vfs) {
  using R = util::Result<util::Timestamp>;
  const util::Result<io::StateFile> file =
      io::readStateFile(vfs != nullptr ? *vfs : io::defaultVfs(), path,
                        io::StateKind::kDeployment, secret);
  if (!file.ok()) return R::error(file.errorMessage());

  // One tracker body per shard, then the policy.
  flow::FlowTracker& tracker = plugin.tracker();
  util::BinaryReader r(file.value().payload());
  std::vector<std::string> blobs;
  while (r.ok() && !r.atEnd()) blobs.push_back(r.str());
  if (!r.ok() || blobs.size() != tracker.shardCount() + 1) {
    return R::error("deployment payload corrupt or not for a plug-in with " +
                    std::to_string(tracker.shardCount()) + " shard(s)");
  }
  util::Timestamp maxTs = 0;
  for (std::size_t k = 0; k < tracker.shardCount(); ++k) {
    const auto ts = flow::importState(tracker, blobs[k], k);
    if (!ts.ok()) return R::error(ts.errorMessage());
    maxTs = std::max(maxTs, ts.value());
  }
  const auto st = tdm::importPolicy(plugin.policy(), blobs.back());
  if (!st.ok()) return R::error(st.errorMessage());
  return maxTs;
}

}  // namespace bf::core
