// Deployment persistence: one state file holding the full BrowserFlow
// state — fingerprint stores (flow/snapshot.h) AND policy state
// (tdm/policy_snapshot.h) — so an enterprise install survives restarts
// with labels, suppressions, custom tags and the audit trail intact.
// The file is a deployment-kind state file (io/state_file.h): sealed with
// ChaCha20-Poly1305 when a secret is given (paper S4.4) and written
// crash-safe through io::Vfs.
#pragma once

#include <string>

#include "core/plugin.h"
#include "io/vfs.h"
#include "util/result.h"

namespace bf::core {

/// Writes the plug-in's tracker + policy state to `path`. With a non-empty
/// `secret` the payload is encrypted and authenticated at rest. On any
/// failure the previous file at `path` is untouched. `vfs` routes the file
/// I/O (null = defaultVfs()).
[[nodiscard]] util::Status saveDeployment(BrowserFlowPlugin& plugin,
                                          const std::string& path,
                                          std::string_view secret,
                                          io::Vfs* vfs = nullptr);

/// Restores a file written by saveDeployment() into a freshly constructed
/// plug-in (empty tracker and policy). Returns the largest timestamp in
/// the snapshot; the caller must advance the plug-in's clock past it.
[[nodiscard]] util::Result<util::Timestamp> loadDeployment(
    BrowserFlowPlugin& plugin, const std::string& path,
    std::string_view secret, io::Vfs* vfs = nullptr);

}  // namespace bf::core
