// Snapshot: persistence for the fingerprint stores.
//
// The paper recommends protecting the long-lived fingerprint database:
// "Storing fingerprints long-term ... can introduce an additional attack
//  target if a device gets compromised. To mitigate this we recommend
//  encrypting all fingerprint data at rest and performing periodic removal
//  of old fingerprints." (S4.4)
//
// exportState()/importState() serialise the tracker's segments (with their
// fingerprints, thresholds, tenants and metadata) and all hash
// associations (with first-seen and last-seen timestamps, preserving
// authority ordering) into a portable little-endian body (DESIGN.md §11).
// saveSnapshot()/loadSnapshot() store that body as a checkpoint state file
// (io/state_file.h): sequenced, CRC'd or sealed with ChaCha20-Poly1305,
// and written crash-safe.
//
// Every import validates untrusted bytes before they become live records:
// unknown SegmentKind values and non-finite / out-of-range thresholds
// reject the whole body (all-or-nothing, tracker left empty).
//
// A body holds ONE shard's stores (the whole tracker at N = 1): every
// function takes the shard it reads or restores, 0 by default. A sharded
// tracker persists as one body per shard (DurabilityManager keeps one
// checkpoint chain per shard).
#pragma once

#include <cstdint>
#include <string>

#include "flow/tracker.h"
#include "io/vfs.h"
#include "util/result.h"

namespace bf::flow {

/// What a successfully loaded snapshot contained.
struct SnapshotInfo {
  /// Largest timestamp in the snapshot: the caller must advance the
  /// tracker's clock past it so new observations sort after restored ones
  /// (LogicalClock::advanceTo).
  util::Timestamp maxTimestamp = 0;
  /// Checkpoint sequence number recorded at save time (0 for saves outside
  /// the durability manager). WAL records with sequence > this continue
  /// the state (flow/wal.h).
  std::uint64_t sequence = 0;
};

/// Serialises one shard's state as the canonical body: equal states
/// produce equal bodies (segments ordered by id, associations by hash
/// within kind).
[[nodiscard]] std::string exportState(const FlowTracker& tracker,
                                      std::size_t shard = 0);

/// Restores a body produced by exportState() into shard `shard` of
/// `tracker`, which must be EMPTY (freshly constructed), then rebuilds the
/// tracker's index. Returns the largest timestamp in the body.
[[nodiscard]] util::Result<util::Timestamp> importState(
    FlowTracker& tracker, std::string_view body, std::size_t shard = 0);

/// Writes shard `shard` to `path` as a checkpoint state file carrying
/// `sequence` (0 outside the durability manager), sealed with a key
/// derived from `secret` (empty secret = plaintext with a CRC). Crash-safe:
/// on ANY failure the temp file is removed and the previous snapshot at
/// `path` is untouched. `vfs` routes the file I/O (null = defaultVfs()).
[[nodiscard]] util::Status saveSnapshot(const FlowTracker& tracker,
                                        const std::string& path,
                                        std::string_view secret,
                                        std::uint64_t sequence = 0,
                                        io::Vfs* vfs = nullptr,
                                        std::size_t shard = 0);

/// Loads a snapshot written by saveSnapshot() into an empty tracker. The
/// file is authenticated (or CRC-checked) before parsing, decrypted in
/// place, and its buffer released before the parsed state is applied.
/// `vfs` routes the read (null = defaultVfs()).
[[nodiscard]] util::Result<SnapshotInfo> loadSnapshot(
    FlowTracker& tracker, const std::string& path, std::string_view secret,
    io::Vfs* vfs = nullptr, std::size_t shard = 0);

}  // namespace bf::flow
