#include "flow/snapshot.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "io/state_file.h"
#include "util/binary_io.h"

namespace bf::flow {

namespace {

/// Serialises the state body: segment records carry their tenant,
/// associations their lastSeen retention stamp.
void appendStateBody(const FlowTracker& tracker, std::size_t shard,
                     std::string& out) {
  // Segments, ordered by id for determinism.
  std::vector<const SegmentRecord*> segments;
  tracker.segmentDb(shard).forEach(
      [&](const SegmentRecord& rec) { segments.push_back(&rec); });
  std::sort(segments.begin(), segments.end(),
            [](const SegmentRecord* a, const SegmentRecord* b) {
              return a->id < b->id;
            });
  // Size the body up front: growing a multi-megabyte string by doubling
  // holds two copies at once on every checkpoint. Per segment: 9 fixed
  // words plus the kind byte, the three strings and 12 bytes per gram; per
  // association 4 words; 3 count words; the state file's trailer.
  std::size_t bytes = 3 * 8 + io::kStateFileTrailerBytes;
  for (const SegmentRecord* rec : segments) {
    bytes += 9 * 8 + 1 + rec->name.size() + rec->document.size() +
             rec->service.size() + 12 * rec->fingerprint.grams().size();
  }
  for (SegmentKind kind : {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    bytes += 4 * 8 * tracker.hashDb(kind, shard).associationCount();
  }
  out.reserve(out.size() + bytes);
  util::putU64(out, segments.size());
  for (const SegmentRecord* rec : segments) {
    util::putU64(out, rec->id);
    util::putU8(out, static_cast<std::uint8_t>(rec->kind));
    util::putStr(out, rec->name);
    util::putStr(out, rec->document);
    util::putStr(out, rec->service);
    util::putF64(out, rec->threshold);
    util::putU64(out, rec->tenant);
    util::putU64(out, rec->createdAt);
    util::putU64(out, rec->updatedAt);
    const auto& grams = rec->fingerprint.grams();
    util::putU64(out, grams.size());
    for (const auto& g : grams) {
      util::putU64(out, g.hash);
      util::putU32(out, g.pos);
    }
  }

  // Associations per granularity, sorted for determinism.
  for (SegmentKind kind :
       {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    struct Assoc {
      std::uint64_t hash;
      SegmentId segment;
      util::Timestamp ts;
      util::Timestamp lastSeen;
    };
    std::vector<Assoc> assocs;
    assocs.reserve(tracker.hashDb(kind, shard).associationCount());
    tracker.hashDb(kind, shard).forEachAssociation(
        [&](std::uint64_t hash, SegmentId segment, util::Timestamp ts,
            util::Timestamp lastSeen) {
          assocs.push_back({hash, segment, ts, lastSeen});
        });
    std::sort(assocs.begin(), assocs.end(), [](const Assoc& a, const Assoc& b) {
      if (a.hash != b.hash) return a.hash < b.hash;
      return a.ts < b.ts;
    });
    util::putU64(out, assocs.size());
    for (const auto& a : assocs) {
      util::putU64(out, a.hash);
      util::putU64(out, a.segment);
      util::putU64(out, a.ts);
      util::putU64(out, a.lastSeen);
    }
  }
}

/// Fully parsed, validated state waiting to be applied (all-or-nothing).
struct StagedState {
  std::vector<SegmentRecord> segments;
  /// Paragraph-kind associations, then document-kind ones.
  std::vector<HashDb::StoredAssociation> assocs;
  std::size_t paragraphAssocs = 0;
  util::Timestamp maxTs = 0;
};

/// True for a threshold a live record may legally carry: D(A,B) scores are
/// ratios in [0, 1], so anything outside that range (or non-finite) is a
/// corrupt or hostile blob, not a configuration.
bool validThreshold(double t) noexcept {
  return std::isfinite(t) && t >= 0.0 && t <= 1.0;
}

bool validKindByte(std::uint8_t k) noexcept {
  return k == static_cast<std::uint8_t>(SegmentKind::kParagraph) ||
         k == static_cast<std::uint8_t>(SegmentKind::kDocument);
}

/// Parses `body` into `staged`. Returns an empty string on success, an
/// error message otherwise. Untrusted bytes are validated here,
/// BEFORE anything touches the tracker: enum bytes must name a known
/// SegmentKind and thresholds must be finite and in range — a corrupt blob
/// must never static_cast its way into live records.
std::string parseStateBody(std::string_view body, StagedState& staged) {
  util::BinaryReader r(body);
  const std::uint64_t segmentCount = r.u64();
  for (std::uint64_t i = 0; i < segmentCount && r.ok(); ++i) {
    SegmentRecord rec;
    rec.id = r.u64();
    const std::uint8_t kindByte = r.u8();
    if (r.ok() && !validKindByte(kindByte)) {
      return "unknown SegmentKind byte " + std::to_string(kindByte);
    }
    rec.kind = static_cast<SegmentKind>(kindByte);
    rec.name = r.str();
    rec.document = r.str();
    rec.service = r.str();
    rec.threshold = r.f64();
    if (r.ok() && !validThreshold(rec.threshold)) {
      return "threshold out of range for segment '" + rec.name + "'";
    }
    rec.tenant = r.u64();
    rec.createdAt = r.u64();
    rec.updatedAt = r.u64();
    staged.maxTs = std::max({staged.maxTs, rec.createdAt, rec.updatedAt});
    const std::uint64_t gramCount = r.u64();
    std::vector<text::HashedGram> grams;
    // Cap the reserve: a corrupt length prefix must not force a huge
    // allocation before the bounds-checked reads catch it.
    grams.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(gramCount, 1u << 20)));
    for (std::uint64_t g = 0; g < gramCount && r.ok(); ++g) {
      const std::uint64_t hash = r.u64();
      const std::uint32_t pos = r.u32();
      grams.push_back({hash, pos});
    }
    rec.fingerprint = text::Fingerprint::fromSelected(std::move(grams));
    if (!r.ok()) break;
    staged.segments.push_back(std::move(rec));
  }

  for (SegmentKind kind :
       {SegmentKind::kParagraph, SegmentKind::kDocument}) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
      const std::uint64_t hash = r.u64();
      const SegmentId segment = r.u64();
      const util::Timestamp ts = r.u64();
      const util::Timestamp lastSeen = r.u64();
      staged.maxTs = std::max({staged.maxTs, ts, lastSeen});
      staged.assocs.push_back({hash, segment, ts, lastSeen});
    }
    if (kind == SegmentKind::kParagraph) {
      staged.paragraphAssocs = staged.assocs.size();
    }
  }

  if (!r.ok() || !r.atEnd()) return "snapshot truncated or corrupt";
  return {};
}

/// Restores `body` into shard `shard` of an empty tracker, all or
/// nothing: the ENTIRE body is parsed and validated into staging
/// structures before the tracker is touched. `backing`, when given, is the
/// buffer `body` views; it is freed once the body is staged, so it never
/// peaks together with the restored state.
util::Result<util::Timestamp> restoreBody(FlowTracker& tracker,
                                          std::string_view body,
                                          std::size_t shard,
                                          std::string* backing) {
  using R = util::Result<util::Timestamp>;
  if (shard >= tracker.shardCount()) {
    return R::error("snapshot shard " + std::to_string(shard) +
                    " out of range");
  }
  if (tracker.segmentDb(shard).size() != 0) {
    return R::error("importState requires an empty tracker");
  }
  StagedState staged;
  if (std::string err = parseStateBody(body, staged); !err.empty()) {
    return R::error(err);
  }
  if (backing != nullptr) std::string().swap(*backing);

  for (SegmentRecord& rec : staged.segments) {
    tracker.restoreSegment(std::move(rec), shard);
  }
  const std::span<const HashDb::StoredAssociation> assocs(staged.assocs);
  tracker.restoreAssociations(SegmentKind::kParagraph,
                              assocs.first(staged.paragraphAssocs), shard);
  tracker.restoreAssociations(SegmentKind::kDocument,
                              assocs.subspan(staged.paragraphAssocs), shard);
  tracker.rebuildIndex();
  return staged.maxTs;
}

}  // namespace

std::string exportState(const FlowTracker& tracker, std::size_t shard) {
  std::string out;
  appendStateBody(tracker, shard, out);
  return out;
}

util::Result<util::Timestamp> importState(FlowTracker& tracker,
                                          std::string_view body,
                                          std::size_t shard) {
  return restoreBody(tracker, body, shard, /*backing=*/nullptr);
}

util::Status saveSnapshot(const FlowTracker& tracker, const std::string& path,
                          std::string_view secret, std::uint64_t sequence,
                          io::Vfs* vfs, std::size_t shard) {
  return io::writeStateFile(
      vfs != nullptr ? *vfs : io::defaultVfs(), path,
      io::StateKind::kCheckpoint, sequence, secret,
      [&](std::string& out) { appendStateBody(tracker, shard, out); });
}

util::Result<SnapshotInfo> loadSnapshot(FlowTracker& tracker,
                                        const std::string& path,
                                        std::string_view secret, io::Vfs* vfs,
                                        std::size_t shard) {
  using R = util::Result<SnapshotInfo>;
  util::Result<io::StateFile> file =
      io::readStateFile(vfs != nullptr ? *vfs : io::defaultVfs(), path,
                        io::StateKind::kCheckpoint, secret);
  if (!file.ok()) return R::error(file.errorMessage());
  io::StateFile& f = file.value();
  const auto maxTs = restoreBody(tracker, f.payload(), shard, &f.bytes);
  if (!maxTs.ok()) return R::error(maxTs.errorMessage());
  return SnapshotInfo{maxTs.value(), f.sequence};
}

}  // namespace bf::flow
