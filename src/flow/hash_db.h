// HashDb — the paper's "DBhash" (S4.3):
//
// "The first data structure (DBhash) stores associations of fingerprint
//  hashes to paragraphs that have been found to contain those hashes along
//  with timestamps."
//
// For every fingerprint hash we keep the history of segments that were
// observed to contain it, ordered by first-seen timestamp. The front of the
// history answers oldestSegmentWith(h) in O(1) amortised, which both the
// authoritative-fingerprint computation and Algorithm 1 rely on.
//
// Storage is an open-addressing hash table (linear probing, power-of-two
// capacity) whose slots hold the FIRST association inline: most hashes have
// exactly one owner, so the Algorithm-1 candidate loop — one
// oldestSegmentWith probe per target hash — resolves in a single cache line
// without chasing node pointers. Hashes with multiple owners spill the rest
// of their history into a pooled overflow vector.
//
// Segment removal is eager and local: a per-segment reverse index lists the
// hashes each segment holds an association for, so removeSegment touches
// only that segment's own slots — no tombstones, no whole-table rebuild.
// A slot left empty is vacated by backward-shift deletion, which keeps
// every probe chain unbroken.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "flow/ids.h"
#include "util/clock.h"

namespace bf::flow {

class HashDb {
 public:
  /// One observation: `segment` was first seen containing a hash at
  /// `firstSeen` and most recently re-observed at `lastSeen`. Provenance
  /// ordering keys on firstSeen (it never changes retroactively);
  /// retention (evictOlderThan) keys on lastSeen so hot, re-observed
  /// associations survive eviction sweeps.
  struct Association {
    SegmentId segment;
    util::Timestamp firstSeen;
    util::Timestamp lastSeen;
  };

  /// Records that `segment` contains `hash`, observed at `ts`. Idempotent
  /// per (hash, segment): re-observing keeps the original first-seen
  /// timestamp (provenance ordering never changes retroactively) but
  /// advances the association's lastSeen stamp to max(lastSeen, ts).
  /// Restore paths (snapshot/WAL replay) pass an explicit `lastSeen`;
  /// 0 means "same as ts".
  void recordObservation(std::uint64_t hash, SegmentId segment,
                         util::Timestamp ts, util::Timestamp lastSeen = 0);

  /// One association together with its hash, as snapshots store it.
  struct StoredAssociation {
    std::uint64_t hash;
    SegmentId segment;
    util::Timestamp firstSeen;
    util::Timestamp lastSeen;
  };

  /// Bulk restore (snapshot import): recordObservation for each entry, but
  /// the reverse index is built once at the end with every list allocated
  /// at its final size, rather than grown one association at a time.
  void restoreAssociations(std::span<const StoredAssociation> assocs);

  /// The oldest segment associated with `hash`, or nullopt.
  /// This is "oldestParagraphWith(h, DBhash)" from Algorithm 1.
  [[nodiscard]] std::optional<SegmentId> oldestSegmentWith(
      std::uint64_t hash) const;

  /// All segments associated with `hash`, oldest first.
  [[nodiscard]] std::vector<SegmentId> segmentsWith(std::uint64_t hash) const;

  /// First-seen timestamp of (hash, segment), or nullopt if unrecorded.
  [[nodiscard]] std::optional<util::Timestamp> firstSeen(
      std::uint64_t hash, SegmentId segment) const;

  /// Most recent observation timestamp of (hash, segment), or nullopt.
  [[nodiscard]] std::optional<util::Timestamp> lastSeen(
      std::uint64_t hash, SegmentId segment) const;

  /// Physically removes every association of `segment`, in time
  /// proportional to that segment's own associations (stale ones from
  /// earlier fingerprints included); unknown ids remove nothing. Increments
  /// the removal generation (used by callers to invalidate
  /// authoritative-fingerprint caches).
  void removeSegment(SegmentId segment);

  /// Drops all associations whose lastSeen < cutoff. Implements the
  /// paper's "periodic removal of old fingerprints" recommendation (S4.4).
  /// Retention keys on the most recent observation, not firstSeen: a
  /// segment first seen long ago but re-observed seconds ago is still hot
  /// and must survive the sweep. Returns the number of associations
  /// dropped.
  std::size_t evictOlderThan(util::Timestamp cutoff);

  /// Number of distinct hashes with at least one association. Benches use
  /// this to size the store (paper Fig. 13).
  [[nodiscard]] std::size_t distinctHashCount() const noexcept {
    return occupied_;
  }

  /// Number of stored associations (memory accounting in benches).
  [[nodiscard]] std::size_t associationCount() const noexcept {
    return storedAssociations_;
  }

  /// Monotone counter bumped by removeSegment/evictOlderThan. Callers cache
  /// authoritative fingerprints keyed by this generation.
  [[nodiscard]] std::uint64_t removalGeneration() const noexcept {
    return removalGeneration_;
  }

  /// Applies fn(hash, segment, firstSeen, lastSeen) to every association,
  /// in per-hash oldest-first order. Used by snapshot export.
  template <typename Fn>
  void forEachAssociation(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!slot.used()) continue;
      fn(slot.hash, slot.segment, slot.firstSeen, slot.lastSeen());
      if (slot.overflow != kNoOverflow) {
        for (const Association& a : overflow_[slot.overflow]) {
          fn(slot.hash, a.segment, a.firstSeen, a.lastSeen);
        }
      }
    }
  }

 private:
  static constexpr std::uint32_t kNoOverflow = 0xffffffffu;

  /// One open-addressing slot: the hash, its oldest association inline,
  /// and (rarely) an index into the overflow pool for the rest of the
  /// history, kept sorted by firstSeen ascending.
  ///
  /// The slot is the hot probe target of every query (one per target
  /// hash), so its size IS the read path's cache footprint — exactly 32
  /// bytes, two slots per cache line. That budget is held by packing the
  /// inline association: `segment == kInvalidSegment` doubles as the
  /// empty-slot marker (removing a hash's last association vacates its
  /// slot by backward shift, so there is no tombstone state), and lastSeen
  /// is a saturating 32-bit delta from firstSeen. A delta that overflows
  /// pins the association hot (lastSeen() reports the max timestamp, so
  /// retention never evicts it) — erring on retention is safe; the
  /// overflow-pool Associations keep full 64-bit stamps.
  struct Slot {
    static constexpr std::uint32_t kDeltaSaturated = 0xffffffffu;

    std::uint64_t hash = 0;
    SegmentId segment = kInvalidSegment;
    util::Timestamp firstSeen = 0;
    std::uint32_t lastSeenDelta = 0;
    std::uint32_t overflow = kNoOverflow;

    [[nodiscard]] bool used() const noexcept {
      return segment != kInvalidSegment;
    }
    [[nodiscard]] util::Timestamp lastSeen() const noexcept {
      return lastSeenDelta == kDeltaSaturated
                 ? ~util::Timestamp{0}
                 : firstSeen + lastSeenDelta;
    }
    /// Requires firstSeen to be set already (the delta is relative).
    void setLastSeen(util::Timestamp seen) noexcept {
      const util::Timestamp delta = seen > firstSeen ? seen - firstSeen : 0;
      lastSeenDelta = delta >= kDeltaSaturated
                          ? kDeltaSaturated
                          : static_cast<std::uint32_t>(delta);
    }
    [[nodiscard]] Association inlineAssoc() const noexcept {
      return Association{segment, firstSeen, lastSeen()};
    }
    void setInlineAssoc(const Association& a) noexcept {
      segment = a.segment;
      firstSeen = a.firstSeen;
      setLastSeen(a.lastSeen);
    }
  };
  static_assert(sizeof(Slot) == 32,
                "Slot is the per-query cache footprint; keep it at two "
                "slots per cache line");

  /// Slot where a linear probe for `hash` starts.
  [[nodiscard]] std::size_t home(std::uint64_t hash) const noexcept;

  /// Index of `hash`'s slot, or of the empty slot where it would insert.
  /// Requires a non-empty table.
  [[nodiscard]] std::size_t probe(std::uint64_t hash) const noexcept;

  /// Empties slot `hole` and shifts later members of its probe cluster
  /// back so every remaining hash stays reachable from its home slot
  /// (Knuth 6.4, Algorithm R).
  void vacate(std::size_t hole) noexcept;

  /// recordObservation without the reverse-index update. Returns true when
  /// it created a new (hash, segment) association.
  bool recordAssociation(std::uint64_t hash, SegmentId segment,
                         util::Timestamp ts, util::Timestamp lastSeen);

  /// Removes the (hash, segment) association, if stored.
  void removeAssociation(std::uint64_t hash, SegmentId segment);

  /// Pool index of `segment`'s reverse-index list, created on first use.
  /// Consecutive calls for one segment (an observation records all its
  /// hashes in a row) pay a single map lookup.
  std::uint32_t listOf(SegmentId segment);

  /// Appends `hash` to `segment`'s reverse-index list.
  void indexAssociation(SegmentId segment, std::uint64_t hash);

  /// Rebuilds the reverse index from the table in two passes, sizing every
  /// list exactly before filling it.
  void rebuildIndex();

  /// Ensures capacity for one more distinct hash (grows + rehashes at
  /// ~70% load).
  void reserveForInsert();

  /// Rebuilds the table and the reverse index keeping only associations
  /// for which `keep` returns true, allocating the final power-of-two table
  /// once. Returns the number of associations dropped.
  template <typename Keep>
  std::size_t rebuildFiltered(Keep&& keep);

  std::vector<Slot> slots_;  // power-of-two size; empty until first insert
  std::size_t mask_ = 0;     // slots_.size() - 1
  std::size_t occupied_ = 0;
  std::vector<std::vector<Association>> overflow_;
  std::vector<std::uint32_t> overflowFree_;  // recyclable overflow_ indices
  /// The hashes one segment holds an association for. Hashes that fit in
  /// 32 bits (the default fingerprint width) are kept narrow, which halves
  /// the index.
  struct SegmentHashes {
    std::vector<std::uint32_t> narrow;
    std::vector<std::uint64_t> wide;
  };

  // Reverse index: segment -> its SegmentHashes, pooled like the overflow
  // histories. Exact: a list gains a hash when an association is created
  // and loses it only when the association goes.
  std::unordered_map<SegmentId, std::uint32_t> segmentList_;
  std::vector<SegmentHashes> segmentHashes_;
  std::vector<std::uint32_t> segmentHashesFree_;  // recyclable list indices
  SegmentId lastIndexed_ = kInvalidSegment;  // one-entry lookup cache
  std::uint32_t lastIndexedList_ = 0;
  std::size_t storedAssociations_ = 0;
  std::uint64_t removalGeneration_ = 0;
};

}  // namespace bf::flow
