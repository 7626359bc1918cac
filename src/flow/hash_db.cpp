#include "flow/hash_db.h"

#include <algorithm>
#include <utility>

#include "util/hashing.h"

namespace bf::flow {

namespace {
constexpr std::size_t kInitialSlots = 16;  // power of two
}  // namespace

std::size_t HashDb::home(std::uint64_t hash) const noexcept {
  // Stored hashes are often truncated to 32 bits; re-mix so high slots of
  // large tables stay uniformly used under linear probing.
  return static_cast<std::size_t>(util::mix64(hash)) & mask_;
}

std::size_t HashDb::probe(std::uint64_t hash) const noexcept {
  std::size_t idx = home(hash);
  while (slots_[idx].used() && slots_[idx].hash != hash) {
    idx = (idx + 1) & mask_;
  }
  return idx;
}

void HashDb::reserveForInsert() {
  if (slots_.empty()) {
    slots_.resize(kInitialSlots);
    mask_ = kInitialSlots - 1;
    return;
  }
  // Grow at ~70% load. Rehashing moves only the flat Slot structs; the
  // overflow pool is index-stable and untouched.
  if ((occupied_ + 1) * 10 < slots_.size() * 7) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.used()) slots_[probe(s.hash)] = s;
  }
}

void HashDb::recordObservation(std::uint64_t hash, SegmentId segment,
                               util::Timestamp ts, util::Timestamp lastSeen) {
  if (recordAssociation(hash, segment, ts, lastSeen)) {
    indexAssociation(segment, hash);
  }
}

void HashDb::restoreAssociations(std::span<const StoredAssociation> assocs) {
  for (const StoredAssociation& a : assocs) {
    recordAssociation(a.hash, a.segment, a.firstSeen, a.lastSeen);
  }
  rebuildIndex();
}

bool HashDb::recordAssociation(std::uint64_t hash, SegmentId segment,
                               util::Timestamp ts, util::Timestamp lastSeen) {
  const util::Timestamp seen = lastSeen != 0 ? lastSeen : ts;
  reserveForInsert();
  Slot& s = slots_[probe(hash)];
  if (!s.used()) {
    s.hash = hash;
    s.segment = segment;
    s.firstSeen = ts;
    s.setLastSeen(seen);
    s.overflow = kNoOverflow;
    ++occupied_;
    ++storedAssociations_;
    return true;
  }
  // Idempotent per (hash, segment): keep the original first-seen timestamp
  // (provenance never changes retroactively) but advance the retention
  // stamp — re-observation marks the association hot.
  if (s.segment == segment) {
    s.setLastSeen(std::max(s.lastSeen(), seen));
    return false;
  }
  if (s.overflow != kNoOverflow) {
    for (Association& a : overflow_[s.overflow]) {
      if (a.segment == segment) {
        a.lastSeen = std::max(a.lastSeen, seen);
        return false;
      }
    }
  }

  if (s.overflow == kNoOverflow) {
    if (!overflowFree_.empty()) {
      s.overflow = overflowFree_.back();
      overflowFree_.pop_back();
      overflow_[s.overflow].clear();
    } else {
      s.overflow = static_cast<std::uint32_t>(overflow_.size());
      overflow_.emplace_back();
    }
  }
  std::vector<Association>& rest = overflow_[s.overflow];
  Association assoc{segment, ts, seen};
  if (ts < s.firstSeen) {
    // New oldest: it takes the inline seat; the previous oldest re-enters
    // the history at the front (it precedes everything in the overflow).
    const Association prev = s.inlineAssoc();
    s.setInlineAssoc(assoc);
    rest.insert(rest.begin(), prev);
  } else {
    // Timestamps come from a monotonic clock, so appends keep the history
    // sorted; guard anyway against out-of-order callers.
    if (!rest.empty() && rest.back().firstSeen > ts) {
      auto it = std::upper_bound(rest.begin(), rest.end(), ts,
                                 [](util::Timestamp t, const Association& a) {
                                   return t < a.firstSeen;
                                 });
      rest.insert(it, assoc);
    } else {
      rest.push_back(assoc);
    }
  }
  ++storedAssociations_;
  return true;
}

std::uint32_t HashDb::listOf(SegmentId segment) {
  if (segment == lastIndexed_) return lastIndexedList_;
  auto [it, inserted] = segmentList_.try_emplace(segment, 0);
  if (inserted) {
    if (!segmentHashesFree_.empty()) {
      it->second = segmentHashesFree_.back();
      segmentHashesFree_.pop_back();
    } else {
      it->second = static_cast<std::uint32_t>(segmentHashes_.size());
      segmentHashes_.emplace_back();
    }
  }
  lastIndexed_ = segment;
  lastIndexedList_ = it->second;
  return it->second;
}

void HashDb::indexAssociation(SegmentId segment, std::uint64_t hash) {
  SegmentHashes& list = segmentHashes_[listOf(segment)];
  if (hash <= 0xffffffffu) {
    list.narrow.push_back(static_cast<std::uint32_t>(hash));
  } else {
    list.wide.push_back(hash);
  }
}

void HashDb::rebuildIndex() {
  segmentList_.clear();
  segmentHashes_.clear();
  segmentHashesFree_.clear();
  lastIndexed_ = kInvalidSegment;
  // Count first, so each list is allocated once at its final size: growing
  // thousands of lists in hash order would leave the heap fragmented.
  std::vector<std::pair<std::size_t, std::size_t>> counts;
  forEachAssociation([&](std::uint64_t hash, SegmentId segment,
                         util::Timestamp, util::Timestamp) {
    const std::uint32_t list = listOf(segment);
    if (list >= counts.size()) counts.resize(list + 1);
    ++(hash <= 0xffffffffu ? counts[list].first : counts[list].second);
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    segmentHashes_[i].narrow.reserve(counts[i].first);
    segmentHashes_[i].wide.reserve(counts[i].second);
  }
  forEachAssociation([this](std::uint64_t hash, SegmentId segment,
                            util::Timestamp, util::Timestamp) {
    indexAssociation(segment, hash);
  });
}

std::optional<SegmentId> HashDb::oldestSegmentWith(std::uint64_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  // The inline association IS the oldest owner — the common single-owner
  // case answers from this one slot.
  return s.segment;
}

std::vector<SegmentId> HashDb::segmentsWith(std::uint64_t hash) const {
  std::vector<SegmentId> out;
  if (slots_.empty()) return out;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return out;
  out.push_back(s.segment);
  if (s.overflow != kNoOverflow) {
    const std::vector<Association>& rest = overflow_[s.overflow];
    out.reserve(1 + rest.size());
    for (const Association& a : rest) out.push_back(a.segment);
  }
  return out;
}

std::optional<util::Timestamp> HashDb::firstSeen(std::uint64_t hash,
                                                 SegmentId segment) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  if (s.segment == segment) return s.firstSeen;
  if (s.overflow != kNoOverflow) {
    for (const Association& a : overflow_[s.overflow]) {
      if (a.segment == segment) return a.firstSeen;
    }
  }
  return std::nullopt;
}

std::optional<util::Timestamp> HashDb::lastSeen(std::uint64_t hash,
                                                SegmentId segment) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(hash)];
  if (!s.used()) return std::nullopt;
  if (s.segment == segment) return s.lastSeen();
  if (s.overflow != kNoOverflow) {
    for (const Association& a : overflow_[s.overflow]) {
      if (a.segment == segment) return a.lastSeen;
    }
  }
  return std::nullopt;
}

void HashDb::vacate(std::size_t hole) noexcept {
  for (std::size_t j = (hole + 1) & mask_; slots_[j].used();
       j = (j + 1) & mask_) {
    // slots_[j] may fill the hole unless its home lies cyclically in
    // (hole, j] — then the hole is not on its probe path.
    if (((j - home(slots_[j].hash)) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void HashDb::removeAssociation(std::uint64_t hash, SegmentId segment) {
  const std::size_t i = probe(hash);
  Slot& s = slots_[i];
  if (!s.used()) return;
  if (s.segment == segment && s.overflow == kNoOverflow) {
    vacate(i);  // the hash's only association
    --occupied_;
    --storedAssociations_;
    return;
  }
  if (s.overflow == kNoOverflow) return;
  std::vector<Association>& rest = overflow_[s.overflow];
  if (s.segment == segment) {
    // The next-oldest owner takes the inline seat.
    s.setInlineAssoc(rest.front());
    rest.erase(rest.begin());
  } else {
    const auto it =
        std::find_if(rest.begin(), rest.end(), [&](const Association& a) {
          return a.segment == segment;
        });
    if (it == rest.end()) return;
    rest.erase(it);
  }
  if (rest.empty()) {
    overflowFree_.push_back(s.overflow);
    s.overflow = kNoOverflow;
  }
  --storedAssociations_;
}

void HashDb::removeSegment(SegmentId segment) {
  ++removalGeneration_;
  const auto it = segmentList_.find(segment);
  if (it == segmentList_.end()) return;
  SegmentHashes& list = segmentHashes_[it->second];
  for (std::uint32_t h : list.narrow) removeAssociation(h, segment);
  for (std::uint64_t h : list.wide) removeAssociation(h, segment);
  list = SegmentHashes{};  // releases the memory, not just the entries
  segmentHashesFree_.push_back(it->second);
  segmentList_.erase(it);
  if (lastIndexed_ == segment) lastIndexed_ = kInvalidSegment;
}

template <typename Keep>
std::size_t HashDb::rebuildFiltered(Keep&& keep) {
  const std::size_t before = storedAssociations_;
  // Pass 1: filter every history in place (a dropped inline association
  // is replaced by the oldest surviving one) and count what is left, so
  // the new table is allocated once at its final size.
  std::size_t survivors = 0;
  std::size_t kept = 0;
  for (Slot& s : slots_) {
    if (!s.used()) continue;
    std::vector<Association>* rest =
        s.overflow != kNoOverflow ? &overflow_[s.overflow] : nullptr;
    if (rest != nullptr) {
      std::erase_if(*rest, [&](const Association& a) { return !keep(a); });
    }
    if (!keep(s.inlineAssoc())) {
      if (rest == nullptr || rest->empty()) {
        s.segment = kInvalidSegment;
        continue;
      }
      s.setInlineAssoc(rest->front());
      rest->erase(rest->begin());
    }
    ++survivors;
    kept += 1 + (rest != nullptr ? rest->size() : 0);
  }

  // Pass 2: re-place the survivors. Histories move, not copy, into a
  // compacted overflow pool.
  std::vector<Slot> oldSlots = std::move(slots_);
  std::vector<std::vector<Association>> oldOverflow = std::move(overflow_);
  slots_.clear();
  overflow_.clear();
  overflowFree_.clear();
  mask_ = 0;
  if (survivors != 0) {
    // The growth rule of reserveForInsert, applied once: the smallest
    // power of two that holds `survivors` below ~70% load.
    std::size_t capacity = kInitialSlots;
    while (survivors * 10 >= capacity * 7) capacity *= 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
  }
  for (Slot& s : oldSlots) {
    if (!s.used()) continue;
    if (s.overflow != kNoOverflow) {
      std::vector<Association>& rest = oldOverflow[s.overflow];
      if (rest.empty()) {
        s.overflow = kNoOverflow;
      } else {
        s.overflow = static_cast<std::uint32_t>(overflow_.size());
        overflow_.push_back(std::move(rest));
      }
    }
    slots_[probe(s.hash)] = s;
  }
  occupied_ = survivors;
  storedAssociations_ = kept;
  rebuildIndex();
  return before - kept;
}

std::size_t HashDb::evictOlderThan(util::Timestamp cutoff) {
  // Retention keys on lastSeen, NOT firstSeen: an association first seen
  // before the cutoff but re-observed since is hot and must survive.
  const std::size_t dropped = rebuildFiltered(
      [&](const Association& a) { return a.lastSeen >= cutoff; });
  ++removalGeneration_;
  return dropped;
}

}  // namespace bf::flow
