// Differential test of HashDb against a reference model.
//
// Seeded trials drive one HashDb and a plain std::map model through the
// same random operations — new, repeated and out-of-order observations,
// multi-owner histories, segments re-observed under new hashes (stale
// associations), removal of live, already-removed and unknown segments,
// eviction and snapshot-style bulk restore — and compare every query
// answer after every operation.
// Most hashes are chosen so their home slots collide at the end of the
// table: probe chains are long and wrap past the last slot, which is where
// backward-shift deletion goes wrong if it goes wrong at all.
//
// Trials and seed are overridable for soak runs:
//   BF_HASHDB_MODEL_TRIALS (default 40)
//   BF_HASHDB_MODEL_SEED   (default 20261019)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "flow/hash_db.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

using Association = HashDb::Association;

/// Uniform in [0, n).
std::uint64_t below(util::Rng& rng, std::uint64_t n) {
  return rng.uniform(0, n - 1);
}

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// What HashDb promises, written the obvious way: per hash, the history
/// of associations ordered by firstSeen (ties in arrival order).
class Model {
 public:
  void record(std::uint64_t hash, SegmentId segment, util::Timestamp ts,
              util::Timestamp lastSeen) {
    const util::Timestamp seen = lastSeen != 0 ? lastSeen : ts;
    std::vector<Association>& hist = byHash_[hash];
    for (Association& a : hist) {
      if (a.segment == segment) {
        a.lastSeen = std::max(a.lastSeen, seen);
        return;
      }
    }
    const auto at = std::upper_bound(
        hist.begin(), hist.end(), ts,
        [](util::Timestamp t, const Association& a) {
          return t < a.firstSeen;
        });
    hist.insert(at, Association{segment, ts, seen});
  }

  void remove(SegmentId segment) {
    dropIf([&](const Association& a) { return a.segment == segment; });
  }

  std::size_t evict(util::Timestamp cutoff) {
    return dropIf([&](const Association& a) { return a.lastSeen < cutoff; });
  }

  [[nodiscard]] const std::vector<Association>* history(
      std::uint64_t hash) const {
    const auto it = byHash_.find(hash);
    return it == byHash_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t distinct() const { return byHash_.size(); }
  [[nodiscard]] std::size_t associations() const {
    std::size_t n = 0;
    for (const auto& [hash, hist] : byHash_) n += hist.size();
    return n;
  }
  [[nodiscard]] std::vector<std::tuple<std::uint64_t, SegmentId,
                                       util::Timestamp, util::Timestamp>>
  all() const {
    std::vector<std::tuple<std::uint64_t, SegmentId, util::Timestamp,
                           util::Timestamp>>
        out;
    for (const auto& [hash, hist] : byHash_) {
      for (const Association& a : hist) {
        out.emplace_back(hash, a.segment, a.firstSeen, a.lastSeen);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  template <typename Pred>
  std::size_t dropIf(Pred pred) {
    std::size_t dropped = 0;
    for (auto it = byHash_.begin(); it != byHash_.end();) {
      dropped += std::erase_if(it->second, pred);
      it = it->second.empty() ? byHash_.erase(it) : std::next(it);
    }
    return dropped;
  }

  std::map<std::uint64_t, std::vector<Association>> byHash_;
};

constexpr SegmentId kSegments = 10;  // live ids are 1..kSegments
constexpr SegmentId kUnknownSegment = 1000;

/// Hashes whose home slot is one of the last three of every table of 16,
/// 32 or 64 slots: they all collide, and their chains wrap past the end.
std::vector<std::uint64_t> collidingHashes(std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t h = 1; out.size() < n; ++h) {
    if ((util::mix64(h) & 63u) >= 61u) out.push_back(h);
  }
  return out;
}

::testing::AssertionResult matches(const HashDb& db, const Model& model,
                                   const std::vector<std::uint64_t>& hashes) {
  if (db.distinctHashCount() != model.distinct()) {
    return ::testing::AssertionFailure()
           << "distinctHashCount " << db.distinctHashCount() << " != "
           << model.distinct();
  }
  if (db.associationCount() != model.associations()) {
    return ::testing::AssertionFailure()
           << "associationCount " << db.associationCount()
           << " != " << model.associations();
  }
  for (std::uint64_t h : hashes) {
    const std::vector<Association>* hist = model.history(h);
    std::vector<SegmentId> want;
    if (hist != nullptr) {
      for (const Association& a : *hist) want.push_back(a.segment);
    }
    if (db.segmentsWith(h) != want) {
      return ::testing::AssertionFailure() << "segmentsWith(" << h << ")";
    }
    const std::optional<SegmentId> oldest = db.oldestSegmentWith(h);
    if (oldest.has_value() != !want.empty() ||
        (oldest.has_value() && *oldest != want.front())) {
      return ::testing::AssertionFailure() << "oldestSegmentWith(" << h << ")";
    }
    for (SegmentId s = 1; s <= kSegments; ++s) {
      std::optional<util::Timestamp> first;
      std::optional<util::Timestamp> last;
      if (hist != nullptr) {
        for (const Association& a : *hist) {
          if (a.segment == s) {
            first = a.firstSeen;
            last = a.lastSeen;
          }
        }
      }
      if (db.firstSeen(h, s) != first || db.lastSeen(h, s) != last) {
        return ::testing::AssertionFailure()
               << "firstSeen/lastSeen(" << h << ", " << s << ")";
      }
    }
  }
  std::vector<std::tuple<std::uint64_t, SegmentId, util::Timestamp,
                         util::Timestamp>>
      got;
  db.forEachAssociation([&](std::uint64_t hash, SegmentId segment,
                            util::Timestamp first, util::Timestamp last) {
    got.emplace_back(hash, segment, first, last);
  });
  std::sort(got.begin(), got.end());
  if (got != model.all()) {
    return ::testing::AssertionFailure() << "forEachAssociation differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(HashDbModelTest, MatchesReferenceModelUnderRandomOperations) {
  const std::uint64_t trials = envU64("BF_HASHDB_MODEL_TRIALS", 40);
  const std::uint64_t baseSeed = envU64("BF_HASHDB_MODEL_SEED", 20261019);
  constexpr int kOpsPerTrial = 300;

  const std::vector<std::uint64_t> colliding = collidingHashes(24);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = baseSeed + trial;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    // Mostly colliding hashes, plus a few scattered ones that the shifted
    // clusters have to step around.
    std::vector<std::uint64_t> pool = colliding;
    for (int i = 0; i < 6; ++i) pool.push_back(rng.next());
    // Probe set: every pool hash and one never recorded.
    std::vector<std::uint64_t> probes = pool;
    probes.push_back(collidingHashes(25).back());

    HashDb db;
    Model model;
    util::Timestamp clock = 1000;
    for (int op = 0; op < kOpsPerTrial; ++op) {
      const std::uint64_t roll = below(rng, 100);
      std::string what;
      if (roll < 55) {
        // One segment observed with a handful of hashes at one time: new
        // associations, repeats (lastSeen advances) and, with an older
        // timestamp, out-of-order inserts into the middle of histories.
        const SegmentId segment = 1 + below(rng, kSegments);
        clock += 1 + below(rng, 5);
        const util::Timestamp ts =
            below(rng, 5) == 0 ? clock - 1 - below(rng, 900) : clock;
        const util::Timestamp lastSeen =
            below(rng, 4) == 0 ? ts + below(rng, 50) : 0;
        const std::uint64_t count = 1 + below(rng, 6);
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t h = pool[below(rng, pool.size())];
          db.recordObservation(h, segment, ts, lastSeen);
          model.record(h, segment, ts, lastSeen);
        }
        what = "record segment " + std::to_string(segment);
      } else if (roll < 90) {
        // Live, already-removed or never-seen ids alike.
        const SegmentId segment =
            below(rng, 8) == 0 ? kUnknownSegment : 1 + below(rng, kSegments);
        const std::uint64_t generation = db.removalGeneration();
        db.removeSegment(segment);
        model.remove(segment);
        ASSERT_EQ(db.removalGeneration(), generation + 1);
        what = "remove segment " + std::to_string(segment);
      } else if (roll < 95) {
        const util::Timestamp cutoff = clock - below(rng, 400);
        ASSERT_EQ(db.evictOlderThan(cutoff), model.evict(cutoff))
            << "evictOlderThan(" << cutoff << ")";
        what = "evict before " + std::to_string(cutoff);
      } else {
        // A snapshot round trip: the associations in (hash, firstSeen)
        // order, ties kept in history order, bulk-restored into a fresh
        // store that must then behave exactly like the old one.
        std::vector<HashDb::StoredAssociation> exported;
        db.forEachAssociation([&](std::uint64_t hash, SegmentId segment,
                                  util::Timestamp first, util::Timestamp last) {
          exported.push_back({hash, segment, first, last});
        });
        std::stable_sort(exported.begin(), exported.end(),
                         [](const auto& x, const auto& y) {
                           return std::tie(x.hash, x.firstSeen) <
                                  std::tie(y.hash, y.firstSeen);
                         });
        db = HashDb();
        db.restoreAssociations(exported);
        what = "restore " + std::to_string(exported.size()) + " associations";
      }
      ASSERT_TRUE(matches(db, model, probes))
          << "after op " << op << " (" << what << ")";
    }
  }
}

}  // namespace
}  // namespace bf::flow
