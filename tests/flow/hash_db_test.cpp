// Tests for HashDb ("DBhash", paper S4.3).
#include <gtest/gtest.h>

#include "flow/hash_db.h"

namespace bf::flow {
namespace {

TEST(HashDb, OldestSegmentIsFirstObserver) {
  HashDb db;
  db.recordObservation(42, 1, 10);
  db.recordObservation(42, 2, 20);
  ASSERT_TRUE(db.oldestSegmentWith(42).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(42), 1u);
}

TEST(HashDb, UnknownHash) {
  HashDb db;
  EXPECT_FALSE(db.oldestSegmentWith(99).has_value());
  EXPECT_TRUE(db.segmentsWith(99).empty());
}

TEST(HashDb, ReobservationKeepsOriginalTimestamp) {
  HashDb db;
  db.recordObservation(42, 1, 10);
  db.recordObservation(42, 1, 50);  // same (hash, segment) later
  ASSERT_TRUE(db.firstSeen(42, 1).has_value());
  EXPECT_EQ(*db.firstSeen(42, 1), 10u);
}

TEST(HashDb, SegmentsWithOrderedOldestFirst) {
  HashDb db;
  db.recordObservation(7, 3, 30);
  db.recordObservation(7, 1, 40);
  db.recordObservation(7, 2, 50);
  const auto segs = db.segmentsWith(7);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], 3u);
  EXPECT_EQ(segs[1], 1u);
  EXPECT_EQ(segs[2], 2u);
}

TEST(HashDb, OutOfOrderTimestampsSortedIn) {
  HashDb db;
  db.recordObservation(7, 1, 100);
  db.recordObservation(7, 2, 50);  // older than existing entry
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
}

TEST(HashDb, RemovedSegmentSkippedByLookups) {
  HashDb db;
  db.recordObservation(7, 1, 10);
  db.recordObservation(7, 2, 20);
  db.removeSegment(1);
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
  EXPECT_EQ(db.segmentsWith(7).size(), 1u);
  EXPECT_FALSE(db.firstSeen(7, 1).has_value());
}

TEST(HashDb, RemovalPromotesNextOldest) {
  // The authoritative source changes when the original is deleted —
  // provenance falls to the next-oldest copy.
  HashDb db;
  db.recordObservation(7, 1, 10);
  db.recordObservation(7, 2, 20);
  db.recordObservation(7, 3, 30);
  db.removeSegment(1);
  EXPECT_EQ(*db.oldestSegmentWith(7), 2u);
  db.removeSegment(2);
  EXPECT_EQ(*db.oldestSegmentWith(7), 3u);
  db.removeSegment(3);
  EXPECT_FALSE(db.oldestSegmentWith(7).has_value());
}

TEST(HashDb, RemovalGenerationBumps) {
  HashDb db;
  const auto g0 = db.removalGeneration();
  db.removeSegment(5);
  EXPECT_GT(db.removalGeneration(), g0);
}

TEST(HashDb, DistinctHashCount) {
  HashDb db;
  db.recordObservation(1, 1, 1);
  db.recordObservation(1, 2, 2);
  db.recordObservation(2, 1, 3);
  EXPECT_EQ(db.distinctHashCount(), 2u);
}

TEST(HashDb, EvictOlderThanDropsOldAssociations) {
  HashDb db;
  db.recordObservation(1, 1, 10);
  db.recordObservation(1, 2, 100);
  db.recordObservation(2, 1, 10);
  const std::size_t dropped = db.evictOlderThan(50);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(db.distinctHashCount(), 1u);  // hash 2 fully evicted
  EXPECT_EQ(*db.oldestSegmentWith(1), 2u);
}

TEST(HashDb, ReobservationAdvancesLastSeen) {
  HashDb db;
  db.recordObservation(42, 1, 10);
  ASSERT_TRUE(db.lastSeen(42, 1).has_value());
  EXPECT_EQ(*db.lastSeen(42, 1), 10u);
  db.recordObservation(42, 1, 70);
  EXPECT_EQ(*db.firstSeen(42, 1), 10u);  // provenance never moves
  EXPECT_EQ(*db.lastSeen(42, 1), 70u);   // retention stamp advances
  db.recordObservation(42, 1, 30);       // out-of-order replay
  EXPECT_EQ(*db.lastSeen(42, 1), 70u);   // max(), not last-write
}

TEST(HashDb, EvictionKeysOnLastSeenNotFirstSeen) {
  // Regression: eviction used to key on firstSeen, so an association first
  // seen long ago was dropped by the retention sweep even when it had been
  // re-observed seconds before — the hot copy vanished and the next upload
  // of the same text went undetected. Retention must key on lastSeen.
  HashDb db;
  db.recordObservation(1, 1, 10);  // cold: old and never re-observed
  db.recordObservation(2, 2, 10);  // hot: old first-seen...
  db.recordObservation(2, 2, 90);  // ...but re-observed recently
  const std::size_t dropped = db.evictOlderThan(50);
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(db.oldestSegmentWith(1).has_value());
  ASSERT_TRUE(db.oldestSegmentWith(2).has_value());
  EXPECT_EQ(*db.oldestSegmentWith(2), 2u);
  EXPECT_EQ(*db.firstSeen(2, 2), 10u);  // provenance stamp untouched
}

TEST(HashDb, RestorePathPassesExplicitLastSeen) {
  // Snapshot/WAL replay restores both stamps verbatim so a recovered store
  // makes the same eviction decisions as the original.
  HashDb db;
  db.recordObservation(7, 3, 10, /*lastSeen=*/80);
  EXPECT_EQ(*db.firstSeen(7, 3), 10u);
  EXPECT_EQ(*db.lastSeen(7, 3), 80u);
  EXPECT_EQ(db.evictOlderThan(50), 0u);  // lastSeen=80 keeps it alive
  EXPECT_EQ(db.evictOlderThan(81), 1u);
}

TEST(HashDb, RemovalVacatesHashImmediately) {
  // Removal is physical at once: nothing is left for a later eviction
  // sweep to purge.
  HashDb db;
  db.recordObservation(1, 1, 10);
  db.removeSegment(1);
  EXPECT_EQ(db.distinctHashCount(), 0u);
  EXPECT_EQ(db.associationCount(), 0u);
  EXPECT_EQ(db.evictOlderThan(0), 0u);
  EXPECT_EQ(db.distinctHashCount(), 0u);
}

TEST(HashDb, RemovalShrinksStoreImmediately) {
  // Removing a segment drops its associations from the store right away,
  // so lookups never pay for segments removed long ago.
  HashDb db;
  for (std::uint64_t h = 0; h < 100; ++h) {
    db.recordObservation(h, 1, 10);
    db.recordObservation(h, 2, 20);
  }
  ASSERT_EQ(db.associationCount(), 200u);
  db.removeSegment(1);
  EXPECT_EQ(db.associationCount(), 100u);  // store physically shrank
  EXPECT_EQ(db.distinctHashCount(), 100u);
  for (std::uint64_t h = 0; h < 100; ++h) {
    EXPECT_EQ(*db.oldestSegmentWith(h), 2u);
  }
  // Removing it again is a no-op.
  db.removeSegment(1);
  EXPECT_EQ(db.associationCount(), 100u);
}

TEST(HashDb, RemovalOfSeveralSegmentsLeavesOnlySurvivors) {
  HashDb db;
  for (std::uint64_t h = 0; h < 10; ++h) {
    db.recordObservation(h, 1, 10);
    db.recordObservation(h, 2, 20);
    db.recordObservation(h, 3, 30);
    db.recordObservation(h + 100, 4, 40);
  }
  db.removeSegment(1);
  db.removeSegment(2);
  EXPECT_EQ(db.associationCount(), 20u);
  db.removeSegment(3);
  EXPECT_EQ(db.associationCount(), 10u);   // only segment 4's remain
  EXPECT_EQ(db.distinctHashCount(), 10u);  // hashes 0..9 fully gone
  for (std::uint64_t h = 0; h < 10; ++h) {
    EXPECT_FALSE(db.oldestSegmentWith(h).has_value());
    EXPECT_EQ(*db.oldestSegmentWith(h + 100), 4u);
  }
}

TEST(HashDb, RemovalOfInlineOwnerPromotesOverflow) {
  HashDb db;
  db.recordObservation(1, 1, 10);
  db.recordObservation(1, 2, 20, /*lastSeen=*/60);
  db.removeSegment(1);
  EXPECT_EQ(db.associationCount(), 1u);
  EXPECT_EQ(*db.oldestSegmentWith(1), 2u);
  EXPECT_EQ(*db.firstSeen(1, 2), 20u);
  EXPECT_EQ(*db.lastSeen(1, 2), 60u);  // stamps survive the promotion
}

TEST(HashDb, ObservationAfterRemovalStartsFreshHistory) {
  // A removed segment can be re-observed later (e.g. restored from a
  // snapshot or re-created under the same id) without residue.
  HashDb db;
  db.recordObservation(1, 1, 10);
  db.removeSegment(1);
  ASSERT_FALSE(db.oldestSegmentWith(1).has_value());
  db.recordObservation(1, 1, 99);
  EXPECT_EQ(*db.oldestSegmentWith(1), 1u);
  EXPECT_EQ(*db.firstSeen(1, 1), 99u);  // fresh observation, fresh time
}

TEST(HashDb, RemovalCoversStaleAssociations) {
  // A re-fingerprinted segment keeps the associations of its earlier
  // fingerprints; removing it must drop those too.
  HashDb db;
  db.recordObservation(1, 7, 10);
  db.recordObservation(2, 7, 10);
  db.recordObservation(3, 7, 20);  // the segment's newer fingerprint
  db.removeSegment(7);
  EXPECT_EQ(db.distinctHashCount(), 0u);
  EXPECT_EQ(db.associationCount(), 0u);
}

TEST(HashDb, RemovalKeepsCollidingHashesReachable) {
  // Vacating a slot in the middle of a probe cluster must shift the rest
  // of the cluster back, or later members become unreachable.
  HashDb db;
  for (std::uint64_t h = 0; h < 2000; ++h) db.recordObservation(h, h + 1, h);
  for (std::uint64_t h = 0; h < 2000; h += 2) db.removeSegment(h + 1);
  EXPECT_EQ(db.distinctHashCount(), 1000u);
  for (std::uint64_t h = 0; h < 2000; ++h) {
    if (h % 2 == 0) {
      EXPECT_FALSE(db.oldestSegmentWith(h).has_value()) << h;
    } else {
      ASSERT_TRUE(db.oldestSegmentWith(h).has_value()) << h;
      EXPECT_EQ(*db.oldestSegmentWith(h), h + 1) << h;
    }
  }
}

TEST(HashDb, ManyHashesSurviveRehashing) {
  // Growth past several load-factor doublings must keep every history
  // intact (the rehash moves slots; overflow indices must stay valid).
  HashDb db;
  for (std::uint64_t h = 0; h < 5000; ++h) {
    db.recordObservation(h, (h % 7) + 1, h);
    if (h % 3 == 0) db.recordObservation(h, (h % 7) + 2, h + 1);
  }
  EXPECT_EQ(db.distinctHashCount(), 5000u);
  for (std::uint64_t h = 0; h < 5000; ++h) {
    ASSERT_TRUE(db.oldestSegmentWith(h).has_value()) << h;
    EXPECT_EQ(*db.oldestSegmentWith(h), (h % 7) + 1) << h;
    EXPECT_EQ(db.segmentsWith(h).size(), h % 3 == 0 ? 2u : 1u) << h;
  }
}

}  // namespace
}  // namespace bf::flow
