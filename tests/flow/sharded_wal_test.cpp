// Tests for DurabilityManager over a sharded FlowTracker (DESIGN.md §16):
// one WAL + checkpoint generation chain per shard, per-shard recovery,
// index rebuild, and a directory layout tied to the shard count.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "flow/snapshot.h"
#include "flow/tracker.h"
#include "flow/wal.h"
#include "io/vfs.h"
#include "util/clock.h"
#include "util/rng.h"

namespace bf::flow {
namespace {

int countFiles(const std::string& dir, const std::string& suffix) {
  int n = 0;
  for (const std::string& name : io::defaultVfs().listDir(dir)) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

class ShardedWalTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  ShardedWalTest() : rng_(99), gen_(&rng_) {
    dir_ = "/tmp/bf_sharded_wal_test_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)std::system(("rm -rf '" + dir_ + "'").c_str());
  }

  ~ShardedWalTest() override {
    (void)std::system(("rm -rf '" + dir_ + "'").c_str());
  }

  static FlowTracker makeTracker(util::Clock* clock,
                                 std::size_t shards = kShards) {
    TrackerConfig cfg;
    cfg.shards = shards;
    return FlowTracker(cfg, clock);
  }

  DurabilityConfig configFor() {
    DurabilityConfig cfg;
    cfg.directory = dir_;
    cfg.checkpointEveryRecords = 1u << 30;
    return cfg;
  }

  static void detachAll(FlowTracker& t) {
    for (std::size_t k = 0; k < t.shardCount(); ++k) {
      t.attachWal(nullptr, k);
    }
  }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
  std::string dir_;
};

TEST_F(ShardedWalTest, ShardDirectoryNaming) {
  EXPECT_EQ(DurabilityManager::shardDirectory("/x", 0), "/x/shard-00");
  EXPECT_EQ(DurabilityManager::shardDirectory("/x", 7), "/x/shard-07");
  EXPECT_EQ(DurabilityManager::shardDirectory("/x", 15), "/x/shard-15");
}

TEST_F(ShardedWalTest, ShardCountMismatchIsAnError) {
  // A state directory written at one shard count routes hashes to the
  // wrong shards at another: recovery must refuse it, in either direction.
  {
    FlowTracker tracker = makeTracker(&clock_);
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(tracker).ok());
    detachAll(tracker);
  }
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, kShards + 1}) {
    util::LogicalClock clock;
    FlowTracker tracker = makeTracker(&clock, shards);
    DurabilityManager mgr(configFor());
    auto r = mgr.recoverAndAttach(tracker);
    EXPECT_FALSE(r.ok()) << "shards=" << shards;
    detachAll(tracker);
  }
  // A single-shard (flat) directory does not load into a sharded tracker.
  (void)std::system(("rm -rf '" + dir_ + "'").c_str());
  {
    util::LogicalClock clock;
    FlowTracker flat = makeTracker(&clock, 1);
    DurabilityManager mgr(configFor());
    ASSERT_TRUE(mgr.recoverAndAttach(flat).ok());
    detachAll(flat);
  }
  util::LogicalClock clock;
  FlowTracker tracker = makeTracker(&clock);
  DurabilityManager mgr(configFor());
  EXPECT_FALSE(mgr.recoverAndAttach(tracker).ok());
  detachAll(tracker);
}

TEST_F(ShardedWalTest, RecoveryReproducesEveryShardAndTheFacade) {
  FlowTracker tracker = makeTracker(&clock_);
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker).ok());
  ASSERT_EQ(mgr.shardCount(), kShards);

  // A mixed-tenant workload: observes, a removal, a threshold change.
  std::vector<std::string> texts;
  for (int i = 0; i < 5; ++i) texts.push_back(gen_.paragraph(4, 6));
  for (int i = 0; i < 5; ++i) {
    tracker.observeSegment(SegmentKind::kParagraph,
                           "w#p" + std::to_string(i), "w", "svc", texts[i],
                           std::nullopt, /*tenant=*/i % 2);
  }
  tracker.removeSegmentByName("w#p2", /*tenant=*/0);
  ASSERT_TRUE(tracker.setSegmentThreshold("w#p1", 0.7, /*tenant=*/1));
  for (std::size_t k = 0; k < kShards; ++k) {
    ASSERT_TRUE(mgr.wal(k).sync().ok());
  }

  std::vector<std::string> shardStates;
  for (std::size_t k = 0; k < kShards; ++k) {
    shardStates.push_back(exportState(tracker, k));
  }
  const auto liveHits0 = tracker.checkText(texts[4], "probe");  // tenant 0
  const auto liveHits1 = tracker.checkText(texts[3], "probe", 1);
  ASSERT_FALSE(liveHits0.empty());
  ASSERT_FALSE(liveHits1.empty());
  const TenantUsage liveUsage = tracker.tenantUsage(1);

  // Crash; recover into a fresh tracker.
  detachAll(tracker);
  util::LogicalClock clock2;
  FlowTracker restored = makeTracker(&clock2);
  DurabilityManager mgr2(configFor());
  auto stats = mgr2.recoverAndAttach(restored);
  ASSERT_TRUE(stats.ok()) << stats.errorMessage();
  clock2.advanceTo(stats.value().maxTimestamp + 1);
  detachAll(restored);

  ASSERT_EQ(stats.value().shardSequences.size(), kShards);
  EXPECT_GT(stats.value().replayedRecords, 0u);
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_EQ(exportState(restored, k), shardStates[k])
        << "shard " << k << " diverged across recovery";
  }

  // The rebuilt index answers the same queries and accounts the same.
  const auto hits0 = restored.checkText(texts[4], "probe");
  ASSERT_EQ(hits0.size(), liveHits0.size());
  EXPECT_EQ(hits0[0].sourceName, liveHits0[0].sourceName);
  EXPECT_DOUBLE_EQ(hits0[0].score, liveHits0[0].score);
  const auto hits1 = restored.checkText(texts[3], "probe", 1);
  ASSERT_EQ(hits1.size(), liveHits1.size());
  EXPECT_EQ(hits1[0].sourceName, liveHits1[0].sourceName);
  EXPECT_EQ(restored.tenantUsage(1).segments, liveUsage.segments);
  EXPECT_EQ(restored.tenantUsage(1).fingerprintBytes,
            liveUsage.fingerprintBytes);
  // The removed segment stayed removed.
  EXPECT_TRUE(restored.checkText(texts[2], "probe").empty());
}

TEST_F(ShardedWalTest, SingleShardKeepsTheFlatLayout) {
  FlowTracker tracker = makeTracker(&clock_, 1);
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker).ok());
  tracker.observeSegment(SegmentKind::kParagraph, "f#p0", "f", "svc",
                         gen_.paragraph(4, 6));
  ASSERT_TRUE(mgr.checkpoint(tracker).ok());
  EXPECT_GE(countFiles(dir_, ".bfc"), 1);
  EXPECT_GE(countFiles(dir_, ".bfw"), 1);
  for (const std::string& name : io::defaultVfs().listDir(dir_)) {
    EXPECT_EQ(name.rfind("shard-", 0), std::string::npos) << name;
  }
  detachAll(tracker);
}

TEST_F(ShardedWalTest, CheckpointAllRotatesEveryShard) {
  FlowTracker tracker = makeTracker(&clock_);
  DurabilityManager mgr(configFor());
  ASSERT_TRUE(mgr.recoverAndAttach(tracker).ok());
  tracker.observeSegment(SegmentKind::kParagraph, "c#p0", "c", "svc",
                         gen_.paragraph(4, 6));
  ASSERT_TRUE(mgr.checkpoint(tracker).ok());
  for (std::size_t k = 0; k < kShards; ++k) {
    const std::string d = DurabilityManager::shardDirectory(dir_, k);
    EXPECT_GE(countFiles(d, ".bfc"), 1) << d;
    EXPECT_GE(countFiles(d, ".bfw"), 1) << d;
  }
  EXPECT_TRUE(mgr.healthy());
  detachAll(tracker);
}

}  // namespace
}  // namespace bf::flow
