// Sharded crash-recovery property test (DESIGN.md §16).
//
// The single-tracker fuzz (recovery_fuzz_test.cpp) proves "recovery lands
// on a byte-exact prefix of history" for one WAL. Sharding splits that
// history into one log PER SHARD, so the oracle becomes per-shard: each
// trial runs a random mixed-tenant workload through a sharded FlowTracker
// with a DurabilityManager, records every shard's canonical state
// after every one of that shard's WAL sequences, crashes, corrupts ONE
// random shard's directory, and recovers fresh. Invariants:
//   * every shard recovers to a byte-exact prefix of ITS OWN history;
//   * shards whose directory was not corrupted lose nothing — damage
//     never propagates across shard boundaries;
//   * with no corruption, every shard recovers its full history.
//
// Every tracker mutation appends AT MOST ONE record to each shard's log
// (observe/remove/threshold/evict visit each shard once), so per-shard
// sequence boundaries are op boundaries and the oracle is total over
// reachable prefixes.
//
// Knobs for CI matrix legs and soak runs:
//   BF_SHARDED_FUZZ_TRIALS (default 60)
//   BF_SHARDED_FUZZ_SEED   (default 20260810)
//   BF_SHARDED_FUZZ_SHARDS (default 4, clamped to [1, 16])
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
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

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::vector<std::string> listFiles(const std::string& dir,
                                   std::string_view prefix,
                                   std::string_view suffix) {
  std::vector<std::string> out;
  for (const std::string& name : io::defaultVfs().listDir(dir)) {
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.push_back(dir + "/" + name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Applies one random corruption to one shard directory. Returns a
/// description for failure messages.
std::string corruptShardDir(util::Rng& rng, const std::string& dir) {
  const auto pickFrom = [&rng](const std::vector<std::string>& files) {
    return files[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(files.size() - 1)))];
  };
  switch (rng.uniform(0, 2)) {
    case 0: {  // truncate a WAL at a random offset
      const auto wals = listFiles(dir, "wal-", ".bfw");
      if (wals.empty()) return "none (no wal)";
      const std::string path = pickFrom(wals);
      std::string data = readFile(path);
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform(0, data.empty() ? 0 : data.size() - 1));
      data.resize(cut);
      writeFile(path, data);
      return "truncated " + path + " to " + std::to_string(cut);
    }
    case 1: {  // flip one bit somewhere in a WAL
      const auto wals = listFiles(dir, "wal-", ".bfw");
      if (wals.empty()) return "none (no wal)";
      const std::string path = pickFrom(wals);
      std::string data = readFile(path);
      if (data.empty()) return "none (empty wal)";
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform(0, data.size() - 1));
      data[at] = static_cast<char>(data[at] ^ (1u << rng.uniform(0, 7)));
      writeFile(path, data);
      return "flipped byte " + std::to_string(at) + " of " + path;
    }
    default: {  // delete the newest checkpoint
      const auto cps = listFiles(dir, "checkpoint-", ".bfc");
      if (cps.empty()) return "none (no checkpoint)";
      std::remove(cps.back().c_str());
      return "deleted " + cps.back();
    }
  }
}

TEST(ShardedRecoveryFuzzTest, EveryShardRecoversAPrefixOfItsOwnHistory) {
  const std::uint64_t trials = envU64("BF_SHARDED_FUZZ_TRIALS", 60);
  const std::uint64_t baseSeed = envU64("BF_SHARDED_FUZZ_SEED", 20260810);
  const std::size_t shards = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      envU64("BF_SHARDED_FUZZ_SHARDS", 4), 1, util::kMaxTrackerShards));
  const std::string baseDir = "/tmp/bf_sharded_fuzz_" +
                              std::to_string(static_cast<long>(::getpid()));

  std::uint64_t corruptTrials = 0;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = baseSeed + trial;
    util::Rng rng(seed);
    corpus::TextGenerator gen(&rng, /*vocabularySize=*/2000);
    const std::string dir = baseDir + "_" + std::to_string(trial);
    (void)std::system(("rm -rf '" + dir + "'").c_str());

    DurabilityConfig cfg;
    cfg.directory = dir;
    cfg.secret = rng.chance(0.5) ? "fuzz-secret" : "";
    // The cadence varies per trial, so chains of every shard roll their
    // checkpoints at different points of their histories.
    cfg.checkpointEveryRecords = rng.uniform(2, 10);
    cfg.keepGenerations = 0;  // keep everything: any prefix replayable

    TrackerConfig tcfg;
    tcfg.shards = shards;
    util::LogicalClock clock;
    FlowTracker tracker(tcfg, &clock);
    auto mgr = std::make_unique<DurabilityManager>(cfg);
    {
      auto boot = mgr->recoverAndAttach(tracker);
      ASSERT_TRUE(boot.ok()) << boot.errorMessage() << " (trial " << trial
                             << ", seed " << seed << ")";
    }

    // Per-shard oracle: shard k's canonical state after each of ITS
    // sequences.
    std::vector<std::map<std::uint64_t, std::string>> oracle(shards);
    const auto snapshotOracle = [&] {
      for (std::size_t k = 0; k < shards; ++k) {
        oracle[k][mgr->wal(k).nextSequence() - 1] = exportState(tracker, k);
      }
    };
    snapshotOracle();

    // Live (name, tenant) pairs for remove/threshold ops.
    std::vector<std::pair<std::string, TenantId>> live;
    const std::uint64_t ops = rng.uniform(10, 24);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const double dice = rng.uniform01();
      if (dice < 0.55 || live.empty()) {
        const TenantId tenant = rng.chance(0.3) ? 1 : kDefaultTenant;
        const std::string name = (tenant == 0 ? "f#p" : "g#p") +
                                 std::to_string(rng.uniform(0, 7));
        tracker.observeSegment(SegmentKind::kParagraph, name, "fuzz", "svc",
                               gen.paragraph(2, 4), std::nullopt, tenant);
        if (std::find(live.begin(), live.end(),
                      std::make_pair(name, tenant)) == live.end()) {
          live.emplace_back(name, tenant);
        }
      } else if (dice < 0.70) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform(0, live.size() - 1));
        tracker.removeSegmentByName(live[at].first, live[at].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (dice < 0.82) {
        const std::size_t at =
            static_cast<std::size_t>(rng.uniform(0, live.size() - 1));
        (void)tracker.setSegmentThreshold(live[at].first, rng.uniform01(),
                                          live[at].second);
      } else if (dice < 0.92) {
        (void)tracker.evictAssociationsOlderThan(rng.uniform(0, 60));
      } else {
        auto s = mgr->checkpoint(tracker);
        ASSERT_TRUE(s.ok()) << s.errorMessage();
      }
      auto due = mgr->maintain(tracker);
      ASSERT_TRUE(due.ok()) << due.errorMessage();
      snapshotOracle();
    }

    // Crash: detach every shard's WAL, drop the manager, corrupt ONE
    // random shard's directory (or none).
    for (std::size_t k = 0; k < shards; ++k) tracker.attachWal(nullptr, k);
    mgr.reset();
    std::string what = "none";
    std::size_t corruptedShard = shards;  // sentinel: none
    if (rng.chance(0.8)) {
      corruptedShard = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::uint64_t>(shards - 1)));
      what = corruptShardDir(
          rng, shards == 1
                   ? dir
                   : DurabilityManager::shardDirectory(dir, corruptedShard));
      ++corruptTrials;
    }

    util::LogicalClock clock2;
    FlowTracker recovered(tcfg, &clock2);
    DurabilityManager mgr2(cfg);
    auto stats = mgr2.recoverAndAttach(recovered);
    ASSERT_TRUE(stats.ok()) << stats.errorMessage() << " (trial " << trial
                            << ", seed " << seed << ", " << what << ")";
    clock2.advanceTo(stats.value().maxTimestamp + 1);
    for (std::size_t k = 0; k < shards; ++k) recovered.attachWal(nullptr, k);

    for (std::size_t k = 0; k < shards; ++k) {
      const std::uint64_t s = stats.value().shardSequences[k];
      ASSERT_EQ(oracle[k].count(s), 1u)
          << "shard " << k << " recovered to sequence " << s
          << " which is not an op boundary (trial " << trial << ", seed "
          << seed << ", " << what << ")";
      EXPECT_TRUE(exportState(recovered, k) == oracle[k][s])
          << "shard " << k << " state at sequence " << s
          << " diverges from its history (trial " << trial << ", seed "
          << seed << ", " << what << ")";
      // Isolation: only the corrupted shard may lose records.
      if (k != corruptedShard) {
        EXPECT_EQ(s, oracle[k].rbegin()->first)
            << "undamaged shard " << k << " lost records (trial " << trial
            << ", seed " << seed << ", corrupted shard "
            << (corruptedShard == shards
                    ? std::string("none")
                    : std::to_string(corruptedShard))
            << ", " << what << ")";
      }
    }

    if (::testing::Test::HasFailure()) {
      return;  // keep the failing trial's files for inspection
    }
    (void)std::system(("rm -rf '" + dir + "'").c_str());
  }
  if (trials >= 20) EXPECT_GT(corruptTrials, 0u);
}

}  // namespace
}  // namespace bf::flow
