// Tests for FlowTracker's hash-space shards and tenants (DESIGN.md §16):
// answers must be byte-identical for every shard count — pinned against
// goldens recorded from the single-writer tracker — and tenants must be
// hard-isolated: hits, segment namespaces and quota accounting never cross
// a tenant boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/text_generator.h"
#include "flow/tracker.h"
#include "util/clock.h"

namespace bf::flow {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 4, 16};

/// Canonical rendering of a hit list: any divergence between shard counts
/// shows up as a string diff.
std::string dump(const std::vector<DisclosureHit>& hits) {
  std::ostringstream out;
  for (const DisclosureHit& h : hits) {
    out << h.source << '|' << static_cast<int>(h.kind) << '|' << h.sourceName
        << '|' << h.sourceDocument << '|' << h.sourceService << '|' << h.score
        << '|' << h.overlap << '|' << h.sourceFingerprintSize << '|'
        << h.threshold << '\n';
  }
  return out.str();
}

std::string dumpRanges(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::ostringstream out;
  for (const auto& [begin, end] : ranges) out << begin << '-' << end << ';';
  return out.str();
}

class ShardedTrackerTest : public ::testing::Test {
 protected:
  ShardedTrackerTest() : rng_(777), gen_(&rng_) {}

  FlowTracker makeTracker(std::size_t shards) {
    TrackerConfig cfg;
    cfg.shards = shards;
    return FlowTracker(cfg, &clock_);
  }

  std::string paragraph() { return gen_.paragraph(5, 8); }

  util::LogicalClock clock_;
  util::Rng rng_;
  corpus::TextGenerator gen_;
};

TEST_F(ShardedTrackerTest, ShardOfPartitionsTheHashSpace) {
  // Every stored hash lives in exactly one shard: the per-shard stores of
  // an N-shard tracker partition the single-shard tracker's hash set.
  const std::string text = paragraph();
  FlowTracker one = makeTracker(1);
  FlowTracker four = makeTracker(4);
  ASSERT_EQ(four.shardCount(), 4u);
  one.observeSegment(SegmentKind::kParagraph, "p#p0", "p", "svc", text);
  const SegmentId id =
      four.observeSegment(SegmentKind::kParagraph, "p#p0", "p", "svc", text);
  std::size_t total = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    total += four.hashDb(SegmentKind::kParagraph, k).distinctHashCount();
  }
  EXPECT_EQ(total, one.hashDb().distinctHashCount());
  const text::Fingerprint fp = one.fingerprintOf(text);
  for (std::uint64_t h : fp.hashes()) {
    int owners = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      if (four.hashDb(SegmentKind::kParagraph, k).oldestSegmentWith(h) == id) {
        ++owners;
      }
    }
    EXPECT_EQ(owners, 1) << "hash " << h;
  }
}

TEST_F(ShardedTrackerTest, ShardCountClampedToSupportedRange) {
  EXPECT_EQ(makeTracker(0).shardCount(), 1u);
  EXPECT_EQ(makeTracker(64).shardCount(),
            static_cast<std::size_t>(util::kMaxTrackerShards));
}

TEST_F(ShardedTrackerTest, MergedHitsIdenticalAcrossShardCounts) {
  // The invariant: hash→shard routing splits fingerprints into disjoint
  // parts, so per-shard overlaps sum to the global overlap and the answer
  // is EXACT — the same ids, names, scores, thresholds, overlap counts and
  // sort order at every shard count as the single-writer tracker gave.
  std::vector<std::string> secrets;
  for (int i = 0; i < 6; ++i) secrets.push_back(paragraph());
  // Probes: verbatim copy, two-source splice, copy + fresh tail, fresh.
  const std::vector<std::string> probes = {
      secrets[0],
      secrets[1] + " " + secrets[2],
      secrets[3] + " " + paragraph(),
      paragraph(),
  };
  // Recorded from the single-writer tracker before shards were folded in.
  const std::vector<std::string> golden = {
      "1|0|doc0#p0|doc0|svc|1|99|99|0.5\n",
      "2|0|doc0#p1|doc0|svc|1|85|85|0.5\n"
      "3|0|doc1#p0|doc1|svc|0.988636|87|88|0.5\n",
      "4|0|doc1#p1|doc1|svc|0.972477|106|109|0.5\n",
      "",
  };

  for (std::size_t shards : kShardCounts) {
    FlowTracker t = makeTracker(shards);
    for (std::size_t i = 0; i < secrets.size(); ++i) {
      t.observeSegment(SegmentKind::kParagraph,
                       "doc" + std::to_string(i / 2) + "#p" +
                           std::to_string(i % 2),
                       "doc" + std::to_string(i / 2), "svc", secrets[i]);
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(dump(t.checkText(probes[p], "probe-doc")), golden[p])
          << "shards=" << shards << " probe=" << p;
    }
  }
}

TEST_F(ShardedTrackerTest, Utf8ContentRoutesIdenticallyAcrossShardCounts) {
  // Multi-byte UTF-8 (CJK, emoji, ZWJ sequences) must route and merge
  // exactly like ASCII: the hash→shard function sees gram hashes, never
  // raw bytes, so shard count cannot change the answer.
  std::string secret;
  for (int i = 0; i < 12; ++i) {
    secret += "caf\xC3\xA9 \xE6\xBC\xA2\xE5\xAD\x97 \xF0\x9F\x94\x92 "
              "\xF0\x9F\x91\xA8\xE2\x80\x8D\xF0\x9F\x91\xA9 plan ";
    secret += std::to_string(i);
  }
  FlowTracker reference = makeTracker(1);
  reference.observeSegment(SegmentKind::kParagraph, "u#p0", "u", "svc",
                           secret);
  const std::string expected = dump(reference.checkText(secret, "probe"));
  ASSERT_FALSE(expected.empty());

  for (std::size_t shards : kShardCounts) {
    FlowTracker t = makeTracker(shards);
    t.observeSegment(SegmentKind::kParagraph, "u#p0", "u", "svc", secret);
    EXPECT_EQ(dump(t.checkText(secret, "probe")), expected)
        << "shards=" << shards;
  }
}

TEST_F(ShardedTrackerTest, DocumentObservationIdenticalAcrossShardCounts) {
  const std::string doc = paragraph() + "\n\n" + paragraph() + "\n\n" +
                          paragraph();
  const std::string copiedParagraph = doc.substr(0, doc.find("\n\n"));
  // Recorded from the single-writer tracker before shards were folded in.
  const std::string golden = "2|0|notes/a#p0|notes/a|notes|1|88|88|0.5\n";

  for (std::size_t shards : kShardCounts) {
    FlowTracker t = makeTracker(shards);
    const auto obs = t.observeDocument("notes/a", "notes", doc);
    EXPECT_EQ(obs.document, 1u) << "shards=" << shards;
    EXPECT_EQ(obs.paragraphs, (std::vector<SegmentId>{2, 3, 4}))
        << "shards=" << shards;
    EXPECT_EQ(dump(t.checkText(copiedParagraph, "b")), golden)
        << "shards=" << shards;
  }
}

TEST_F(ShardedTrackerTest, PairwiseAndAttributionMatchUnsharded) {
  const std::string src = paragraph();
  const std::string probe = src + " " + paragraph();

  for (std::size_t shards : kShardCounts) {
    FlowTracker t = makeTracker(shards);
    const SegmentId id =
        t.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", src);
    ASSERT_EQ(id, 1u);
    // Recorded from the single-writer tracker before shards were folded in.
    EXPECT_EQ(dumpRanges(t.attributeDisclosure(id, t.fingerprintOf(probe))),
              "15-1033;")
        << "shards=" << shards;
    const SegmentId id2 =
        t.observeSegment(SegmentKind::kParagraph, "t#p0", "t", "svc", probe);
    ASSERT_EQ(id2, 2u);
    EXPECT_DOUBLE_EQ(t.pairwiseDisclosure(id, id2), 1.0)
        << "shards=" << shards;
  }
}

TEST_F(ShardedTrackerTest, SameDocumentSourcesExcluded) {
  FlowTracker t = makeTracker(4);
  const std::string text = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "doc#p0", "doc", "svc", text);
  EXPECT_TRUE(t.checkText(text, "doc").empty());
  EXPECT_FALSE(t.checkText(text, "otherdoc").empty());
}

TEST_F(ShardedTrackerTest, RemoveAndRethresholdFanOut) {
  FlowTracker t = makeTracker(4);
  const std::string text = paragraph();
  const SegmentId id =
      t.observeSegment(SegmentKind::kParagraph, "r#p0", "r", "svc", text);
  ASSERT_FALSE(t.checkText(text, "probe").empty());

  // A raised threshold suppresses a partial copy but not a verbatim one.
  ASSERT_TRUE(t.setSegmentThreshold("r#p0", 0.99));
  const std::string partial = text.substr(0, text.size() / 2);
  EXPECT_TRUE(t.checkText(partial, "probe").empty());
  EXPECT_FALSE(t.checkText(text, "probe").empty());

  t.removeSegmentByName("r#p0");
  EXPECT_TRUE(t.checkText(text, "probe").empty());
  EXPECT_EQ(t.segment(id), nullptr);
}

TEST_F(ShardedTrackerTest, RepeatedQueriesHitTheDecisionCache) {
  // The per-keystroke fast path (paper S6.2) at every shard count: an
  // unchanged segment is answered from the cache, an edit recomputes.
  const std::string secret = paragraph();
  const std::string copy = secret + " " + paragraph();
  for (std::size_t shards : kShardCounts) {
    FlowTracker t = makeTracker(shards);
    t.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", secret);
    const SegmentId id =
        t.observeSegment(SegmentKind::kParagraph, "c#p0", "c", "svc", copy);
    const std::string first = dump(t.sourcesForSegment(id));
    ASSERT_FALSE(first.empty()) << "shards=" << shards;
    const TrackerStats before = t.stats();
    EXPECT_EQ(dump(t.sourcesForSegment(id)), first) << "shards=" << shards;
    EXPECT_EQ(dump(t.sourcesForSegment(id)), first) << "shards=" << shards;
    EXPECT_EQ(t.stats().cacheHits, before.cacheHits + 2)
        << "shards=" << shards;
    EXPECT_EQ(t.stats().cacheMisses, before.cacheMisses)
        << "shards=" << shards;

    // An edit that drops the copied passage invalidates the entry.
    t.observeSegment(SegmentKind::kParagraph, "c#p0", "c", "svc",
                     paragraph());
    EXPECT_TRUE(t.sourcesForSegment(id).empty()) << "shards=" << shards;
    EXPECT_EQ(t.stats().cacheMisses, before.cacheMisses + 1)
        << "shards=" << shards;
  }
}

// ---- Tenancy ---------------------------------------------------------------

TEST_F(ShardedTrackerTest, TenantsNeverSeeEachOthersHits) {
  FlowTracker t = makeTracker(4);
  const std::string shared = paragraph();
  // The SAME text observed by two tenants and by the default tenant.
  t.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc", shared,
                   std::nullopt, /*tenant=*/1);
  t.observeSegment(SegmentKind::kParagraph, "b#p0", "b", "svc", shared,
                   std::nullopt, /*tenant=*/2);
  t.observeSegment(SegmentKind::kParagraph, "c#p0", "c", "svc", shared);

  const auto hits1 = t.checkText(shared, "probe", /*tenant=*/1);
  ASSERT_EQ(hits1.size(), 1u);
  EXPECT_EQ(hits1[0].sourceName, "a#p0");  // reported un-prefixed
  EXPECT_EQ(hits1[0].sourceDocument, "a");

  const auto hits2 = t.checkText(shared, "probe", /*tenant=*/2);
  ASSERT_EQ(hits2.size(), 1u);
  EXPECT_EQ(hits2[0].sourceName, "b#p0");

  const auto hits0 = t.checkText(shared, "probe");
  ASSERT_EQ(hits0.size(), 1u);
  EXPECT_EQ(hits0[0].sourceName, "c#p0");

  // A tenant with no observations sees nothing, even for identical text.
  EXPECT_TRUE(t.checkText(shared, "probe", /*tenant=*/3).empty());
}

TEST_F(ShardedTrackerTest, TenantNamespacesAreIndependent) {
  FlowTracker t = makeTracker(4);
  const std::string textA = paragraph();
  const std::string textB = paragraph();
  // The SAME caller-visible name in two tenants refers to two segments.
  const SegmentId a = t.observeSegment(SegmentKind::kParagraph, "n#p0", "n",
                                       "svc", textA, std::nullopt, 1);
  const SegmentId b = t.observeSegment(SegmentKind::kParagraph, "n#p0", "n",
                                       "svc", textB, std::nullopt, 2);
  EXPECT_NE(a, b);

  // Tenant-scoped removal only touches that tenant's segment.
  t.removeSegmentByName("n#p0", /*tenant=*/1);
  EXPECT_TRUE(t.checkText(textA, "probe", 1).empty());
  EXPECT_FALSE(t.checkText(textB, "probe", 2).empty());
}

TEST_F(ShardedTrackerTest, TenantThresholdDefaultsApply) {
  FlowTracker t = makeTracker(4);
  TenantConfig strict;
  strict.paragraphThreshold = 0.99;
  t.setTenantConfig(1, strict);

  const std::string text = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", text,
                   std::nullopt, /*tenant=*/1);
  t.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", text);

  const std::string partial = text.substr(0, text.size() / 2);
  // Tenant 1's strict default suppresses the partial copy; the default
  // tenant's T_par = 0.5 reports it.
  EXPECT_TRUE(t.checkText(partial, "probe", 1).empty());
  EXPECT_FALSE(t.checkText(partial, "probe").empty());
}

TEST_F(ShardedTrackerTest, SegmentQuotaEvictsOldestFirst) {
  FlowTracker t = makeTracker(4);
  TenantConfig quota;
  quota.maxSegments = 2;
  t.setTenantConfig(1, quota);

  std::vector<std::string> texts = {paragraph(), paragraph(), paragraph()};
  for (std::size_t i = 0; i < texts.size(); ++i) {
    t.observeSegment(SegmentKind::kParagraph, "q#p" + std::to_string(i), "q",
                     "svc", texts[i], std::nullopt, /*tenant=*/1);
  }

  const TenantUsage u = t.tenantUsage(1);
  EXPECT_EQ(u.segments, 2u);
  EXPECT_EQ(u.evictedSegments, 1u);
  // Oldest-first: p0 evicted, p1 and p2 still disclose.
  EXPECT_TRUE(t.checkText(texts[0], "probe", 1).empty());
  EXPECT_FALSE(t.checkText(texts[1], "probe", 1).empty());
  EXPECT_FALSE(t.checkText(texts[2], "probe", 1).empty());
}

TEST_F(ShardedTrackerTest, ByteQuotaEvictsButProtectsNewestObservation) {
  FlowTracker t = makeTracker(4);
  const std::string first = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "b#p0", "b", "svc", first,
                   std::nullopt, /*tenant=*/1);
  const TenantUsage afterFirst = t.tenantUsage(1);
  ASSERT_GT(afterFirst.fingerprintBytes, 0u);
  EXPECT_EQ(afterFirst.fingerprintBytes,
            afterFirst.fingerprintHashes * FlowTracker::kBytesPerHash);

  // A budget of exactly one fingerprint: the second observation evicts the
  // first...
  TenantConfig quota;
  quota.maxFingerprintBytes = afterFirst.fingerprintBytes;
  t.setTenantConfig(1, quota);
  const std::string second = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "b#p1", "b", "svc", second,
                   std::nullopt, /*tenant=*/1);
  EXPECT_EQ(t.tenantUsage(1).segments, 1u);
  EXPECT_TRUE(t.checkText(first, "probe", 1).empty());
  EXPECT_FALSE(t.checkText(second, "probe", 1).empty());

  // ...but a single over-budget segment is never evicted by its own
  // observation: the quota must not make the current observation vanish.
  TenantConfig tiny;
  tiny.maxFingerprintBytes = 1;
  t.setTenantConfig(2, tiny);
  const std::string big = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "h#p0", "h", "svc", big,
                   std::nullopt, /*tenant=*/2);
  EXPECT_EQ(t.tenantUsage(2).segments, 1u);
  EXPECT_FALSE(t.checkText(big, "probe", 2).empty());
}

TEST_F(ShardedTrackerTest, QuotaAccountingNeverCrossesTenants) {
  FlowTracker t = makeTracker(4);
  TenantConfig quota;
  quota.maxSegments = 1;
  t.setTenantConfig(1, quota);

  const std::string keep = paragraph();
  t.observeSegment(SegmentKind::kParagraph, "x#p0", "x", "svc", keep,
                   std::nullopt, /*tenant=*/2);
  const TenantUsage before2 = t.tenantUsage(2);

  // Tenant 1 churns through its 1-segment quota; tenant 2 must be
  // untouched — usage, eviction counters and query results.
  for (int i = 0; i < 4; ++i) {
    t.observeSegment(SegmentKind::kParagraph, "y#p" + std::to_string(i), "y",
                     "svc", paragraph(), std::nullopt, /*tenant=*/1);
  }
  EXPECT_EQ(t.tenantUsage(1).segments, 1u);
  EXPECT_EQ(t.tenantUsage(1).evictedSegments, 3u);

  const TenantUsage after2 = t.tenantUsage(2);
  EXPECT_EQ(after2.segments, before2.segments);
  EXPECT_EQ(after2.fingerprintBytes, before2.fingerprintBytes);
  EXPECT_EQ(after2.evictedSegments, 0u);
  EXPECT_FALSE(t.checkText(keep, "probe", 2).empty());
}

TEST_F(ShardedTrackerTest, StatsSumAcrossShards) {
  FlowTracker t = makeTracker(4);
  t.observeSegment(SegmentKind::kParagraph, "s#p0", "s", "svc", paragraph());
  const TrackerStats before = t.stats();
  (void)t.checkText(paragraph(), "probe");
  EXPECT_GT(t.stats().queries, before.queries);
}

TEST_F(ShardedTrackerTest, RebuildFromShardsRestoresFacadeState) {
  // The post-recovery path: the index rebuilt from the shard stores must
  // answer queries and continue id assignment exactly as before.
  FlowTracker t = makeTracker(4);
  const std::string text1 = paragraph();
  const std::string text2 = paragraph();
  const SegmentId a = t.observeSegment(SegmentKind::kParagraph, "a#p0", "a",
                                       "svc", text1, std::nullopt, 1);
  t.observeSegment(SegmentKind::kParagraph, "b#p0", "b", "svc", text2);
  const TenantUsage before = t.tenantUsage(1);

  t.rebuildIndex();

  EXPECT_EQ(t.tenantUsage(1).segments, before.segments);
  EXPECT_EQ(t.tenantUsage(1).fingerprintBytes, before.fingerprintBytes);
  EXPECT_FALSE(t.checkText(text1, "probe", 1).empty());
  EXPECT_FALSE(t.checkText(text2, "probe").empty());
  // Name index survived: re-observing "a#p0" for tenant 1 reuses its id.
  EXPECT_EQ(t.observeSegment(SegmentKind::kParagraph, "a#p0", "a", "svc",
                             text1, std::nullopt, 1),
            a);
  // The id counter moved past every recovered id.
  const SegmentId fresh = t.observeSegment(SegmentKind::kParagraph, "c#p0",
                                           "c", "svc", paragraph());
  EXPECT_GT(fresh, a);
}

/// e2ebench's canonical answer form: every hit's source name, score and
/// overlap, sorted — independent of segment ids and timestamps.
std::string canonicalAnswer(const std::vector<DisclosureHit>& hits) {
  std::vector<std::string> parts;
  for (const DisclosureHit& h : hits) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.9f", h.score);
    parts.push_back(h.sourceName + "|" + score + "|" +
                    std::to_string(h.overlap));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) out += p + ";";
  return out;
}

TEST_F(ShardedTrackerTest, RemovalLeavesTheStateOfNeverHavingObserved) {
  // Tracker A observes a mix of segments and then removes some; tracker B
  // observes the same mix without them. Removed segments are observed
  // first for text the survivors share (so they own hashes the survivors
  // inherit), and some segments are revised (so they carry stale
  // associations of their earlier fingerprints). Every probe — tagged,
  // revised and fresh — must then get the same answers from both.
  struct Observation {
    SegmentKind kind;
    std::string name;
    std::string document;
    std::string text;
    bool removed;
  };
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i) texts.push_back(paragraph());
  // A revision: the first sentence swapped for a fresh one.
  const auto revise = [&](const std::string& text) {
    return gen_.sentence() + text.substr(text.find(". ") + 1);
  };
  const std::string revised0 = revise(texts[0]);
  const std::string revised3 = revise(texts[3]);
  const std::vector<Observation> mix = {
      {SegmentKind::kParagraph, "r#p0", "r", texts[0], true},
      {SegmentKind::kParagraph, "r#p1", "r", texts[1], true},
      {SegmentKind::kDocument, "r", "r", texts[0] + "\n\n" + texts[1], true},
      {SegmentKind::kParagraph, "s#p0", "s", texts[0], false},
      {SegmentKind::kParagraph, "s#p1", "s", texts[2], false},
      {SegmentKind::kDocument, "s", "s", texts[0] + "\n\n" + texts[2], false},
      {SegmentKind::kParagraph, "r#p0", "r", revised0, true},
      {SegmentKind::kParagraph, "t#p0", "t", texts[1] + " " + texts[3], false},
      {SegmentKind::kParagraph, "u#p0", "u", texts[3], true},
      {SegmentKind::kParagraph, "t#p0", "t", revised3, false},
      {SegmentKind::kParagraph, "v#p0", "v", texts[4], false},
      {SegmentKind::kParagraph, "w#p0", "w", texts[4] + " " + texts[5], true},
      {SegmentKind::kDocument, "v", "v", texts[4] + "\n\n" + texts[5], false},
  };
  const std::vector<std::string> probes = {
      texts[0], texts[1], texts[2], texts[3], texts[4], texts[5],
      revised0, revised3, revise(texts[2]), revise(texts[4]),
      texts[6], texts[7] + " " + texts[6]};

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FlowTracker a = makeTracker(shards);
    FlowTracker b = makeTracker(shards);
    for (const Observation& o : mix) {
      a.observeSegment(o.kind, o.name, o.document, "svc", o.text);
      if (!o.removed) {
        b.observeSegment(o.kind, o.name, o.document, "svc", o.text);
      }
    }
    for (const Observation& o : mix) {
      if (o.removed) a.removeSegmentByName(o.name);
    }
    std::size_t nonEmpty = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const std::string want = canonicalAnswer(b.checkText(probes[i]));
      EXPECT_EQ(canonicalAnswer(a.checkText(probes[i])), want) << "probe " << i;
      const text::Fingerprint fp = b.fingerprintOf(probes[i]);
      EXPECT_EQ(
          canonicalAnswer(a.disclosedSources(fp, SegmentKind::kDocument)),
          canonicalAnswer(b.disclosedSources(fp, SegmentKind::kDocument)))
          << "document probe " << i;
      if (!want.empty()) ++nonEmpty;
    }
    EXPECT_GE(nonEmpty, 6u);  // the probes do reach the survivors
    for (SegmentKind kind : {SegmentKind::kParagraph, SegmentKind::kDocument}) {
      std::size_t hashesA = 0;
      std::size_t hashesB = 0;
      for (std::size_t k = 0; k < shards; ++k) {
        hashesA += a.hashDb(kind, k).associationCount();
        hashesB += b.hashDb(kind, k).associationCount();
      }
      EXPECT_EQ(hashesA, hashesB);  // nothing of the removed ones is left
    }
  }
}

}  // namespace
}  // namespace bf::flow
