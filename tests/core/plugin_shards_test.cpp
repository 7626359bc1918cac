// The plug-in over a sharded tracker (DESIGN.md §16): shards arrive
// through BrowserFlowConfig::tracker, and every plug-in path — the upload
// check's label reuse, durability and crash recovery — must answer the
// same at every shard count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/network.h"
#include "core/deployment.h"
#include "core/plugin.h"
#include "corpus/text_generator.h"
#include "flow/wal.h"
#include "text/segmenter.h"

namespace bf::core {
namespace {

constexpr std::size_t kShardCounts[] = {1, 4};
constexpr const char* kDocs = "https://docs.google.com";
constexpr const char* kItool = "https://itool.corp";

/// One browser with the plug-in installed and a Docs backend behind it.
struct Deployment {
  explicit Deployment(std::size_t shards)
      : rng(41), network(&rng), plugin(configFor(shards), &clock),
        browser(&network) {
    network.registerService(kDocs, &docsBackend);
    plugin.policy().services().upsert(
        {kItool, "Interview Tool", tdm::TagSet{"ti"}, tdm::TagSet{"ti"}});
    browser.addExtension(&plugin);
  }

  static BrowserFlowConfig configFor(std::size_t shards) {
    BrowserFlowConfig c;
    c.tracker.shards = shards;
    return c;
  }

  util::LogicalClock clock;
  util::Rng rng;
  cloud::SimNetwork network;
  cloud::DocsBackend docsBackend;
  BrowserFlowPlugin plugin;
  browser::Browser browser;
};

/// The canonical form e2ebench compares recovered answers in: every hit's
/// source, score and overlap, sorted.
std::string probeAnswer(const flow::FlowTracker& tracker,
                        const std::string& text) {
  std::vector<std::string> parts;
  for (const auto& h : tracker.checkText(text)) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.9f", h.score);
    parts.push_back(h.sourceName + "|" + score + "|" +
                    std::to_string(h.overlap));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const auto& p : parts) out += p + ";";
  return out;
}

TEST(PluginShardsTest, UploadReusesSuppressedParagraphLabel) {
  // A Docs paragraph carrying interview text is declassified by the user;
  // uploading that very paragraph again must reuse its (suppressed) label
  // through findSegmentWithFingerprint — while the same text headed out of
  // another document still violates.
  std::map<std::size_t, std::pair<Decision::Action, Decision::Action>> seen;
  for (std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Deployment d(shards);
    util::Rng textRng(77);
    corpus::TextGenerator gen(&textRng);
    const std::string secret = gen.paragraph(6, 9);
    d.plugin.observeServiceDocument(kItool, "https://itool.corp/eval/1",
                                    secret);
    browser::Page& page = d.browser.openTab("https://docs.google.com/d/reuse");
    cloud::DocsClient docs(page, "reuse");
    docs.openDocument();
    docs.insertParagraph(0, secret);
    const std::string name = d.plugin.segmentNameOf(docs.paragraphNode(0));
    ASSERT_FALSE(name.empty());
    ASSERT_TRUE(d.plugin.suppressTag("alice", name, "ti", "cleared").ok());

    const Decision same = d.plugin.decideUploadText(secret, page.url(), kDocs);
    const Decision other = d.plugin.decideUploadText(
        secret, "https://docs.google.com/d/other", kDocs);
    EXPECT_EQ(same.action, Decision::Action::kAllow);
    EXPECT_EQ(other.action, Decision::Action::kWarn);
    seen[shards] = {same.action, other.action};
  }
  EXPECT_EQ(seen[1], seen[4]);
}

TEST(PluginShardsTest, CrashRecoveryReproducesCheckTextAnswers) {
  // Type, paste and delete in a Docs tab through the simulated browser
  // with a DurabilityManager attached, drop the plug-in without a
  // checkpoint, and recover into a fresh one: tagged, typed and fresh
  // probe texts must get the pre-crash answers, at every shard count.
  std::map<std::size_t, std::vector<std::string>> answers;
  for (std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = "/tmp/bf_plugin_recovery_" +
                            std::to_string(static_cast<long>(::getpid())) +
                            "_" + std::to_string(shards);
    (void)std::system(("rm -rf '" + dir + "'").c_str());
    flow::DurabilityConfig dc;
    dc.directory = dir;
    dc.secret = "plugin-recovery-secret";
    dc.checkpointEveryRecords = 16;  // checkpoints roll mid-session

    std::vector<std::string> probes;
    std::vector<std::string> expected;
    {
      Deployment d(shards);
      flow::DurabilityManager dm(dc);
      ASSERT_TRUE(dm.recoverAndAttach(d.plugin.tracker()).ok());
      d.plugin.engine().setDurability(&dm);

      util::Rng textRng(78);
      corpus::TextGenerator gen(&textRng);
      const std::string tagged = gen.paragraph(6, 9) + "\n\n" +
                                 gen.paragraph(6, 9);
      d.plugin.observeServiceDocument(kItool, "https://itool.corp/eval/2",
                                      tagged);
      const auto taggedParas = text::segmentParagraphs(tagged);
      ASSERT_EQ(taggedParas.size(), 2u);
      const std::string typed = gen.paragraph(2, 3);

      browser::Page& page =
          d.browser.openTab("https://docs.google.com/d/crash");
      cloud::DocsClient docs(page, "crash");
      docs.openDocument();
      docs.insertParagraph(0, std::string(taggedParas[0].text));  // paste
      docs.insertParagraph(1, "");
      docs.typeText(1, typed);
      // Paste the second tagged paragraph, then delete it again: the
      // removal must reach the logs and replay to the same answers.
      docs.insertParagraph(2, std::string(taggedParas[1].text));
      const std::string pastedName =
          d.plugin.segmentNameOf(docs.paragraphNode(2));
      ASSERT_FALSE(pastedName.empty());
      ASSERT_NE(d.plugin.tracker().segmentByName(pastedName), nullptr);
      docs.deleteParagraph(2);
      ASSERT_EQ(d.plugin.tracker().segmentByName(pastedName), nullptr);

      probes = {std::string(taggedParas[0].text),
                std::string(taggedParas[1].text), typed,
                gen.paragraph(5, 7)};
      for (const auto& p : probes) {
        expected.push_back(probeAnswer(d.plugin.tracker(), p));
      }
      ASSERT_FALSE(expected[0].empty());
      ASSERT_FALSE(expected[2].empty());

      // Crash after the logs' last sync: no checkpoint, no clean shutdown.
      for (std::size_t k = 0; k < dm.shardCount(); ++k) {
        ASSERT_TRUE(dm.wal(k).sync().ok());
      }
      d.plugin.engine().setDurability(nullptr);
      for (std::size_t k = 0; k < d.plugin.tracker().shardCount(); ++k) {
        d.plugin.tracker().attachWal(nullptr, k);
      }
    }

    Deployment restarted(shards);
    flow::DurabilityManager dm(dc);
    auto recovered = dm.recoverAndAttach(restarted.plugin.tracker());
    ASSERT_TRUE(recovered.ok()) << recovered.errorMessage();
    EXPECT_GT(recovered.value().replayedRecords, 0u);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(probeAnswer(restarted.plugin.tracker(), probes[i]),
                expected[i])
          << "probe " << i;
    }
    for (std::size_t k = 0; k < restarted.plugin.tracker().shardCount(); ++k) {
      restarted.plugin.tracker().attachWal(nullptr, k);
    }
    answers[shards] = expected;
    (void)std::system(("rm -rf '" + dir + "'").c_str());
  }
  EXPECT_EQ(answers[1], answers[4]);
}

TEST(PluginShardsTest, DeploymentFileCarriesEveryShard) {
  // A deployment file holds one tracker blob per shard: it restores into a
  // plug-in with the same shard count, answers as before, and is refused
  // by a plug-in with another.
  const std::string path = "/tmp/bf_plugin_shards_deployment_" +
                           std::to_string(static_cast<long>(::getpid()));
  util::Rng textRng(79);
  corpus::TextGenerator gen(&textRng);
  const std::string secret = gen.paragraph(6, 9) + "\n\n" +
                             gen.paragraph(6, 9);
  const std::string probe(text::segmentParagraphs(secret)[1].text);
  std::string expected;
  {
    Deployment d(4);
    d.plugin.observeServiceDocument(kItool, "https://itool.corp/eval/3",
                                    secret);
    expected = probeAnswer(d.plugin.tracker(), probe);
    ASSERT_FALSE(expected.empty());
    ASSERT_TRUE(saveDeployment(d.plugin, path, "deployment-secret").ok());
  }
  // loadDeployment takes a fresh plug-in: empty tracker and policy.
  util::LogicalClock clock;
  BrowserFlowPlugin restored(Deployment::configFor(4), &clock);
  const auto loaded = loadDeployment(restored, path, "deployment-secret");
  ASSERT_TRUE(loaded.ok()) << loaded.errorMessage();
  EXPECT_EQ(probeAnswer(restored.tracker(), probe), expected);
  BrowserFlowPlugin single(Deployment::configFor(1), &clock);
  EXPECT_FALSE(loadDeployment(single, path, "deployment-secret").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bf::core
