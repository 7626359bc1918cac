// The simulated deployment one benchmark run drives: corpus, cloud
// backends, network, BrowserFlow plug-in (optionally with durability),
// browser with probe extensions, and the open tabs of one user.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "browser/browser.h"
#include "cloud/docs_backend.h"
#include "cloud/docs_client.h"
#include "cloud/form_backend.h"
#include "cloud/network.h"
#include "cloud/notes_client.h"
#include "cloud/wiki_client.h"
#include "core/plugin.h"
#include "corpus/datasets.h"
#include "corpus/revision_model.h"
#include "corpus/text_generator.h"
#include "flow/wal.h"
#include "probes.h"
#include "util/clock.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace e2e {

inline constexpr const char* kBooksOrigin = "https://books.corp";
inline constexpr const char* kIntranetOrigin = "https://intranet.corp";
inline constexpr const char* kDocsOrigin = "https://docs.google.com";
inline constexpr const char* kWikiOrigin = "https://wiki.example.com";
inline constexpr const char* kNotesOrigin = "https://notes.example.com";

/// One step of the user's task cycle.
enum class Task {
  kNextDoc,     ///< switch to the next Docs document (round robin)
  kType,        ///< type a paragraph (a Fig. 12 shape)
  kDocsPaste,   ///< paste an excerpt into the current Docs document
  kDocsDelete,  ///< delete a random paragraph of the current document
  kWiki,        ///< save an excerpt through the Wiki form
  kNotes,       ///< save an excerpt as a Notes note (JSON XHR)
  kScan,        ///< load and scan an internal page
};

struct WorkloadSpec {
  std::string name;
  bf::core::EnforcementMode mode = bf::core::EnforcementMode::kWarn;
  bf::corpus::EbooksConfig books;
  bool durable = false;
  /// One Docs document per entry, pre-filled to that many paragraphs.
  std::vector<std::size_t> docLengths;
  /// docs_edit keeps what it types and pastes (its cycle deletes as many
  /// paragraphs as it adds, so documents stay at their length); the
  /// block-mode workloads delete their pastes right away.
  bool keepPastes = false;
  std::size_t maxExcerptParagraphs = 3;
  /// Scanned internal pages also serve as leak sources (write→read).
  bool scannedPagesAreSources = false;
  /// The user repeats this task cycle; content is drawn from the seed.
  std::vector<Task> cycle;
  /// Unmeasured cycles before the restart measurement and the window.
  std::size_t warmupCycles = 1;
  /// Cycles after which the task mix repeats; the window is a whole
  /// number of such blocks. In --trace 1, traced and untraced cycles
  /// alternate so that every block position is traced equally often.
  std::size_t blockCycles = 1;
  /// Window size: cycles per requested second, sized from runs on the
  /// reference host (README.md) so a window there takes about --seconds.
  double cyclesPerSecond = 1;
};

enum class TextKind { kVerbatim, kRevised, kFresh };

/// Text the user pastes, with its ground truth. A leak is text derived
/// from a tagged source (verbatim or lightly revised).
struct Excerpt {
  TextKind kind = TextKind::kFresh;
  bool leak = false;
  std::vector<std::string> paragraphs;
  /// Audit data: the source paragraph of each derived paragraph, and for
  /// revised ones the revised one-paragraph document (concept lineage).
  std::vector<const bf::corpus::Paragraph*> sources;
  std::vector<bf::corpus::VersionedDoc> revised;
};

struct DocsTab {
  bf::browser::Page* page = nullptr;
  std::unique_ptr<bf::cloud::DocsClient> client;
  std::string docId;
};

struct World {
  explicit World(const WorkloadSpec& spec) : spec(spec) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  ~World() {
    // Clients hold Page references; the browser closes the tabs (firing
    // onPageClosing on the extensions) before the plug-in goes away.
    docs.clear();
    wiki.reset();
    notes.reset();
    browser.reset();
    after.reset();
    before.reset();
    plugin.reset();
    durability.reset();
  }

  const WorkloadSpec& spec;

  // ---- corpus ---------------------------------------------------------------
  bf::corpus::EbooksDataset books;
  std::deque<bf::corpus::VersionedDoc> scannedPages;  // stable addresses
  /// fnv1a64 of every tagged paragraph, for the ground-truth audit.
  std::unordered_set<std::uint64_t> taggedParagraphs;
  double preloadObserveUs = 0;  ///< mean observeServiceDocument per book

  // ---- simulated cloud --------------------------------------------------------
  bf::util::LogicalClock clock;
  bf::util::Rng netRng{7};
  bf::cloud::SimNetwork network{&netRng};
  bf::cloud::DocsBackend docsBackend;
  bf::cloud::FormBackend wikiBackend;
  bf::cloud::NotesBackend notesBackend;

  // ---- instrumentation (traced run and self-test only) -------------------------
  HookTimes hooks;
  bool probesActive = false;
  std::unique_ptr<TimingSink> timingSink;

  // ---- the system under test -----------------------------------------------------
  std::string stateDir;
  std::unique_ptr<bf::flow::DurabilityManager> durability;
  std::unique_ptr<bf::core::BrowserFlowPlugin> plugin;
  std::unique_ptr<ProbeExtension> before, after;
  std::unique_ptr<bf::browser::Browser> browser;

  // ---- the user's tabs --------------------------------------------------------------
  std::vector<DocsTab> docs;
  std::unique_ptr<bf::cloud::WikiClient> wiki;
  std::unique_ptr<bf::cloud::NotesClient> notes;
  std::uint64_t nextScanPage = 0;
};

inline std::uint64_t paragraphKey(std::string_view text) {
  return bf::util::fnv1a64(text);
}

}  // namespace e2e
