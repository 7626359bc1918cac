// FlowTracker — imprecise data flow tracking facade (paper S4).
//
// Owns the two stores of S4.3 (HashDb = "DBhash", SegmentDb = "DBpar"),
// fingerprints observed text, and answers the information disclosure
// question: "what is the set of the original sources s in db that t
// discloses significant information from currently?" via Algorithm 1.
//
// Performance behaviour mirrors the paper (S6.2):
//  - observing an edit re-fingerprints only the edited segment;
//  - if the fingerprint is unchanged (the common case for one keystroke)
//    the previous disclosure answer is served from a per-segment cache;
//  - candidate sources are discovered only through shared hashes, so cost
//    is linear in the number of segments sharing at least one hash.
//
// Shards and tenants (DESIGN.md §16). The stores may be split into
// TrackerConfig::shards hash-space shards: shard k holds the grams whose
// hash routes to it (high half of mix64(hash), mod N) plus a metadata
// record of every segment, behind its own writer mutex, replica pair and
// WAL chain, so observations of distinct documents write in parallel. A hash value
// lives in exactly one shard, so per-shard authoritative overlaps sum to
// the global overlap and |F(source)| is the sum of the per-shard sizes:
// queries apply thresholds and Algorithm 1's early discard to those
// totals, which makes every answer identical for every shard count. At
// N = 1 the scoring path IS Algorithm 1 over one DBhash/DBpar pair.
//
// A TenantId (flow/ids.h) scopes every observation and query: tenant
// t != 0 salts its gram hashes (mix64(hash ^ salt(t))) and prefixes its
// segment names, queries drop other tenants' records, and per-tenant
// quotas evict a tenant's oldest segments first. Tenant 0 is unsalted and
// unprefixed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "flow/disclosure.h"
#include "flow/hash_db.h"
#include "flow/ids.h"
#include "flow/segment_db.h"
#include "obs/metrics.h"
#include "sec/sensitive.h"
#include "text/winnower.h"
#include "util/clock.h"
#include "util/left_right.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace bf::flow {

class WriteAheadLog;

/// Tracker configuration. Fingerprint defaults follow the paper's
/// evaluation setup (S6.1): 32-bit hashes, 15-char n-grams, 30-char
/// windows, T_par = T_doc = 0.5.
struct TrackerConfig {
  text::FingerprintConfig fingerprint;
  double defaultParagraphThreshold = 0.5;
  double defaultDocumentThreshold = 0.5;
  /// Skip sources living in the same document as the queried segment.
  bool excludeSameDocument = true;
  /// Use authoritative fingerprints (S4.3). Off only for ablation benches.
  bool useAuthoritative = true;
  /// Reuse the previous answer when a segment's fingerprint is unchanged.
  bool enableCache = true;
  /// Hash-space shards, clamped to [1, util::kMaxTrackerShards]. Each
  /// shard has its own writer mutex, store replicas and WAL chain; answers
  /// do not depend on the count.
  std::size_t shards = 1;
};

/// One disclosing source found by a query.
struct DisclosureHit {
  SegmentId source = kInvalidSegment;
  SegmentKind kind = SegmentKind::kParagraph;
  std::string sourceName;
  std::string sourceDocument;
  std::string sourceService;
  /// D(source, target) in [0, 1].
  double score = 0.0;
  /// |F_auth(source) ∩ F(target)|.
  std::size_t overlap = 0;
  /// |F(source)|.
  std::size_t sourceFingerprintSize = 0;
  /// The source's threshold that `score` met.
  double threshold = 0.0;
};

/// Point-in-time view of this tracker's counters, for tests and benches.
/// The live counters are atomics (queries run concurrently from the async
/// DecisionEngine worker and direct callers) and are mirrored into the
/// process-wide obs registry as bf_tracker_* metrics.
struct TrackerStats {
  std::uint64_t queries = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t candidatesInspected = 0;
  std::uint64_t fingerprintsComputed = 0;
};

/// Per-tenant policy: threshold defaults and storage quotas. All zeros /
/// nullopt = unlimited, tracker-config defaults.
struct TenantConfig {
  /// Default T_par / T_doc for this tenant's segments (nullopt = the
  /// tracker config's defaults).
  std::optional<double> paragraphThreshold;
  std::optional<double> documentThreshold;
  /// Maximum live segments for this tenant; 0 = unlimited. Exceeding it
  /// evicts the tenant's OLDEST segments (creation order) first.
  std::size_t maxSegments = 0;
  /// Approximate fingerprint-byte budget (kBytesPerHash per stored hash);
  /// 0 = unlimited. Same oldest-first eviction.
  std::uint64_t maxFingerprintBytes = 0;
};

/// Point-in-time accounting for one tenant.
struct TenantUsage {
  std::size_t segments = 0;
  std::uint64_t fingerprintHashes = 0;
  std::uint64_t fingerprintBytes = 0;  ///< hashes * kBytesPerHash
  std::uint64_t evictedSegments = 0;   ///< quota evictions so far
};

/// Thread safety — left-right replication (util/left_right.h, DESIGN.md
/// §15). Each shard's stores live in TWO complete replicas; a
/// LeftRightControl arbitrates which replica readers see. Queries
/// (disclosedSources, checkText, pairwiseDisclosure, attributeDisclosure,
/// findSegmentWithFingerprint, and sourcesForSegment's
/// unchanged-fingerprint fast path) take NO mutex at all: they register on
/// each shard's striped read indicator (wait-free, never retried) and read
/// the quiescent active replicas with plain loads. Mutations serialise per
/// shard on that shard's writer mutex (util::Mutex, rank
/// util::kRankTracker + k) and apply every change twice — first to the
/// replica no reader can see, then, after the flip-and-drain step, to the
/// other — so readers never observe a store mid-mutation and never block
/// behind a writer. A mutation visits the shards one at a time, under the
/// document's stripe mutex, so two mutations of one document reach every
/// shard in the same order.
///
/// Accessors that hand out pointers or references into the stores
/// (segment, segmentByName — hashDb, segmentDb) are only stable while no
/// concurrent mutation runs; callers that keep them across operations must
/// serialise externally (the engine's stateMutex_ provides this on the
/// decision path). Fingerprinting runs OUTSIDE all synchronisation: it is
/// pure CPU on immutable config, so concurrent observers only serialise on
/// store updates, not on hashing.
class FlowTracker {
 public:
  /// Estimated storage cost of one fingerprint hash (8-byte hash value
  /// plus amortised gram-position bookkeeping), used by the byte quota.
  static constexpr std::uint64_t kBytesPerHash = 12;

  /// `clock` provides observation timestamps; not owned, must outlive the
  /// tracker. The clock is only invoked under a shard's writer mutex
  /// (through the replay tape); shards may draw concurrently, so it must
  /// be thread-safe (LogicalClock and WallClock are).
  FlowTracker(TrackerConfig config, util::Clock* clock);
  ~FlowTracker();

  FlowTracker(const FlowTracker&) = delete;
  FlowTracker& operator=(const FlowTracker&) = delete;

  // ---- Observation (feeding the tracker) ----------------------------------

  /// Creates or updates a segment identified by its unique `name` (within
  /// `tenant`) with the given text. Fingerprints the text, records new
  /// hashes in DBhash, and stores the fingerprint in DBpar. Returns the
  /// segment id. `text` is raw document content: it enters as
  /// sec::SensitiveView and only its fingerprint (a declassification gate)
  /// is ever stored.
  SegmentId observeSegment(SegmentKind kind, std::string_view name,
                           std::string_view document,
                           std::string_view service, sec::SensitiveView text,
                           std::optional<double> threshold = std::nullopt,
                           TenantId tenant = kDefaultTenant);

  /// Observes a whole document: one document-kind segment named `docName`
  /// plus one paragraph-kind segment "docName#p<i>" per paragraph.
  /// Batched: all fingerprints are computed outside the locks (in parallel
  /// for large documents), then applied under ONE writer section per shard
  /// with a single gauge refresh.
  struct DocumentObservation {
    SegmentId document = kInvalidSegment;
    std::vector<SegmentId> paragraphs;
  };
  DocumentObservation observeDocument(
      std::string_view docName, std::string_view service,
      sec::SensitiveView fullText,
      std::optional<double> paragraphThreshold = std::nullopt,
      std::optional<double> documentThreshold = std::nullopt,
      TenantId tenant = kDefaultTenant);

  /// Removes a segment and all of its hash associations.
  void removeSegmentByName(std::string_view name,
                           TenantId tenant = kDefaultTenant);
  void removeSegment(SegmentId id);

  /// Updates a segment's disclosure threshold (paper S4.2: authors adjust
  /// T_par/T_doc "according to their requirements and the confidentiality
  /// of the text"). Invalidates cached decisions, since thresholds change
  /// which sources report. Returns false for unknown names.
  bool setSegmentThreshold(std::string_view name, double threshold,
                           TenantId tenant = kDefaultTenant);

  // ---- Queries (Algorithm 1) ----------------------------------------------
  // Hits report names and documents in the caller's (tenant's) namespace.

  /// Disclosing sources of kind `sourceKind` (within `tenant`) for an
  /// arbitrary unsalted fingerprint. `self` / `selfDocument` exclude the
  /// queried segment (Algorithm 1's "if p = P then continue") and, if
  /// configured, its document. Lock-free.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSources(
      const text::Fingerprint& target, SegmentKind sourceKind,
      SegmentId self = kInvalidSegment, std::string_view selfDocument = {},
      TenantId tenant = kDefaultTenant) const;

  /// Fingerprints `text` and queries paragraph-kind sources without
  /// registering anything — the "would uploading this leak?" path.
  /// Lock-free, like disclosedSources.
  [[nodiscard]] std::vector<DisclosureHit> checkText(
      sec::SensitiveView text, std::string_view excludeDocument = {},
      TenantId tenant = kDefaultTenant) const;

  /// Cached per-segment query: disclosing sources of the segment's current
  /// fingerprint. Serves the cached answer when the fingerprint (and the
  /// stores' removal generation) is unchanged since the last call — that
  /// fast path is a lock-free left-right read, so concurrent cached
  /// queries never serialise and never wait for writers; only a cache miss
  /// takes shard 0's writer mutex to install the recomputed answer in both
  /// replicas. Returns a copy of the hits.
  [[nodiscard]] std::vector<DisclosureHit> sourcesForSegment(SegmentId id);

  /// Pairwise disclosure score D(source, target) between two registered
  /// segments (used by effectiveness benches). Lock-free read.
  [[nodiscard]] double pairwiseDisclosure(SegmentId source,
                                          SegmentId target) const;

  /// Attribution (paper S4.1): which passages of the SOURCE segment does
  /// `target` disclose? Returns merged [begin, end) byte ranges into the
  /// source's original text, covering every authoritative source hash that
  /// also appears in the target. Empty if either side is unknown/empty.
  /// Lock-free read.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  attributeDisclosure(SegmentId source, const text::Fingerprint& target) const;

  /// The registered segment of `document` (within `tenant`) whose
  /// fingerprint has exactly the same hash set as `fp` (nullopt if none,
  /// or if fp is empty). Lets the upload path recognise "this outgoing
  /// text IS that tracked paragraph" and reuse its label — including user
  /// suppressions. Returns a COPY of the segment's metadata (name in the
  /// caller's namespace; fingerprint = `fp`): a pointer into the store
  /// would dangle the moment a concurrent observation re-applied to this
  /// replica. Lock-free read.
  [[nodiscard]] std::optional<SegmentRecord> findSegmentWithFingerprint(
      std::string_view document, const text::Fingerprint& fp,
      SegmentKind kind = SegmentKind::kParagraph,
      TenantId tenant = kDefaultTenant) const;

  // ---- Tenancy ---------------------------------------------------------------

  void setTenantConfig(TenantId tenant, TenantConfig config);
  [[nodiscard]] TenantUsage tenantUsage(TenantId tenant) const;

  // ---- Introspection -------------------------------------------------------
  // The pointer/reference accessors below escape all synchronisation by
  // design (snapshot export, tests, benches, the plug-in's lockState()
  // sections). They read the active replica and are safe only while no
  // concurrent mutation runs; the external-serialisation contract is
  // documented in the class comment. Segment records come from shard 0,
  // which holds every segment's metadata; at N > 1 their fingerprint is
  // shard 0's part only.

  [[nodiscard]] std::size_t shardCount() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const SegmentRecord* segment(SegmentId id) const;
  [[nodiscard]] const SegmentRecord* segmentByName(
      std::string_view name) const;
  /// The hash store of one shard for one tracking granularity. Paragraphs
  /// and documents are tracked independently (paper S4.1), so provenance
  /// ("oldest segment with hash h") is kind-local: a document fingerprint
  /// never steals authority from its own paragraphs.
  [[nodiscard]] const HashDb& hashDb(
      SegmentKind kind = SegmentKind::kParagraph,
      std::size_t shard = 0) const noexcept;
  [[nodiscard]] const SegmentDb& segmentDb(
      std::size_t shard = 0) const noexcept;
  [[nodiscard]] const TrackerConfig& config() const noexcept {
    return config_;
  }
  /// Store sizes read under left-right guards — safe against concurrent
  /// writers, unlike hashDb()/segmentDb(). Hash counts are summed over the
  /// shards; `segments` counts each segment once.
  struct StoreSizes {
    std::size_t paragraphHashes = 0;
    std::size_t documentHashes = 0;
    std::size_t segments = 0;
  };
  [[nodiscard]] StoreSizes storeSizes() const;

  /// Snapshot of this tracker's counters (the registry's bf_tracker_*
  /// metrics keep accumulating process-wide and are not reset by
  /// resetStats()).
  [[nodiscard]] TrackerStats stats() const noexcept {
    TrackerStats out;
    out.queries = stats_.queries.load(std::memory_order_relaxed);
    out.cacheHits = stats_.cacheHits.load(std::memory_order_relaxed);
    out.cacheMisses = stats_.cacheMisses.load(std::memory_order_relaxed);
    out.candidatesInspected =
        stats_.candidatesInspected.load(std::memory_order_relaxed);
    out.fingerprintsComputed =
        stats_.fingerprintsComputed.load(std::memory_order_relaxed);
    return out;
  }
  void resetStats() noexcept {
    stats_.queries.store(0, std::memory_order_relaxed);
    stats_.cacheHits.store(0, std::memory_order_relaxed);
    stats_.cacheMisses.store(0, std::memory_order_relaxed);
    stats_.candidatesInspected.store(0, std::memory_order_relaxed);
    stats_.fingerprintsComputed.store(0, std::memory_order_relaxed);
  }

  /// Fingerprint helper using this tracker's configuration. A declassification
  /// gate (sec/sensitive.h): the winnowed hash set is non-invertible.
  [[nodiscard]] text::Fingerprint fingerprintOf(sec::SensitiveView text) const {
    return text::fingerprintText(text.raw(), config_.fingerprint);
  }

  // ---- Maintenance ---------------------------------------------------------

  /// Drops all hash associations first seen before `cutoff` (the paper's
  /// "periodic removal of old fingerprints", S4.4). Segments themselves
  /// stay; they regain associations when next observed. Returns the number
  /// of associations dropped.
  std::size_t evictAssociationsOlderThan(util::Timestamp cutoff);

  // ---- Durability (flow/wal.h) ----------------------------------------------

  /// Attaches a write-ahead log to `shard`: every subsequent mutation of
  /// that shard appends one record inside the same writer section that
  /// applies it (on the FIRST of its two replica applications), so the
  /// log order is exactly the shard's mutation order and each mutation is
  /// logged exactly once. Pass nullptr to detach (recovery replays with the
  /// WAL detached so replay is not re-logged). The log is not owned and
  /// must outlive the attachment.
  void attachWal(WriteAheadLog* wal, std::size_t shard = 0);

  // ---- Persistence (flow/snapshot.h, flow/wal.h) ---------------------------
  // Snapshot import and WAL replay restore each shard from its own
  // checkpoint/WAL chain, so these primitives act on ONE shard and never
  // fan out. Names are internal (tenant-prefixed) names, as logged. They
  // leave the tenant index stale: call rebuildIndex() once the restore is
  // complete (importState and DurabilityManager::recoverAndAttach do).

  /// Restores a segment exported by flow::exportState(). The id and name
  /// must be unused in `shard`.
  void restoreSegment(SegmentRecord record, std::size_t shard = 0);

  /// Restores one hash association with its original first-seen and
  /// last-seen timestamps (lastSeen 0 means "same as firstSeen" — legacy
  /// WAL records predate the retention stamp).
  void restoreAssociation(SegmentKind kind, std::uint64_t hash,
                          SegmentId segment, util::Timestamp firstSeen,
                          util::Timestamp lastSeen = 0,
                          std::size_t shard = 0);

  /// Restores many hash associations of one kind under ONE writer section
  /// (snapshot import); each is logged like restoreAssociation.
  void restoreAssociations(
      SegmentKind kind, std::span<const HashDb::StoredAssociation> assocs,
      std::size_t shard = 0);

  /// Applies one WAL kSegmentObserved record: create-or-update the segment
  /// with the exact recorded ids, timestamps and fingerprint, recording the
  /// fingerprint's hash associations at the record's updatedAt (idempotent
  /// per (hash, segment), so re-observed hashes keep their original
  /// first-seen — the same outcome the live observation produced).
  void replaySegmentObserved(SegmentRecord record, std::size_t shard = 0);
  /// WAL kSegmentRemoved / kThresholdChanged / kAssociationsEvicted.
  void replaySegmentRemoved(SegmentId id, std::size_t shard);
  void replayThresholdChanged(std::string_view name, double threshold,
                              std::size_t shard);
  void replayAssociationsEvicted(util::Timestamp cutoff, std::size_t shard);

  /// Recomputes the name index, id counter and tenant accounting from the
  /// stores. Mutations must be quiesced.
  void rebuildIndex();

 private:
  struct CacheEntry {
    std::uint64_t fingerprintDigest = 0;
    std::uint64_t removalGeneration = 0;
    std::vector<DisclosureHit> hits;
    bool valid = false;
  };

  /// One complete replica of a shard's mutable state. Left-right keeps
  /// two of these; every mutation is applied to both (one at a time, with
  /// a reader drain in between), so either replica alone answers any
  /// query. The decision cache (used in shard 0 only) is replicated too: a
  /// cache fill is a store mutation like any other.
  struct Stores {
    HashDb hashes[2];  // indexed by SegmentKind
    SegmentDb segments;
    std::unordered_map<SegmentId, CacheEntry> cache;
  };

  /// Deterministic clock for double-applied mutations. The first
  /// application records every now() it draws; rewind() makes the second
  /// application replay the identical timestamps, keeping the two replicas
  /// bit-identical even though the underlying clock moved on between the
  /// applications.
  class ClockTape {
   public:
    explicit ClockTape(util::Clock* clock) noexcept : clock_(clock) {}
    [[nodiscard]] util::Timestamp now() {
      if (pos_ < tape_.size()) return tape_[pos_++];
      tape_.push_back(clock_->now());
      pos_ = tape_.size();
      return tape_.back();
    }
    void reset() noexcept {
      tape_.clear();
      pos_ = 0;
    }
    void rewind() noexcept { pos_ = 0; }

   private:
    util::Clock* clock_;
    std::vector<util::Timestamp> tape_;
    std::size_t pos_ = 0;
  };

  /// One writer domain: the grams whose hash routes here, plus a metadata
  /// record of every segment.
  struct Shard {
    Shard(util::Clock* clock, int rank, const char* lockName)
        : mutex(rank, lockName), tape(clock) {}
    /// Writer-side mutex: serialises this shard's mutations (and the clock
    /// tape and WAL they use). Readers never touch it.
    util::Mutex mutex;
    /// Left-right switch over `stores`.
    util::LeftRightControl lr;
    /// The two store replicas. NOT mutex-guarded by design: readers access
    /// the active replica with no lock at all; writers touch replicas only
    /// through mutateStores under `mutex`.
    Stores stores[2];
    ClockTape tape BF_GUARDED_BY(mutex);
    /// Optional durability log; not owned.
    WriteAheadLog* wal BF_GUARDED_BY(mutex) = nullptr;
    /// Active-replica sizes published for the store gauges.
    std::atomic<std::size_t> paragraphHashes{0};
    std::atomic<std::size_t> documentHashes{0};
    std::atomic<std::size_t> segments{0};

    [[nodiscard]] const Stores& active() const noexcept {
      return stores[static_cast<std::size_t>(lr.activeInstance())];
    }
  };

  /// Left-right read registration on every shard at once: the view reads
  /// each shard's quiescent active replica for its lifetime.
  class ReadView {
   public:
    explicit ReadView(const FlowTracker& tracker) noexcept;
    [[nodiscard]] const Stores& operator[](std::size_t k) const noexcept {
      return tracker_.shards_[k]->stores[static_cast<std::size_t>(
          guards_[k]->instance())];
    }

   private:
    const FlowTracker& tracker_;
    std::array<std::optional<util::LeftRightReadGuard>,
               util::kMaxTrackerShards>
        guards_;
  };

  /// A fingerprint as the shards see it: part(k) holds the grams whose
  /// (tenant-salted) hash routes to shard k. At N = 1 and tenant 0 it is
  /// the caller's fingerprint itself, uncopied, which must outlive it.
  class Routed {
   public:
    Routed(const FlowTracker& tracker, const text::Fingerprint& fp,
           TenantId tenant);
    [[nodiscard]] const text::Fingerprint& part(std::size_t k) const noexcept {
      return split_.empty() ? whole() : split_[k];
    }
    [[nodiscard]] std::size_t size() const noexcept { return whole().size(); }

   private:
    [[nodiscard]] const text::Fingerprint& whole() const noexcept {
      return salted_ ? *salted_ : *fp_;
    }
    const text::Fingerprint* fp_;
    std::optional<text::Fingerprint> salted_;
    std::vector<text::Fingerprint> split_;
  };

  /// Per-shard parts of a query target, and |F(target)|.
  struct TargetParts {
    std::array<const text::Fingerprint*, util::kMaxTrackerShards> part{};
    std::size_t size = 0;
  };

  /// One observation of one segment, fingerprinted and routed, awaiting
  /// its writer sections.
  struct PendingObserve {
    SegmentKind kind;
    std::string name;  ///< internal name
    Routed fingerprint;
    std::optional<double> threshold;
  };

  /// Tenant-index bookkeeping for one live segment.
  struct SegmentInfo {
    std::string name;  ///< internal name
    TenantId tenant = kDefaultTenant;
    std::uint64_t hashes = 0;  ///< |F(segment)| across all shards
  };
  struct TenantState {
    TenantConfig config;
    std::set<SegmentId> live;  ///< ids are assigned in creation order
    std::uint64_t totalHashes = 0;
    std::uint64_t evicted = 0;
  };

  [[nodiscard]] static std::uint64_t digestOf(const text::Fingerprint& fp);
  [[nodiscard]] static constexpr std::size_t idx(SegmentKind kind) noexcept {
    return static_cast<std::size_t>(kind);
  }
  /// "t<tenant>\x1f<name>" for tenant != 0; `name` verbatim for tenant 0.
  /// The unit separator cannot appear in caller names, so tenants never
  /// collide with each other or with tenant-0 names.
  [[nodiscard]] static std::string internalName(TenantId tenant,
                                                std::string_view name);
  [[nodiscard]] static std::string callerName(TenantId tenant,
                                              std::string name);
  [[nodiscard]] std::size_t shardOf(std::uint64_t hash) const noexcept;

  /// Writer protocol: applies `fn(Stores&, WriteAheadLog*)` to BOTH
  /// replicas of `sh`. The first application runs on the replica no reader
  /// is directed at, with the attached WAL (so each mutation is logged
  /// exactly once); then flipAndWait() publishes it and drains every reader
  /// from the old replica; then the second application re-converges that
  /// replica with a null WAL. The tape replays the first application's
  /// clock draws into the second, so the replicas stay identical. Returns
  /// the FIRST application's result.
  template <typename Fn>
  static auto mutateStores(Shard& sh, Fn&& fn) BF_REQUIRES(sh.mutex) {
    sh.tape.reset();
    using R = std::invoke_result_t<Fn&, Stores&, WriteAheadLog*>;
    if constexpr (std::is_void_v<R>) {
      fn(sh.stores[static_cast<std::size_t>(sh.lr.inactiveInstance())],
         sh.wal);
      sh.lr.flipAndWait();
      sh.tape.rewind();
      fn(sh.stores[static_cast<std::size_t>(sh.lr.inactiveInstance())],
         nullptr);
    } else {
      R out = fn(sh.stores[static_cast<std::size_t>(sh.lr.inactiveInstance())],
                 sh.wal);
      sh.lr.flipAndWait();
      sh.tape.rewind();
      fn(sh.stores[static_cast<std::size_t>(sh.lr.inactiveInstance())],
         nullptr);
      return out;
    }
  }

  /// Writes routed observations of one (internal) document: assigns ids,
  /// applies every observation to every shard (one writer section per
  /// shard), accounts and enforces the tenant's quota. Returns the ids in
  /// `ops` order.
  std::vector<SegmentId> writeObservations(std::vector<PendingObserve>& ops,
                                           std::string_view document,
                                           std::string_view service,
                                           TenantId tenant);
  /// Create-or-update of one segment in one replica of shard `sh`, with
  /// `fp` = the segment's part for that shard. On create the threshold is
  /// threshold.value_or(createThreshold); on update only an explicit
  /// threshold changes it.
  void observeIn(Shard& sh, Stores& s, WriteAheadLog* wal, SegmentId id,
                 const PendingObserve& op, std::string_view document,
                 std::string_view service, double createThreshold,
                 TenantId tenant, const text::Fingerprint& fp)
      BF_REQUIRES(sh.mutex);
  /// Removes `id` from one shard (logged there).
  void removeFromShard(std::size_t k, SegmentId id);
  bool setThresholdInShard(std::size_t k, std::string_view name,
                           double threshold);
  std::size_t evictInShard(std::size_t k, util::Timestamp cutoff);

  /// Algorithm 1 over the shards of `view`: candidates through shared
  /// hashes, |F(source)| and overlaps summed over shards, early discard and
  /// thresholds on the totals. `selfDocument` is an internal name.
  [[nodiscard]] std::vector<DisclosureHit> disclosedSourcesIn(
      const ReadView& view, const TargetParts& target, SegmentKind sourceKind,
      SegmentId self, std::string_view selfDocument, TenantId tenant) const;
  /// The stored parts of segment `id` (nullopt if shard 0 lacks it).
  [[nodiscard]] std::optional<TargetParts> storedParts(const ReadView& view,
                                                       SegmentId id) const;
  /// What a cached answer for a segment depends on: its fingerprint (every
  /// part) and the removal generation of its kind's hash stores.
  struct CacheKey {
    std::uint64_t digest = 0;
    std::uint64_t removalGeneration = 0;
  };
  [[nodiscard]] std::optional<CacheKey> cacheKey(const ReadView& view,
                                                 SegmentId id) const;

  /// Publishes `sh`'s active-replica sizes and the summed store gauges.
  void refreshStoreGauges(Shard& sh) const noexcept BF_REQUIRES(sh.mutex);

  [[nodiscard]] util::Mutex& stripeFor(std::string_view document);
  // Tenant index (indexMutex_).
  [[nodiscard]] SegmentId idForLocked(const std::string& name)
      BF_REQUIRES(indexMutex_);
  [[nodiscard]] double defaultThresholdLocked(SegmentKind kind,
                                              TenantId tenant) const
      BF_REQUIRES(indexMutex_);
  void accountLocked(SegmentId id, const std::string& name, TenantId tenant,
                     std::uint64_t hashes) BF_REQUIRES(indexMutex_);
  /// Pops oldest segments of `tenant` while it exceeds its quotas; never
  /// evicts `protect` (the segment just observed). Erases their
  /// accounting; the caller removes them from the shards.
  [[nodiscard]] std::vector<SegmentId> collectQuotaVictimsLocked(
      TenantId tenant, SegmentId protect) BF_REQUIRES(indexMutex_);
  void eraseLocked(SegmentId id) BF_REQUIRES(indexMutex_);

  /// Live per-instance counters behind the TrackerStats view. Incremented
  /// with relaxed atomics from const query paths, which the async decision
  /// worker and direct callers reach concurrently.
  struct AtomicStats {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> candidatesInspected{0};
    std::atomic<std::uint64_t> fingerprintsComputed{0};
  };

  TrackerConfig config_;  // immutable after construction
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Same-document serialisation across the shard visits of a mutation,
  /// keyed by internal document name (rank kRankTrackerStripe, held across
  /// the whole mutation, above the briefly-held index mutex).
  static constexpr std::size_t kStripes = 16;
  struct Stripe {
    util::Mutex m{util::kRankTrackerStripe, "FlowTracker.stripe"};
  };
  Stripe stripes_[kStripes];

  /// Name → id index, id counter and tenant accounting (rank
  /// kRankTrackerIndex; held briefly, never across a shard's writer
  /// section).
  mutable util::Mutex indexMutex_{util::kRankTrackerIndex,
                                  "FlowTracker.index"};
  std::unordered_map<std::string, SegmentId> nameIndex_
      BF_GUARDED_BY(indexMutex_);
  std::unordered_map<SegmentId, SegmentInfo> segments_
      BF_GUARDED_BY(indexMutex_);
  std::unordered_map<TenantId, TenantState> tenants_
      BF_GUARDED_BY(indexMutex_);
  SegmentId nextId_ BF_GUARDED_BY(indexMutex_) = 1;

  mutable AtomicStats stats_;
};

}  // namespace bf::flow
