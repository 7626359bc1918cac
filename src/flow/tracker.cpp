#include "flow/tracker.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "flow/wal.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "text/segmenter.h"
#include "util/hashing.h"

namespace bf::flow {

namespace {

/// Process-wide tracker metrics, resolved once. Per-tracker counters are
/// mirrored here; the gauges report the sizes of the most recently updated
/// tracker's stores (single-tracker processes, the common deployment, see
/// exact values; multi-tracker benches read per-instance stats()).
struct TrackerMetrics {
  obs::Counter* queries;
  obs::Counter* cacheHits;
  obs::Counter* cacheMisses;
  obs::Counter* candidates;
  obs::Counter* fingerprints;
  obs::Counter* quotaEvictions;
  obs::Gauge* dbhashParagraphHashes;
  obs::Gauge* dbhashDocumentHashes;
  obs::Gauge* dbparSegments;
};

const TrackerMetrics& trackerMetrics() {
  static const TrackerMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    TrackerMetrics out;
    out.queries = &r.counter("bf_tracker_queries_total",
                             "Disclosure queries answered (Algorithm 1)");
    out.cacheHits = &r.counter(
        "bf_tracker_cache_hits_total",
        "Per-segment queries served from the unchanged-fingerprint cache");
    out.cacheMisses =
        &r.counter("bf_tracker_cache_misses_total",
                   "Per-segment queries that recomputed disclosure");
    out.candidates = &r.counter("bf_tracker_candidates_inspected_total",
                                "Candidate sources scored during queries");
    out.fingerprints = &r.counter("bf_tracker_fingerprints_computed_total",
                                  "Text fingerprints computed");
    out.quotaEvictions =
        &r.counter("bf_tenant_quota_evictions_total",
                   "Segments evicted by per-tenant storage quotas");
    out.dbhashParagraphHashes =
        &r.gauge("bf_tracker_dbhash_paragraph_hashes",
                 "Distinct paragraph hashes in DBhash");
    out.dbhashDocumentHashes =
        &r.gauge("bf_tracker_dbhash_document_hashes",
                 "Distinct document hashes in DBhash");
    out.dbparSegments =
        &r.gauge("bf_tracker_dbpar_segments", "Live segments in DBpar");
    return out;
  }();
  return m;
}

/// observeDocument fans paragraph fingerprinting out across threads once a
/// document is large enough to amortise thread start-up.
constexpr std::size_t kMinParagraphsPerWorker = 4;
constexpr std::size_t kMaxFingerprintWorkers = 8;

/// Lock names must outlive the tracker (util::Mutex keeps the pointer).
constexpr const char* kShardLockNames[util::kMaxTrackerShards] = {
    "FlowTracker.shard00", "FlowTracker.shard01", "FlowTracker.shard02",
    "FlowTracker.shard03", "FlowTracker.shard04", "FlowTracker.shard05",
    "FlowTracker.shard06", "FlowTracker.shard07", "FlowTracker.shard08",
    "FlowTracker.shard09", "FlowTracker.shard10", "FlowTracker.shard11",
    "FlowTracker.shard12", "FlowTracker.shard13", "FlowTracker.shard14",
    "FlowTracker.shard15",
};

/// The part of a segment a shard does not store (torn mid-mutation).
const text::Fingerprint& emptyFingerprint() {
  static const text::Fingerprint empty;
  return empty;
}

std::uint64_t tenantSalt(TenantId tenant) noexcept {
  // Distinct non-zero salt per tenant; tenant 0 is never salted.
  return util::mix64(tenant ^ 0xb70d7c51a2f4e681ULL);
}

void sortHits(std::vector<DisclosureHit>& hits) {
  std::sort(hits.begin(), hits.end(),
            [](const DisclosureHit& a, const DisclosureHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.source < b.source;
            });
}

}  // namespace

// ---- Construction and helpers ------------------------------------------------

FlowTracker::FlowTracker(TrackerConfig config, util::Clock* clock)
    : config_(config) {
  config_.shards = std::clamp<std::size_t>(
      config_.shards, 1, static_cast<std::size_t>(util::kMaxTrackerShards));
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        clock, util::kRankTracker + static_cast<int>(i), kShardLockNames[i]));
  }
}

FlowTracker::~FlowTracker() = default;

FlowTracker::ReadView::ReadView(const FlowTracker& tracker) noexcept
    : tracker_(tracker) {
  for (std::size_t k = 0; k < tracker.shards_.size(); ++k) {
    guards_[k].emplace(tracker.shards_[k]->lr);
  }
}

FlowTracker::Routed::Routed(const FlowTracker& tracker,
                            const text::Fingerprint& fp, TenantId tenant)
    : fp_(&fp) {
  if (tenant != kDefaultTenant) {
    const std::uint64_t salt = tenantSalt(tenant);
    std::vector<text::HashedGram> grams = fp.grams();
    for (text::HashedGram& g : grams) g.hash = util::mix64(g.hash ^ salt);
    salted_ = text::Fingerprint::fromSelected(std::move(grams));
  }
  const std::size_t n = tracker.shards_.size();
  if (n == 1) return;
  std::vector<std::vector<text::HashedGram>> buckets(n);
  for (const text::HashedGram& g : whole().grams()) {
    buckets[tracker.shardOf(g.hash)].push_back(g);
  }
  split_.reserve(n);
  for (std::vector<text::HashedGram>& b : buckets) {
    split_.push_back(text::Fingerprint::fromSelected(std::move(b)));
  }
}

std::size_t FlowTracker::shardOf(std::uint64_t hash) const noexcept {
  // The high half: HashDb picks its home slot from the low bits of the
  // same mix, and a shard holding only one residue of those bits would use
  // 1/N of its table's home slots.
  return static_cast<std::size_t>((util::mix64(hash) >> 32) % shards_.size());
}

std::string FlowTracker::internalName(TenantId tenant, std::string_view name) {
  if (tenant == kDefaultTenant) return std::string(name);
  std::string out = "t" + std::to_string(tenant);
  out += '\x1f';
  out += name;
  return out;
}

std::string FlowTracker::callerName(TenantId tenant, std::string name) {
  if (tenant == kDefaultTenant) return name;
  const std::size_t prefix = internalName(tenant, {}).size();
  return name.size() >= prefix ? name.substr(prefix) : name;
}

std::uint64_t FlowTracker::digestOf(const text::Fingerprint& fp) {
  // Order-independent-enough digest: hashes() is sorted, so a sequential
  // combine is deterministic for a given hash set.
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t h : fp.hashes()) d = util::hashCombine(d, h);
  return d ^ fp.size();
}

void FlowTracker::refreshStoreGauges(Shard& sh) const noexcept {
  const Stores& s = sh.active();
  sh.paragraphHashes.store(
      s.hashes[idx(SegmentKind::kParagraph)].distinctHashCount(),
      std::memory_order_relaxed);
  sh.documentHashes.store(
      s.hashes[idx(SegmentKind::kDocument)].distinctHashCount(),
      std::memory_order_relaxed);
  sh.segments.store(s.segments.size(), std::memory_order_relaxed);
  std::size_t paragraphHashes = 0;
  std::size_t documentHashes = 0;
  for (const auto& shard : shards_) {
    paragraphHashes += shard->paragraphHashes.load(std::memory_order_relaxed);
    documentHashes += shard->documentHashes.load(std::memory_order_relaxed);
  }
  const TrackerMetrics& m = trackerMetrics();
  m.dbhashParagraphHashes->set(static_cast<double>(paragraphHashes));
  m.dbhashDocumentHashes->set(static_cast<double>(documentHashes));
  m.dbparSegments->set(static_cast<double>(
      shards_.front()->segments.load(std::memory_order_relaxed)));
}

// ---- Observation -------------------------------------------------------------

SegmentId FlowTracker::observeSegment(SegmentKind kind, std::string_view name,
                                      std::string_view document,
                                      std::string_view service,
                                      sec::SensitiveView text,
                                      std::optional<double> threshold,
                                      TenantId tenant) {
  BF_SPAN("flow.observe");
  // Fingerprinting is pure CPU over immutable config: do it before taking
  // any lock so concurrent observers only serialise on the store update.
  text::Fingerprint fp;
  {
    obs::StageTimer fpTimer(obs::Stage::kFingerprint);
    fp = text::fingerprintText(text.raw(), config_.fingerprint);
  }
  stats_.fingerprintsComputed.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc();
  std::vector<PendingObserve> ops;
  ops.push_back(PendingObserve{kind, internalName(tenant, name),
                               Routed(*this, fp, tenant), threshold});
  return writeObservations(ops, internalName(tenant, document), service,
                           tenant)
      .front();
}

FlowTracker::DocumentObservation FlowTracker::observeDocument(
    std::string_view docName, std::string_view service,
    sec::SensitiveView fullText, std::optional<double> paragraphThreshold,
    std::optional<double> documentThreshold, TenantId tenant) {
  BF_SPAN("flow.observe_document");
  const std::uint64_t fpStart = obs::stageStart();
  const auto paras = text::segmentParagraphs(fullText.raw());

  // Fingerprint the document and every paragraph OUTSIDE the locks — pure
  // CPU over immutable config. Large documents fan the paragraphs out over
  // a few threads, each hashing through its own thread-local workspace.
  const text::Fingerprint docFp =
      text::fingerprintText(fullText.raw(), config_.fingerprint);
  std::vector<text::Fingerprint> paraFps(paras.size());
  const std::size_t workers =
      std::min({paras.size() / kMinParagraphsPerWorker,
                static_cast<std::size_t>(std::thread::hardware_concurrency()),
                kMaxFingerprintWorkers});
  if (workers > 1) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < paras.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
          paraFps[i] =
              text::fingerprintText(paras[i].text, config_.fingerprint);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  } else {
    for (std::size_t i = 0; i < paras.size(); ++i) {
      paraFps[i] = text::fingerprintText(paras[i].text, config_.fingerprint);
    }
  }
  stats_.fingerprintsComputed.fetch_add(paras.size() + 1,
                                        std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc(paras.size() + 1);
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);

  const std::string doc = internalName(tenant, docName);
  std::vector<PendingObserve> ops;
  ops.reserve(paras.size() + 1);
  ops.push_back(PendingObserve{SegmentKind::kDocument, doc,
                               Routed(*this, docFp, tenant),
                               documentThreshold});
  for (std::size_t i = 0; i < paras.size(); ++i) {
    ops.push_back(PendingObserve{
        SegmentKind::kParagraph, doc + "#p" + std::to_string(paras[i].index),
        Routed(*this, paraFps[i], tenant), paragraphThreshold});
  }
  const std::vector<SegmentId> ids =
      writeObservations(ops, doc, service, tenant);
  DocumentObservation out;
  out.document = ids.front();
  out.paragraphs.assign(ids.begin() + 1, ids.end());
  return out;
}

std::vector<SegmentId> FlowTracker::writeObservations(
    std::vector<PendingObserve>& ops, std::string_view document,
    std::string_view service, TenantId tenant) {
  std::uint64_t lockWait = obs::stageStart();
  util::MutexLock stripe(stripeFor(document));
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);

  std::vector<SegmentId> ids(ops.size());
  double paragraphDefault;
  double documentDefault;
  {
    util::MutexLock lock(indexMutex_);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      ids[j] = idForLocked(ops[j].name);
    }
    paragraphDefault = defaultThresholdLocked(SegmentKind::kParagraph, tenant);
    documentDefault = defaultThresholdLocked(SegmentKind::kDocument, tenant);
  }

  // One writer section per shard applies every observation of the batch
  // (to both replicas), then refreshes the gauges once.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& sh = *shards_[k];
    lockWait = obs::stageStart();
    util::MutexLock lock(sh.mutex);
    obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
    mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
      for (std::size_t j = 0; j < ops.size(); ++j) {
        observeIn(sh, s, wal, ids[j], ops[j], document, service,
                  ops[j].kind == SegmentKind::kParagraph ? paragraphDefault
                                                         : documentDefault,
                  tenant, ops[j].fingerprint.part(k));
      }
    });
    refreshStoreGauges(sh);
  }

  std::vector<SegmentId> victims;
  {
    util::MutexLock lock(indexMutex_);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      accountLocked(ids[j], ops[j].name, tenant, ops[j].fingerprint.size());
    }
    // The first observation (a document's own segment) is protected; the
    // rest were just created or touched and sit at the young end of the
    // age order anyway.
    victims = collectQuotaVictimsLocked(tenant, ids.front());
  }
  for (SegmentId v : victims) {
    for (std::size_t k = 0; k < shards_.size(); ++k) removeFromShard(k, v);
  }
  return ids;
}

void FlowTracker::observeIn(Shard& sh, Stores& s, WriteAheadLog* wal,
                            SegmentId id, const PendingObserve& op,
                            std::string_view document,
                            std::string_view service, double createThreshold,
                            TenantId tenant, const text::Fingerprint& fp) {
  const SegmentRecord* existing = s.segments.find(id);
  if (existing == nullptr) {
    SegmentRecord rec;
    rec.id = id;
    rec.kind = op.kind;
    rec.name = op.name;
    rec.document = std::string(document);
    rec.service = std::string(service);
    rec.threshold = op.threshold.value_or(createThreshold);
    rec.tenant = tenant;
    rec.createdAt = sh.tape.now();
    rec.updatedAt = rec.createdAt;
    s.segments.restore(std::move(rec));
  } else {
    if (op.threshold) s.segments.setThreshold(id, *op.threshold);
    // Unchanged fingerprint: nothing to record and the cached disclosure
    // answer stays valid (the per-keystroke fast path of S6.2). A threshold
    // change is still durable state, so it is the one thing logged.
    if (existing->fingerprint.sameHashes(fp)) {
      if (wal != nullptr && op.threshold) {
        wal->logThresholdChanged(op.name, *op.threshold);
      }
      return;
    }
  }

  const util::Timestamp now = sh.tape.now();
  HashDb& db = s.hashes[idx(op.kind)];
  for (std::uint64_t h : fp.hashes()) {
    db.recordObservation(h, id, now);
  }
  s.segments.updateFingerprint(id, fp, now);
  if (auto it = s.cache.find(id); it != s.cache.end()) {
    it->second.valid = false;
  }
  if (wal != nullptr) {
    // Log the POST-mutation record: replaying it recreates the segment with
    // its effective threshold and timestamps, and re-records its hash
    // associations at updatedAt (HashDb idempotency keeps earlier
    // first-seen timestamps, exactly as the live path did).
    if (const SegmentRecord* rec = s.segments.find(id); rec != nullptr) {
      wal->logSegmentObserved(*rec);
    }
  }
}

void FlowTracker::removeSegmentByName(std::string_view name, TenantId tenant) {
  SegmentId id;
  {
    util::MutexLock lock(indexMutex_);
    const auto it = nameIndex_.find(internalName(tenant, name));
    if (it == nameIndex_.end()) return;
    id = it->second;
    eraseLocked(id);
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) removeFromShard(k, id);
}

void FlowTracker::removeSegment(SegmentId id) {
  {
    util::MutexLock lock(indexMutex_);
    eraseLocked(id);
  }
  for (std::size_t k = 0; k < shards_.size(); ++k) removeFromShard(k, id);
}

void FlowTracker::removeFromShard(std::size_t k, SegmentId id) {
  Shard& sh = *shards_[k];
  util::MutexLock lock(sh.mutex);
  mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
    const SegmentRecord* rec = s.segments.find(id);
    if (rec != nullptr) {
      s.hashes[idx(rec->kind)].removeSegment(id);
    } else {
      s.hashes[idx(SegmentKind::kParagraph)].removeSegment(id);
      s.hashes[idx(SegmentKind::kDocument)].removeSegment(id);
    }
    s.segments.remove(id);
    s.cache.erase(id);
    if (wal != nullptr) wal->logSegmentRemoved(id);
  });
  refreshStoreGauges(sh);
}

bool FlowTracker::setSegmentThreshold(std::string_view name, double threshold,
                                      TenantId tenant) {
  // Every shard holds the metadata record, so each applies (and logs) the
  // change.
  const std::string iname = internalName(tenant, name);
  bool any = false;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    any = setThresholdInShard(k, iname, threshold) || any;
  }
  return any;
}

bool FlowTracker::setThresholdInShard(std::size_t k, std::string_view name,
                                      double threshold) {
  Shard& sh = *shards_[k];
  util::MutexLock lock(sh.mutex);
  return mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
    const SegmentRecord* rec = s.segments.findByName(name);
    if (rec == nullptr) return false;
    s.segments.setThreshold(rec->id, threshold);
    // A source's threshold changes every other segment's query outcome.
    s.cache.clear();
    if (wal != nullptr) wal->logThresholdChanged(name, threshold);
    return true;
  });
}

std::size_t FlowTracker::evictAssociationsOlderThan(util::Timestamp cutoff) {
  std::size_t dropped = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    dropped += evictInShard(k, cutoff);
  }
  return dropped;
}

std::size_t FlowTracker::evictInShard(std::size_t k, util::Timestamp cutoff) {
  Shard& sh = *shards_[k];
  util::MutexLock lock(sh.mutex);
  const std::size_t dropped =
      mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
        std::size_t n = 0;
        n += s.hashes[idx(SegmentKind::kParagraph)].evictOlderThan(cutoff);
        n += s.hashes[idx(SegmentKind::kDocument)].evictOlderThan(cutoff);
        s.cache.clear();  // authority may have shifted wholesale
        if (wal != nullptr) wal->logAssociationsEvicted(cutoff);
        return n;
      });
  refreshStoreGauges(sh);
  return dropped;
}

// ---- Queries -------------------------------------------------------------------

std::optional<FlowTracker::TargetParts> FlowTracker::storedParts(
    const ReadView& view, SegmentId id) const {
  TargetParts out;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const SegmentRecord* rec = view[k].segments.find(id);
    if (rec == nullptr && k == 0) return std::nullopt;
    out.part[k] = rec != nullptr ? &rec->fingerprint : &emptyFingerprint();
    out.size += out.part[k]->size();
  }
  return out;
}

std::optional<FlowTracker::CacheKey> FlowTracker::cacheKey(
    const ReadView& view, SegmentId id) const {
  const SegmentRecord* rec = view[0].segments.find(id);
  if (rec == nullptr) return std::nullopt;
  CacheKey key;
  key.digest = digestOf(rec->fingerprint);
  key.removalGeneration =
      view[0].hashes[idx(rec->kind)].removalGeneration();
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    const SegmentRecord* part = view[k].segments.find(id);
    key.digest = util::hashCombine(
        key.digest,
        digestOf(part != nullptr ? part->fingerprint : emptyFingerprint()));
    key.removalGeneration +=
        view[k].hashes[idx(rec->kind)].removalGeneration();
  }
  return key;
}

std::vector<DisclosureHit> FlowTracker::disclosedSourcesIn(
    const ReadView& view, const TargetParts& target, SegmentKind sourceKind,
    SegmentId self, std::string_view selfDocument, TenantId tenant) const {
  BF_SPAN("flow.query");
  obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().queries->inc();
  std::vector<DisclosureHit> hits;
  if (target.size == 0) return hits;
  const std::size_t n = shards_.size();

  // Candidate discovery (Algorithm 1's main loop over fpar). With
  // authoritative fingerprints only the OLDEST owner of each shared hash
  // can score a non-zero overlap — "p <- oldestParagraphWith(h, DBhash)" —
  // so the candidate set is bounded by |F(target)| regardless of database
  // size. This is what makes response time scale sub-linearly with the
  // hash count (paper Fig. 13). Each hash is looked up in the one shard
  // that stores it.
  std::unordered_set<SegmentId> candidates;
  for (std::size_t k = 0; k < n; ++k) {
    const HashDb& db = view[k].hashes[idx(sourceKind)];
    if (config_.useAuthoritative) {
      for (std::uint64_t h : target.part[k]->hashes()) {
        if (const auto owner = db.oldestSegmentWith(h)) {
          candidates.insert(*owner);
        }
      }
    } else {
      // Naive containment (ablation): every segment sharing a hash competes.
      for (std::uint64_t h : target.part[k]->hashes()) {
        for (SegmentId s : db.segmentsWith(h)) candidates.insert(s);
      }
    }
  }

  std::array<const SegmentRecord*, util::kMaxTrackerShards> parts{};
  for (SegmentId c : candidates) {
    if (c == self) continue;  // "if p = P then continue"
    const SegmentRecord* rec = view[0].segments.find(c);
    if (rec == nullptr || rec->kind != sourceKind) continue;
    if (rec->tenant != tenant) continue;  // hard cross-tenant isolation
    if (config_.excludeSameDocument && !selfDocument.empty() &&
        rec->document == selfDocument) {
      continue;
    }
    stats_.candidatesInspected.fetch_add(1, std::memory_order_relaxed);
    trackerMetrics().candidates->inc();
    // |F(source)| is the sum of the disjoint per-shard parts.
    std::size_t sourceSize = 0;
    for (std::size_t k = 0; k < n; ++k) {
      parts[k] = k == 0 ? rec : view[k].segments.find(c);
      if (parts[k] != nullptr) sourceSize += parts[k]->fingerprint.size();
    }
    if (sourceSize == 0) continue;
    // Early discard (Algorithm 1): a source needing more overlapping hashes
    // than the target has cannot meet its threshold.
    if (static_cast<double>(sourceSize) * rec->threshold >
        static_cast<double>(target.size)) {
      continue;
    }
    std::size_t overlap = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (parts[k] == nullptr) continue;
      overlap += config_.useAuthoritative
                     ? authoritativeOverlap(*parts[k], *target.part[k],
                                            view[k].hashes[idx(sourceKind)])
                     : text::Fingerprint::intersectionSize(
                           parts[k]->fingerprint, *target.part[k]);
    }
    const double score =
        static_cast<double>(overlap) / static_cast<double>(sourceSize);
    if (!isDisclosed(score, overlap, rec->threshold)) continue;
    DisclosureHit hit;
    hit.source = rec->id;
    hit.kind = rec->kind;
    hit.sourceName = callerName(tenant, rec->name);
    hit.sourceDocument = callerName(tenant, rec->document);
    hit.sourceService = rec->service;
    hit.score = score;
    hit.overlap = overlap;
    hit.sourceFingerprintSize = sourceSize;
    hit.threshold = rec->threshold;
    hits.push_back(std::move(hit));
  }
  sortHits(hits);
  return hits;
}

std::vector<DisclosureHit> FlowTracker::disclosedSources(
    const text::Fingerprint& target, SegmentKind sourceKind, SegmentId self,
    std::string_view selfDocument, TenantId tenant) const {
  const Routed routed(*this, target, tenant);
  TargetParts parts;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    parts.part[k] = &routed.part(k);
  }
  parts.size = routed.size();
  std::string prefixed;
  if (tenant != kDefaultTenant && !selfDocument.empty()) {
    prefixed = internalName(tenant, selfDocument);
    selfDocument = prefixed;
  }
  const ReadView view(*this);
  return disclosedSourcesIn(view, parts, sourceKind, self, selfDocument,
                            tenant);
}

std::vector<DisclosureHit> FlowTracker::checkText(
    sec::SensitiveView text, std::string_view excludeDocument,
    TenantId tenant) const {
  BF_SPAN("flow.check_text");
  const std::uint64_t fpStart = obs::stageStart();
  const text::Fingerprint fp =
      text::fingerprintText(text.raw(), config_.fingerprint);
  obs::stageEnd(obs::Stage::kFingerprint, fpStart);
  stats_.fingerprintsComputed.fetch_add(1, std::memory_order_relaxed);
  trackerMetrics().fingerprints->inc();
  return disclosedSources(fp, SegmentKind::kParagraph, kInvalidSegment,
                          excludeDocument, tenant);
}

std::vector<DisclosureHit> FlowTracker::sourcesForSegment(SegmentId id) {
  if (config_.enableCache) {
    // Fast path: a lock-free left-right read — an unchanged fingerprint
    // serves the cached answer without any mutex, so concurrent cached
    // queries neither serialise nor wait for writers (the per-keystroke
    // common case of S6.2).
    obs::StageTimer lookupTimer(obs::Stage::kTrackerLookup);
    const ReadView view(*this);
    const std::optional<CacheKey> key = cacheKey(view, id);
    if (!key) return {};
    const auto it = view[0].cache.find(id);
    if (it != view[0].cache.end() && it->second.valid &&
        it->second.fingerprintDigest == key->digest &&
        it->second.removalGeneration == key->removalGeneration) {
      stats_.cacheHits.fetch_add(1, std::memory_order_relaxed);
      trackerMetrics().cacheHits->inc();
      return it->second.hits;
    }
  }

  // Miss (or cache disabled): recompute under shard 0's writer mutex, then
  // install the entry into both of its replicas. The stores may have
  // changed since the fast path, so everything is re-read — including the
  // cache entry another thread may just have filled.
  Shard& meta = *shards_.front();
  const std::uint64_t lockWait = obs::stageStart();
  util::MutexLock lock(meta.mutex);
  obs::stageEnd(obs::Stage::kTrackerLockWait, lockWait);
  std::vector<DisclosureHit> hits;
  CacheKey key;
  {
    const ReadView view(*this);
    const std::optional<CacheKey> current = cacheKey(view, id);
    if (!current) return {};
    key = *current;
    if (config_.enableCache) {
      const auto it = view[0].cache.find(id);
      if (it != view[0].cache.end() && it->second.valid &&
          it->second.fingerprintDigest == key.digest &&
          it->second.removalGeneration == key.removalGeneration) {
        stats_.cacheHits.fetch_add(1, std::memory_order_relaxed);
        trackerMetrics().cacheHits->inc();
        return it->second.hits;
      }
    }
    stats_.cacheMisses.fetch_add(1, std::memory_order_relaxed);
    trackerMetrics().cacheMisses->inc();
    const SegmentRecord* rec = view[0].segments.find(id);
    hits = disclosedSourcesIn(view, *storedParts(view, id), rec->kind, id,
                              rec->document, rec->tenant);
  }
  // The view is released before the fill: the writer protocol drains
  // readers, this thread included.
  mutateStores(meta, [&](Stores& s, WriteAheadLog*) {
    CacheEntry& entry = s.cache[id];
    entry.hits = hits;
    entry.fingerprintDigest = key.digest;
    entry.removalGeneration = key.removalGeneration;
    entry.valid = true;
  });
  return hits;
}

double FlowTracker::pairwiseDisclosure(SegmentId source,
                                       SegmentId target) const {
  const ReadView view(*this);
  std::size_t overlap = 0;
  std::size_t total = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const SegmentRecord* src = view[k].segments.find(source);
    const SegmentRecord* tgt = view[k].segments.find(target);
    if (src == nullptr || tgt == nullptr) continue;
    overlap += config_.useAuthoritative
                   ? authoritativeOverlap(*src, tgt->fingerprint,
                                          view[k].hashes[idx(src->kind)])
                   : text::Fingerprint::intersectionSize(src->fingerprint,
                                                         tgt->fingerprint);
    total += src->fingerprint.size();
  }
  if (total == 0) return 0.0;
  return static_cast<double>(overlap) / static_cast<double>(total);
}

std::vector<std::pair<std::size_t, std::size_t>>
FlowTracker::attributeDisclosure(SegmentId source,
                                 const text::Fingerprint& target) const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  const ReadView view(*this);
  const SegmentRecord* meta = view[0].segments.find(source);
  if (meta == nullptr || target.empty()) return ranges;
  const Routed routed(*this, target, meta->tenant);
  std::vector<std::size_t> positions;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const SegmentRecord* rec = k == 0 ? meta : view[k].segments.find(source);
    if (rec == nullptr) continue;
    const HashDb& db = view[k].hashes[idx(rec->kind)];
    for (const auto& gram : rec->fingerprint.grams()) {
      if (!routed.part(k).contains(gram.hash)) continue;
      if (config_.useAuthoritative) {
        const auto oldest = db.oldestSegmentWith(gram.hash);
        if (!oldest || *oldest != source) continue;
      }
      positions.push_back(gram.pos);
    }
  }
  // Each shard's grams are in position order; the merged walk must be too.
  std::sort(positions.begin(), positions.end());
  // Each matched gram covers roughly one n-gram of source text; adjacent
  // matches merge into readable passages. The window guarantee means a
  // copied passage of >= windowChars yields at least one gram here.
  const std::size_t span = config_.fingerprint.ngramChars;
  for (std::size_t begin : positions) {
    const std::size_t end = begin + span;
    if (!ranges.empty() && begin <= ranges.back().second + span) {
      // Merge with the previous range when close (within one n-gram —
      // winnowing only samples, so small gaps are the same passage).
      ranges.back().second = std::max(ranges.back().second, end);
    } else {
      ranges.emplace_back(begin, end);
    }
  }
  return ranges;
}

std::optional<SegmentRecord> FlowTracker::findSegmentWithFingerprint(
    std::string_view document, const text::Fingerprint& fp, SegmentKind kind,
    TenantId tenant) const {
  if (fp.empty()) return std::nullopt;
  const Routed routed(*this, fp, tenant);
  const std::string doc = internalName(tenant, document);
  const ReadView view(*this);
  std::optional<SegmentRecord> found;
  // The internal document name already scopes the match to `tenant`; the
  // scan visits every segment on each upload check, so it reads no field
  // it does not need.
  view[0].segments.forEach([&](const SegmentRecord& rec) {
    if (found || rec.kind != kind || rec.document != doc ||
        !rec.fingerprint.sameHashes(routed.part(0))) {
      return;
    }
    for (std::size_t k = 1; k < shards_.size(); ++k) {
      const SegmentRecord* part = view[k].segments.find(rec.id);
      if (!(part != nullptr ? part->fingerprint : emptyFingerprint())
               .sameHashes(routed.part(k))) {
        return;
      }
    }
    found = rec;
  });
  if (found) {
    found->name = callerName(tenant, std::move(found->name));
    found->document = callerName(tenant, std::move(found->document));
    found->fingerprint = fp;
  }
  return found;
}

// ---- Tenancy -------------------------------------------------------------------

void FlowTracker::setTenantConfig(TenantId tenant, TenantConfig config) {
  util::MutexLock lock(indexMutex_);
  tenants_[tenant].config = config;
}

TenantUsage FlowTracker::tenantUsage(TenantId tenant) const {
  util::MutexLock lock(indexMutex_);
  TenantUsage usage;
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return usage;
  usage.segments = it->second.live.size();
  usage.fingerprintHashes = it->second.totalHashes;
  usage.fingerprintBytes = it->second.totalHashes * kBytesPerHash;
  usage.evictedSegments = it->second.evicted;
  return usage;
}

util::Mutex& FlowTracker::stripeFor(std::string_view document) {
  return stripes_[util::fnv1a64(document) % kStripes].m;
}

SegmentId FlowTracker::idForLocked(const std::string& name) {
  const auto [it, inserted] = nameIndex_.try_emplace(name, nextId_);
  if (inserted) ++nextId_;
  return it->second;
}

double FlowTracker::defaultThresholdLocked(SegmentKind kind,
                                           TenantId tenant) const {
  const double base = kind == SegmentKind::kParagraph
                          ? config_.defaultParagraphThreshold
                          : config_.defaultDocumentThreshold;
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return base;
  const std::optional<double>& tenantDefault =
      kind == SegmentKind::kParagraph ? it->second.config.paragraphThreshold
                                      : it->second.config.documentThreshold;
  return tenantDefault.value_or(base);
}

void FlowTracker::accountLocked(SegmentId id, const std::string& name,
                                TenantId tenant, std::uint64_t hashes) {
  TenantState& ts = tenants_[tenant];
  const auto [it, inserted] = segments_.try_emplace(id);
  SegmentInfo& info = it->second;
  if (inserted) {
    info.name = name;
    info.tenant = tenant;
    ts.live.insert(id);
    // A removal racing this observation may have dropped the name.
    nameIndex_.try_emplace(name, id);
  }
  ts.totalHashes = ts.totalHashes - info.hashes + hashes;
  info.hashes = hashes;
}

std::vector<SegmentId> FlowTracker::collectQuotaVictimsLocked(
    TenantId tenant, SegmentId protect) {
  std::vector<SegmentId> victims;
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return victims;
  TenantState& ts = it->second;
  const auto overQuota = [&ts] {
    const TenantConfig& c = ts.config;
    if (c.maxSegments != 0 && ts.live.size() > c.maxSegments) return true;
    return c.maxFingerprintBytes != 0 &&
           ts.totalHashes * kBytesPerHash > c.maxFingerprintBytes;
  };
  while (overQuota() && !ts.live.empty()) {
    auto oldest = ts.live.begin();
    if (*oldest == protect) {
      // Never evict the segment just observed: a quota bounds retained
      // history, it must not make the current observation vanish. If the
      // protected segment alone busts the budget, it stays.
      if (ts.live.size() == 1) break;
      oldest = std::next(oldest);
    }
    victims.push_back(*oldest);
    eraseLocked(*oldest);
  }
  if (!victims.empty()) {
    ts.evicted += victims.size();
    trackerMetrics().quotaEvictions->inc(victims.size());
  }
  return victims;
}

void FlowTracker::eraseLocked(SegmentId id) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) return;
  const SegmentInfo& info = it->second;
  nameIndex_.erase(info.name);
  if (const auto t = tenants_.find(info.tenant); t != tenants_.end()) {
    t->second.live.erase(id);
    t->second.totalHashes -= info.hashes;
  }
  segments_.erase(it);
}

// ---- Introspection -------------------------------------------------------------

const SegmentRecord* FlowTracker::segment(SegmentId id) const {
  const Shard& meta = *shards_.front();
  util::LeftRightReadGuard guard(meta.lr);
  return meta.stores[static_cast<std::size_t>(guard.instance())].segments.find(
      id);
}

const SegmentRecord* FlowTracker::segmentByName(std::string_view name) const {
  const Shard& meta = *shards_.front();
  util::LeftRightReadGuard guard(meta.lr);
  return meta.stores[static_cast<std::size_t>(guard.instance())]
      .segments.findByName(name);
}

const HashDb& FlowTracker::hashDb(SegmentKind kind,
                                  std::size_t shard) const noexcept {
  return shards_[shard]->active().hashes[idx(kind)];
}

const SegmentDb& FlowTracker::segmentDb(std::size_t shard) const noexcept {
  return shards_[shard]->active().segments;
}

FlowTracker::StoreSizes FlowTracker::storeSizes() const {
  const ReadView view(*this);
  StoreSizes out;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    out.paragraphHashes +=
        view[k].hashes[idx(SegmentKind::kParagraph)].distinctHashCount();
    out.documentHashes +=
        view[k].hashes[idx(SegmentKind::kDocument)].distinctHashCount();
  }
  out.segments = view[0].segments.size();
  return out;
}

// ---- Durability and persistence ------------------------------------------------

void FlowTracker::attachWal(WriteAheadLog* wal, std::size_t shard) {
  Shard& sh = *shards_[shard];
  util::MutexLock lock(sh.mutex);
  sh.wal = wal;
}

void FlowTracker::restoreSegment(SegmentRecord record, std::size_t shard) {
  Shard& sh = *shards_[shard];
  util::MutexLock lock(sh.mutex);
  mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
    if (wal != nullptr) wal->logSegmentObserved(record);
    s.segments.restore(record);  // by-value copy; applied to both replicas
  });
  refreshStoreGauges(sh);
}

void FlowTracker::restoreAssociation(SegmentKind kind, std::uint64_t hash,
                                     SegmentId segment,
                                     util::Timestamp firstSeen,
                                     util::Timestamp lastSeen,
                                     std::size_t shard) {
  // Called once per association record during WAL replay; the store gauges
  // are refreshed by the next observation instead of here.
  Shard& sh = *shards_[shard];
  util::MutexLock lock(sh.mutex);
  mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
    s.hashes[idx(kind)].recordObservation(hash, segment, firstSeen, lastSeen);
    if (wal != nullptr) {
      wal->logAssociationAdded(kind, hash, segment, firstSeen, lastSeen);
    }
  });
}

void FlowTracker::restoreAssociations(
    SegmentKind kind, std::span<const HashDb::StoredAssociation> assocs,
    std::size_t shard) {
  Shard& sh = *shards_[shard];
  util::MutexLock lock(sh.mutex);
  mutateStores(sh, [&](Stores& s, WriteAheadLog* wal) {
    s.hashes[idx(kind)].restoreAssociations(assocs);
    if (wal != nullptr) {
      for (const HashDb::StoredAssociation& a : assocs) {
        wal->logAssociationAdded(kind, a.hash, a.segment, a.firstSeen,
                                 a.lastSeen);
      }
    }
  });
  refreshStoreGauges(sh);
}

void FlowTracker::replaySegmentObserved(SegmentRecord record,
                                        std::size_t shard) {
  Shard& sh = *shards_[shard];
  util::MutexLock lock(sh.mutex);
  // Replay runs with the WAL detached (see attachWal); the record already
  // carries its timestamps, so the closure draws nothing from the tape and
  // both replica applications are trivially identical.
  mutateStores(sh, [&](Stores& s, WriteAheadLog*) {
    const SegmentRecord* existing = s.segments.findByName(record.name);
    const SegmentId id = existing != nullptr ? existing->id : record.id;
    HashDb& db = s.hashes[idx(record.kind)];
    for (std::uint64_t h : record.fingerprint.hashes()) {
      db.recordObservation(h, id, record.updatedAt);
    }
    if (existing == nullptr) {
      s.segments.restore(record);
    } else {
      s.segments.setThreshold(id, record.threshold);
      s.segments.updateFingerprint(id, record.fingerprint, record.updatedAt);
    }
    if (auto it = s.cache.find(id); it != s.cache.end()) {
      it->second.valid = false;
    }
  });
  refreshStoreGauges(sh);
}

void FlowTracker::replaySegmentRemoved(SegmentId id, std::size_t shard) {
  removeFromShard(shard, id);
}

void FlowTracker::replayThresholdChanged(std::string_view name,
                                         double threshold, std::size_t shard) {
  (void)setThresholdInShard(shard, name, threshold);
}

void FlowTracker::replayAssociationsEvicted(util::Timestamp cutoff,
                                            std::size_t shard) {
  (void)evictInShard(shard, cutoff);
}

void FlowTracker::rebuildIndex() {
  util::MutexLock lock(indexMutex_);
  nameIndex_.clear();
  segments_.clear();
  for (auto& [tenant, state] : tenants_) {
    state.live.clear();
    state.totalHashes = 0;
  }
  const ReadView view(*this);
  nameIndex_.reserve(view[0].segments.size());
  segments_.reserve(view[0].segments.size());
  nextId_ = 1;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    nextId_ = std::max(nextId_, view[k].segments.nextId());
  }
  view[0].segments.forEach([&](const SegmentRecord& rec) {
    std::uint64_t hashes = rec.fingerprint.size();
    for (std::size_t k = 1; k < shards_.size(); ++k) {
      if (const SegmentRecord* part = view[k].segments.find(rec.id)) {
        hashes += part->fingerprint.size();
      }
    }
    nameIndex_.emplace(rec.name, rec.id);
    segments_.emplace(rec.id, SegmentInfo{rec.name, rec.tenant, hashes});
    TenantState& ts = tenants_[rec.tenant];
    ts.live.insert(rec.id);
    ts.totalHashes += hashes;
  });
}

}  // namespace bf::flow
