#include "flow/wal.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "flow/snapshot.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace bf::flow {

namespace {

constexpr std::string_view kWalMagic = "BFWAL001";
constexpr std::size_t kWalHeaderBytes = 8 + 8;  // magic + baseSequence
/// Frames larger than this cannot have been written by us: treat the length
/// prefix itself as corrupt instead of trusting it.
constexpr std::uint32_t kMaxFrameBytes = 1u << 30;
/// User-space frame buffer flush threshold: one write() per this many
/// bytes instead of one per record keeps the syscall off the decision
/// path (bench_stress_concurrency's wal_overhead phase).
constexpr std::size_t kFlushBytes = 64u << 10;

/// Durability metrics, resolved once (same pattern as trackerMetrics()).
struct WalMetrics {
  obs::Counter* appends;
  obs::Counter* appendFailures;
  obs::Counter* bytesWritten;
  obs::Counter* syncs;
  obs::Counter* recordsLost;
  obs::Gauge* health;
  obs::Counter* repairs;
  obs::Counter* repairFailures;
  obs::Counter* checkpoints;
  obs::Counter* checkpointFailures;
  obs::Gauge* checkpointLastMs;
  obs::Histogram* checkpointDurationUs;
  obs::Gauge* storageBytes;
  obs::Counter* pressurePrunes;
  obs::Counter* recoveryRuns;
  obs::Counter* recoveryReplayedRecords;
  obs::Counter* recoveryDiscardedBytes;
  obs::Counter* recoveryFallbacks;
  obs::Gauge* recoveryLastReplayMs;
};

const WalMetrics& walMetrics() {
  static const WalMetrics m = [] {
    obs::MetricsRegistry& r = obs::registry();
    WalMetrics out;
    out.appends =
        &r.counter("bf_wal_appends_total", "WAL records appended");
    out.appendFailures = &r.counter(
        "bf_wal_append_failures_total",
        "WAL appends dropped (I/O failure or injected fault); the log is "
        "unhealthy until the next successful checkpoint rotation");
    out.bytesWritten =
        &r.counter("bf_wal_bytes_written_total", "Bytes appended to the WAL");
    out.syncs = &r.counter("bf_wal_syncs_total", "WAL fsync calls");
    out.recordsLost = &r.counter(
        "bf_wal_records_lost_total",
        "Tracker mutations whose WAL record could not be made durable "
        "(upper bound; the repair checkpoint re-covers the state)");
    out.health = &r.gauge(
        "bf_wal_health",
        "Durability health: 0 healthy, 1 degraded, 2 recovering");
    out.repairs = &r.counter(
        "bf_wal_repairs_total",
        "Successful durability repairs (emergency checkpoint + rotation)");
    out.repairFailures = &r.counter("bf_wal_repair_failures_total",
                                    "Durability repair attempts that failed");
    out.checkpoints =
        &r.counter("bf_checkpoints_total", "Durability checkpoints written");
    out.checkpointFailures = &r.counter("bf_checkpoint_failures_total",
                                        "Durability checkpoints that failed");
    out.checkpointLastMs = &r.gauge(
        "bf_checkpoint_last_ms", "Wall time of the last checkpoint write");
    out.checkpointDurationUs = &r.histogram(
        "bf_checkpoint_duration_us",
        "Checkpoint wall time in microseconds (runs on the decision path "
        "under the engine state lock, so the tail here is decision latency)",
        {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
         250000, 500000, 1000000, 5000000});
    out.storageBytes = &r.gauge(
        "bf_storage_bytes",
        "Bytes across checkpoint + WAL files at the last maintenance scan");
    out.pressurePrunes = &r.counter(
        "bf_storage_pressure_prunes_total",
        "Aggressive prunes triggered by the byte quota (disk pressure)");
    out.recoveryRuns =
        &r.counter("bf_recovery_runs_total", "Crash recoveries performed");
    out.recoveryReplayedRecords =
        &r.counter("bf_recovery_replayed_records_total",
                   "WAL records replayed during recovery");
    out.recoveryDiscardedBytes =
        &r.counter("bf_recovery_discarded_bytes_total",
                   "WAL bytes discarded at torn/corrupt tails");
    out.recoveryFallbacks =
        &r.counter("bf_recovery_fallback_checkpoints_total",
                   "Recoveries that skipped a corrupt newest checkpoint");
    out.recoveryLastReplayMs = &r.gauge(
        "bf_recovery_last_replay_ms",
        "Checkpoint load + WAL replay wall time of the last recovery");
    return out;
  }();
  return m;
}

}  // namespace

// ---- WriteAheadLog ----------------------------------------------------------

WriteAheadLog::~WriteAheadLog() { close(); }

util::Status WriteAheadLog::open(const std::string& path,
                                 std::uint64_t baseSequence,
                                 bool syncEachAppend, io::Vfs* vfs) {
  util::MutexLock lock(mutex_);
  closeLocked();
  vfs_ = vfs != nullptr ? vfs : &io::defaultVfs();
  file_ = vfs_->openForWrite(path);
  if (file_ == nullptr) {
    healthy_ = false;
    return util::Status::error("cannot open WAL: " + path);
  }
  std::string header;
  header.append(kWalMagic);
  util::putU64(header, baseSequence);
  if (!file_->write(header).ok || !file_->sync()) {
    poisonLocked();
    healthy_ = false;
    return util::Status::error("cannot write WAL header: " + path);
  }
  walMetrics().syncs->inc();
  path_ = path;
  nextSeq_ = baseSequence + 1;
  appended_ = 0;
  syncEachAppend_ = syncEachAppend;
  healthy_ = true;
  return {};
}

void WriteAheadLog::close() {
  util::MutexLock lock(mutex_);
  closeLocked();
  healthy_ = false;
}

void WriteAheadLog::closeLocked() {
  if (file_ != nullptr) {
    (void)flushLocked();  // may poison the file on failure
    if (file_ != nullptr) {
      (void)file_->sync();
      (void)file_->close();
      file_.reset();
    }
  }
  buffer_.clear();
  bufferedRecords_ = 0;
}

void WriteAheadLog::poisonLocked() {
  // Abandon the file: its tail may be torn, which is exactly the shape
  // recovery's CRC/continuity checks discard. The next rotation supersedes
  // it with a fresh segment.
  if (file_ != nullptr) {
    (void)file_->close();
    file_.reset();
  }
}

util::Status WriteAheadLog::rotate(const std::string& path,
                                   std::uint64_t baseSequence) {
  // open() already closes the previous file after taking the lock; rotate
  // is just open() with checkpoint-supplied parameters (and the Vfs the
  // log was opened with).
  io::Vfs* vfs;
  bool sea;
  {
    util::MutexLock lock(mutex_);
    vfs = vfs_;
    sea = syncEachAppend_;
  }
  return open(path, baseSequence, sea, vfs);
}

bool WriteAheadLog::syncEachAppend() const {
  util::MutexLock lock(mutex_);
  return syncEachAppend_;
}

void WriteAheadLog::append(WalRecordType type, const std::string& body) {
  // Covers lock wait + frame serialisation + any flush this append triggers.
  obs::StageTimer walTimer(obs::Stage::kWalAppend);
  const WalMetrics& m = walMetrics();
  util::MutexLock lock(mutex_);
  if (failNext_ > 0 || !healthy_ || file_ == nullptr) {
    // Dropped — but the sequence is still consumed. Sequences are the
    // bridge between the in-memory state and the durable record; keeping
    // them monotonic means the repair checkpoint (taken at the last
    // assigned sequence) provably covers every dropped record, and an
    // already-written prefix never collides with a reused sequence.
    if (failNext_ > 0) --failNext_;
    healthy_ = false;
    ++nextSeq_;
    ++lost_;
    m.appendFailures->inc();
    m.recordsLost->inc();
    return;
  }
  // Serialise the frame directly into the flush buffer, then patch the
  // length/CRC prefix in place — no intermediate payload copy.
  const std::size_t frameStart = buffer_.size();
  buffer_.append(8, '\0');  // u32 payloadLen | u32 maskedCrc placeholders
  util::putU64(buffer_, nextSeq_);
  util::putU8(buffer_, static_cast<std::uint8_t>(type));
  buffer_.append(body);
  const std::size_t payloadLen = buffer_.size() - frameStart - 8;
  const std::string_view payload(buffer_.data() + frameStart + 8, payloadLen);
  const std::uint32_t crc = util::maskCrc32c(util::crc32c(payload));
  for (int i = 0; i < 4; ++i) {
    buffer_[frameStart + i] =
        static_cast<char>(static_cast<std::uint32_t>(payloadLen) >> (8 * i));
    buffer_[frameStart + 4 + i] = static_cast<char>(crc >> (8 * i));
  }
  const std::size_t frameSize = 8 + payloadLen;
  ++bufferedRecords_;
  ++nextSeq_;
  ++appended_;
  m.appends->inc();
  m.bytesWritten->inc(frameSize);

  // One write() per kFlushBytes keeps the syscall off the per-keystroke
  // path; the fsync boundary (checkpoint / sync() / syncEachAppend) is
  // what the durability guarantee rests on either way.
  if (buffer_.size() >= kFlushBytes || syncEachAppend_) {
    if (!flushLocked()) return;
  }
  if (syncEachAppend_) {
    if (!file_->sync()) {
      // The record reached the kernel but maybe not the device: count it
      // lost (lost is an upper bound) and poison the file.
      healthy_ = false;
      ++lost_;
      m.appendFailures->inc();
      m.recordsLost->inc();
      poisonLocked();
      return;
    }
    m.syncs->inc();
  }
}

bool WriteAheadLog::flushLocked() {
  if (buffer_.empty()) return true;
  const bool wrote = file_ != nullptr && file_->write(buffer_).ok;
  if (!wrote) {
    // The tracker mutations already happened; durability degrades, the
    // mutations do not roll back (availability over durability). The
    // buffered records are counted lost (an upper bound — a prefix may in
    // fact have reached the device) and the file is poisoned; sequences
    // stay monotonic so the repair checkpoint at the last assigned
    // sequence re-covers everything dropped here.
    healthy_ = false;
    lost_ += bufferedRecords_;
    walMetrics().appendFailures->inc(bufferedRecords_);
    walMetrics().recordsLost->inc(bufferedRecords_);
    poisonLocked();
  }
  buffer_.clear();
  bufferedRecords_ = 0;
  return wrote;
}

void WriteAheadLog::logSegmentObserved(const SegmentRecord& rec) {
  std::string body;
  body.reserve(75 + rec.name.size() + rec.document.size() +
               rec.service.size() + rec.fingerprint.grams().size() * 12);
  util::putU64(body, rec.id);
  util::putU8(body, static_cast<std::uint8_t>(rec.kind));
  util::putStr(body, rec.name);
  util::putStr(body, rec.document);
  util::putStr(body, rec.service);
  util::putF64(body, rec.threshold);
  util::putU64(body, rec.createdAt);
  util::putU64(body, rec.updatedAt);
  const auto& grams = rec.fingerprint.grams();
  util::putU64(body, grams.size());
  for (const auto& g : grams) {
    util::putU64(body, g.hash);
    util::putU32(body, g.pos);
  }
  // Optional trailing field (multi-tenant): absent in pre-tenant logs,
  // which replay as tenant 0 — the byte-identical legacy behaviour.
  util::putU64(body, rec.tenant);
  append(WalRecordType::kSegmentObserved, body);
}

void WriteAheadLog::logAssociationAdded(SegmentKind kind, std::uint64_t hash,
                                        SegmentId segment,
                                        util::Timestamp firstSeen,
                                        util::Timestamp lastSeen) {
  std::string body;
  util::putU8(body, static_cast<std::uint8_t>(kind));
  util::putU64(body, hash);
  util::putU64(body, segment);
  util::putU64(body, firstSeen);
  // Optional trailing field (retention stamp): absent in older logs, which
  // replay with lastSeen = firstSeen.
  util::putU64(body, lastSeen != 0 ? lastSeen : firstSeen);
  append(WalRecordType::kAssociationAdded, body);
}

void WriteAheadLog::logSegmentRemoved(SegmentId id) {
  std::string body;
  util::putU64(body, id);
  append(WalRecordType::kSegmentRemoved, body);
}

void WriteAheadLog::logThresholdChanged(std::string_view name,
                                        double threshold) {
  std::string body;
  util::putStr(body, name);
  util::putF64(body, threshold);
  append(WalRecordType::kThresholdChanged, body);
}

void WriteAheadLog::logAssociationsEvicted(util::Timestamp cutoff) {
  std::string body;
  util::putU64(body, cutoff);
  append(WalRecordType::kAssociationsEvicted, body);
}

util::Status WriteAheadLog::sync() {
  util::MutexLock lock(mutex_);
  if (file_ == nullptr) return util::Status::error("WAL not open");
  if (!flushLocked()) {
    return util::Status::error("WAL flush failed: " + path_);
  }
  if (!file_->sync()) {
    healthy_ = false;
    poisonLocked();
    return util::Status::error("WAL fsync failed: " + path_);
  }
  walMetrics().syncs->inc();
  return {};
}

bool WriteAheadLog::healthy() const {
  util::MutexLock lock(mutex_);
  return healthy_;
}

std::uint64_t WriteAheadLog::nextSequence() const {
  util::MutexLock lock(mutex_);
  return nextSeq_;
}

std::uint64_t WriteAheadLog::appendedRecords() const {
  util::MutexLock lock(mutex_);
  return appended_;
}

std::uint64_t WriteAheadLog::lostRecords() const {
  util::MutexLock lock(mutex_);
  return lost_;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  util::MutexLock lock(mutex_);
  return {healthy_, nextSeq_, appended_, lost_};
}

void WriteAheadLog::failNextAppends(int n) {
  util::MutexLock lock(mutex_);
  failNext_ = n;
}

// ---- Replay -----------------------------------------------------------------

namespace {

/// True for a threshold a replayed record may carry — same bounds the
/// snapshot importer enforces (flow/snapshot.cpp).
bool validThreshold(double t) noexcept {
  return std::isfinite(t) && t >= 0.0 && t <= 1.0;
}

bool validKindByte(std::uint8_t k) noexcept {
  return k == static_cast<std::uint8_t>(SegmentKind::kParagraph) ||
         k == static_cast<std::uint8_t>(SegmentKind::kDocument);
}

/// Applies one validated record payload (past sequence + type) to the
/// tracker. Returns false when the body does not parse exactly or carries
/// out-of-range values — the frame is then treated as corrupt.
bool applyRecord(FlowTracker& tracker, std::size_t shard, WalRecordType type,
                 std::string_view body, util::Timestamp& maxTs) {
  util::BinaryReader r(body);
  switch (type) {
    case WalRecordType::kSegmentObserved: {
      SegmentRecord rec;
      rec.id = r.u64();
      const std::uint8_t kindByte = r.u8();
      if (!validKindByte(kindByte)) return false;
      rec.kind = static_cast<SegmentKind>(kindByte);
      rec.name = r.str();
      rec.document = r.str();
      rec.service = r.str();
      rec.threshold = r.f64();
      if (r.ok() && !validThreshold(rec.threshold)) return false;
      rec.createdAt = r.u64();
      rec.updatedAt = r.u64();
      const std::uint64_t gramCount = r.u64();
      std::vector<text::HashedGram> grams;
      grams.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(gramCount, 1u << 20)));
      for (std::uint64_t g = 0; g < gramCount && r.ok(); ++g) {
        const std::uint64_t hash = r.u64();
        const std::uint32_t pos = r.u32();
        grams.push_back({hash, pos});
      }
      rec.fingerprint = text::Fingerprint::fromSelected(std::move(grams));
      // Optional trailing tenant id: pre-tenant records end here and replay
      // as tenant 0.
      if (r.ok() && !r.atEnd()) rec.tenant = r.u64();
      if (!r.ok() || !r.atEnd()) return false;
      maxTs = std::max({maxTs, rec.createdAt, rec.updatedAt});
      tracker.replaySegmentObserved(std::move(rec), shard);
      return true;
    }
    case WalRecordType::kAssociationAdded: {
      const std::uint8_t kindByte = r.u8();
      if (!validKindByte(kindByte)) return false;
      const std::uint64_t hash = r.u64();
      const SegmentId segment = r.u64();
      const util::Timestamp ts = r.u64();
      // Optional trailing retention stamp; older records replay with
      // lastSeen = firstSeen.
      util::Timestamp lastSeen = ts;
      if (r.ok() && !r.atEnd()) lastSeen = r.u64();
      if (!r.ok() || !r.atEnd()) return false;
      maxTs = std::max({maxTs, ts, lastSeen});
      tracker.restoreAssociation(static_cast<SegmentKind>(kindByte), hash,
                                 segment, ts, lastSeen, shard);
      return true;
    }
    case WalRecordType::kSegmentRemoved: {
      const SegmentId id = r.u64();
      if (!r.ok() || !r.atEnd()) return false;
      tracker.replaySegmentRemoved(id, shard);
      return true;
    }
    case WalRecordType::kThresholdChanged: {
      const std::string name = r.str();
      const double threshold = r.f64();
      if (!r.ok() || !r.atEnd()) return false;
      if (!validThreshold(threshold)) return false;
      tracker.replayThresholdChanged(name, threshold, shard);
      return true;
    }
    case WalRecordType::kAssociationsEvicted: {
      const util::Timestamp cutoff = r.u64();
      if (!r.ok() || !r.atEnd()) return false;
      tracker.replayAssociationsEvicted(cutoff, shard);
      return true;
    }
  }
  return false;  // unknown type
}

}  // namespace

WalReplayResult replayWalFile(FlowTracker& tracker, const std::string& path,
                              std::uint64_t nextExpected, std::uint64_t cap,
                              io::Vfs* vfs, std::size_t shard) {
  WalReplayResult out;
  out.lastSequence = nextExpected == 0 ? 0 : nextExpected - 1;

  io::Vfs& v = vfs != nullptr ? *vfs : io::defaultVfs();
  util::Result<std::string> read = v.readFile(path);
  if (!read.ok()) {
    out.sawCorruption = true;
    return out;
  }
  const std::string data = std::move(read.value());

  if (data.size() < kWalHeaderBytes ||
      std::string_view(data).substr(0, kWalMagic.size()) != kWalMagic) {
    out.sawCorruption = true;
    out.discardedBytes = data.size();
    return out;
  }

  std::size_t pos = kWalHeaderBytes;
  std::uint64_t next = nextExpected;
  while (pos < data.size()) {
    // Frame header: u32 len + u32 masked CRC.
    if (data.size() - pos < 8) break;  // torn header
    util::BinaryReader hdr(std::string_view(data).substr(pos, 8));
    const std::uint32_t len = hdr.u32();
    const std::uint32_t storedCrc = hdr.u32();
    if (len < 9 || len > kMaxFrameBytes || data.size() - pos - 8 < len) {
      break;  // impossible length or torn payload
    }
    const std::string_view payload = std::string_view(data).substr(pos + 8, len);
    if (util::unmaskCrc32c(storedCrc) != util::crc32c(payload)) break;

    util::BinaryReader pr(payload);
    const std::uint64_t seq = pr.u64();
    const WalRecordType type = static_cast<WalRecordType>(pr.u8());
    if (seq >= next && seq > cap) {
      // Clean stop at the oracle cap: nothing here is corrupt, the caller
      // just does not want records past `cap`.
      pos += 8 + len;
      continue;
    }
    if (seq < next) {
      // Already covered by the checkpoint (or an earlier log).
      ++out.skipped;
      pos += 8 + len;
      continue;
    }
    if (seq != next) break;  // sequence gap: the prefix ends here
    if (!applyRecord(tracker, shard, type, payload.substr(9),
                     out.maxTimestamp)) {
      break;  // unparseable body counts as corruption
    }
    ++out.applied;
    out.lastSequence = seq;
    ++next;
    pos += 8 + len;
  }
  if (pos < data.size()) {
    out.sawCorruption = true;
    out.discardedBytes = data.size() - pos;
  }
  return out;
}


// ---- DurabilityManager ------------------------------------------------------

namespace {

/// Parses "<prefix><16 hex digits><suffix>" names; returns the sequence or
/// nullopt when the name does not match.
std::optional<std::uint64_t> parseSeqName(std::string_view name,
                                          std::string_view prefix,
                                          std::string_view suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 16) != suffix) return std::nullopt;
  std::uint64_t seq = 0;
  for (char c : name.substr(prefix.size(), 16)) {
    seq <<= 4;
    if (c >= '0' && c <= '9') {
      seq |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      seq |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return seq;
}

std::string seqName(std::string_view prefix, std::uint64_t seq,
                    std::string_view suffix) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(seq));
  std::string out(prefix);
  out += hex;
  out += suffix;
  return out;
}

/// Sequences of all files named <prefix><seq><suffix> in `dir`, sorted
/// ascending.
std::vector<std::uint64_t> listSeqFiles(io::Vfs& vfs, const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<std::uint64_t> out;
  for (const std::string& name : vfs.listDir(dir)) {
    if (auto seq = parseSeqName(name, prefix, suffix)) {
      out.push_back(*seq);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool isChainFile(std::string_view name) {
  return parseSeqName(name, "checkpoint-", ".bfc") ||
         parseSeqName(name, "wal-", ".bfw");
}

/// The shard index of a "shard-NN" directory name.
std::optional<std::size_t> parseShardDir(std::string_view name) {
  constexpr std::string_view kPrefix = "shard-";
  if (name.size() != kPrefix.size() + 2 || name.substr(0, 6) != kPrefix) {
    return std::nullopt;
  }
  const char hi = name[6];
  const char lo = name[7];
  if (hi < '0' || hi > '9' || lo < '0' || lo > '9') return std::nullopt;
  return static_cast<std::size_t>((hi - '0') * 10 + (lo - '0'));
}

}  // namespace

DurabilityManager::Chain::Chain(const DurabilityConfig& config,
                                std::uint64_t seed)
    : directory(config.directory), repairRng(seed) {
  util::RetryPolicy policy;
  policy.baseDelayMs = config.repairBaseDelayMs;
  policy.maxDelayMs = config.repairMaxDelayMs;
  policy.deadlineMs = 0.0;  // repair retries indefinitely; no deadline
  repairBackoff = util::Backoff(policy, &repairRng);
}

DurabilityManager::DurabilityManager(DurabilityConfig config)
    : config_(std::move(config)) {
  chains_.push_back(std::make_unique<Chain>(config_, config_.repairSeed));
}

DurabilityManager::~DurabilityManager() = default;

io::Vfs& DurabilityManager::vfs() const noexcept {
  return config_.vfs != nullptr ? *config_.vfs : io::defaultVfs();
}

std::string DurabilityManager::shardDirectory(const std::string& root,
                                              std::size_t shard) {
  std::string suffix = std::to_string(shard);
  if (suffix.size() < 2) suffix.insert(0, "0");
  return root + "/shard-" + suffix;
}

std::string DurabilityManager::checkpointPath(const Chain& c,
                                              std::uint64_t seq) {
  return c.directory + "/" + seqName("checkpoint-", seq, ".bfc");
}

std::string DurabilityManager::walPath(const Chain& c, std::uint64_t seq) {
  return c.directory + "/" + seqName("wal-", seq, ".bfw");
}

void DurabilityManager::pruneGenerations(const Chain& c,
                                         std::uint64_t currentSeq) {
  if (config_.keepGenerations == 0) return;  // keep everything
  const auto checkpoints =
      listSeqFiles(vfs(), c.directory, "checkpoint-", ".bfc");
  // Keep the newest keepGenerations checkpoints; every WAL whose base
  // sequence is >= the oldest kept checkpoint is still needed to roll that
  // checkpoint forward (logs rotate AT checkpoints, so wal-<S> holds only
  // records with sequence > S).
  if (checkpoints.size() <= config_.keepGenerations) return;
  const std::uint64_t oldestKept =
      checkpoints[checkpoints.size() - config_.keepGenerations];
  for (std::uint64_t seq : checkpoints) {
    if (seq < oldestKept) (void)vfs().remove(checkpointPath(c, seq));
  }
  for (std::uint64_t seq : listSeqFiles(vfs(), c.directory, "wal-", ".bfw")) {
    if (seq < oldestKept && seq != currentSeq) {
      (void)vfs().remove(walPath(c, seq));
    }
  }
}

std::uint64_t DurabilityManager::measureStorageBytes(Chain& c) {
  c.storageBytes = 0;
  for (const std::string& name : vfs().listDir(c.directory)) {
    c.storageBytes += vfs().fileSize(c.directory + "/" + name);
  }
  std::uint64_t total = 0;
  for (const auto& chain : chains_) total += chain->storageBytes;
  walMetrics().storageBytes->set(static_cast<double>(total));
  return c.storageBytes;
}

void DurabilityManager::enforceStorageQuota(Chain& c,
                                            std::uint64_t currentSeq) {
  const std::uint64_t total = measureStorageBytes(c);
  if (config_.maxStorageBytes == 0 || total <= config_.maxStorageBytes) {
    return;
  }
  // Disk pressure: the quota outranks keepGenerations — only the newest
  // generation (checkpoint + its live log) survives. Losing fallback depth
  // is the right trade: an over-quota directory is how the NEXT checkpoint
  // starts failing with ENOSPC, which costs durability entirely.
  walMetrics().pressurePrunes->inc();
  const auto checkpoints =
      listSeqFiles(vfs(), c.directory, "checkpoint-", ".bfc");
  if (checkpoints.empty()) return;
  const std::uint64_t newest = checkpoints.back();
  for (std::uint64_t seq : checkpoints) {
    if (seq < newest) (void)vfs().remove(checkpointPath(c, seq));
  }
  for (std::uint64_t seq : listSeqFiles(vfs(), c.directory, "wal-", ".bfw")) {
    if (seq < newest && seq != currentSeq) {
      (void)vfs().remove(walPath(c, seq));
    }
  }
  (void)measureStorageBytes(c);
}

util::Status DurabilityManager::checkLayout(std::size_t shards) {
  std::vector<std::size_t> shardDirs;
  bool flatFiles = false;
  for (const std::string& name : vfs().listDir(config_.directory)) {
    if (const auto k = parseShardDir(name)) {
      shardDirs.push_back(*k);
    } else if (isChainFile(name)) {
      flatFiles = true;
    }
  }
  const auto mismatch = [&](const std::string& found) {
    return util::Status::error("shard count mismatch: " + config_.directory +
                               " holds " + found + ", the tracker has " +
                               std::to_string(shards) + " shard(s)");
  };
  if (shards == 1) {
    return shardDirs.empty() ? util::Status{}
                             : mismatch("per-shard chains");
  }
  if (flatFiles) return mismatch("a single-shard chain");
  bool anyFiles = false;
  for (std::size_t k : shardDirs) {
    if (k >= shards) return mismatch("a chain for shard " + std::to_string(k));
    for (const std::string& name :
         vfs().listDir(shardDirectory(config_.directory, k))) {
      anyFiles = anyFiles || isChainFile(name);
    }
  }
  // Every shard directory is created before any chain writes a file, so a
  // populated layout with missing directories came from fewer shards.
  if (anyFiles && shardDirs.size() < shards) {
    return mismatch(std::to_string(shardDirs.size()) + " shard chains");
  }
  return {};
}

util::Result<RecoveryStats> DurabilityManager::recoverAndAttach(
    FlowTracker& tracker) {
  using R = util::Result<RecoveryStats>;
  util::Stopwatch watch;
  const WalMetrics& m = walMetrics();
  m.recoveryRuns->inc();

  (void)vfs().mkdir(config_.directory);
  const std::size_t shards = tracker.shardCount();
  if (util::Status s = checkLayout(shards); !s.ok()) {
    return R::error(s.errorMessage());
  }
  chains_.resize(std::min(chains_.size(), shards));
  while (chains_.size() < shards) {
    chains_.push_back(
        std::make_unique<Chain>(config_, config_.repairSeed + chains_.size()));
  }
  if (shards > 1) {
    for (std::size_t k = 0; k < shards; ++k) {
      chains_[k]->directory = shardDirectory(config_.directory, k);
      (void)vfs().mkdir(chains_[k]->directory);
    }
  }

  RecoveryStats stats;
  for (std::size_t k = 0; k < shards; ++k) {
    util::Result<RecoveryStats> r = recoverChain(tracker, k);
    if (!r.ok()) {
      return R::error(shards == 1 ? r.errorMessage()
                                  : "shard " + std::to_string(k) +
                                        " recovery failed: " +
                                        r.errorMessage());
    }
    const RecoveryStats& c = r.value();
    stats.checkpointSequence += c.checkpointSequence;
    stats.replayedRecords += c.replayedRecords;
    stats.discardedBytes += c.discardedBytes;
    stats.lastSequence += c.lastSequence;
    stats.maxTimestamp = std::max(stats.maxTimestamp, c.maxTimestamp);
    stats.usedFallbackCheckpoint =
        stats.usedFallbackCheckpoint || c.usedFallbackCheckpoint;
    stats.shardSequences.push_back(c.lastSequence);
  }
  tracker.rebuildIndex();
  attached_ = true;
  publishHealth();

  stats.replayMillis = watch.elapsedMillis();
  m.recoveryLastReplayMs->set(stats.replayMillis);
  lastRecovery_ = stats;
  return stats;
}

util::Result<RecoveryStats> DurabilityManager::recoverChain(
    FlowTracker& tracker, std::size_t k) {
  using R = util::Result<RecoveryStats>;
  const WalMetrics& m = walMetrics();
  Chain& c = *chains_[k];
  RecoveryStats stats;

  // 1. Newest checkpoint that loads (import is all-or-nothing, so a failed
  //    attempt leaves the shard empty for the next candidate).
  const auto checkpoints =
      listSeqFiles(vfs(), c.directory, "checkpoint-", ".bfc");
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    auto info = loadSnapshot(tracker, checkpointPath(c, *it),
                             config_.secret, config_.vfs, k);
    if (info.ok()) {
      stats.checkpointSequence = info.value().sequence;
      stats.maxTimestamp = info.value().maxTimestamp;
      break;
    }
    stats.usedFallbackCheckpoint = true;
    m.recoveryFallbacks->inc();
  }

  // 2. Replay every log in base-sequence order. A log wal-<S> holds
  //    records S+1..; it can only extend the replay frontier when S+1 is
  //    at or below the next expected sequence — otherwise the records
  //    between the frontier and S are missing (torn tail of the previous
  //    log, or records lost while degraded) and everything in it is an
  //    unreachable suffix. Logs entirely below the checkpoint skip
  //    through via the in-file sequence checks.
  std::uint64_t next = stats.checkpointSequence + 1;
  for (std::uint64_t s : listSeqFiles(vfs(), c.directory, "wal-", ".bfw")) {
    if (s + 1 > next) {
      stats.discardedBytes += vfs().fileSize(walPath(c, s));
      continue;
    }
    const WalReplayResult r = replayWalFile(tracker, walPath(c, s), next,
                                            ~std::uint64_t{0}, config_.vfs, k);
    stats.replayedRecords += r.applied;
    stats.discardedBytes += r.discardedBytes;
    stats.maxTimestamp = std::max(stats.maxTimestamp, r.maxTimestamp);
    if (r.applied > 0) next = r.lastSequence + 1;
  }
  stats.lastSequence = next - 1;
  m.recoveryReplayedRecords->inc(stats.replayedRecords);
  m.recoveryDiscardedBytes->inc(stats.discardedBytes);

  // 3. Make the recovered state durable NOW: fresh checkpoint at the
  //    recovered sequence, fresh log continuing from it. Old generations
  //    (including any corrupt files) are pruned per config.
  if (util::Status s = saveSnapshot(tracker, checkpointPath(c, stats.lastSequence),
                                    config_.secret, stats.lastSequence,
                                    config_.vfs, k);
      !s.ok()) {
    m.checkpointFailures->inc();
    return R::error("post-recovery checkpoint failed: " + s.errorMessage());
  }
  m.checkpoints->inc();
  if (util::Status s =
          c.wal.open(walPath(c, stats.lastSequence), stats.lastSequence,
                     config_.syncEachAppend, config_.vfs);
      !s.ok()) {
    return R::error(s.errorMessage());
  }
  pruneGenerations(c, stats.lastSequence);
  enforceStorageQuota(c, stats.lastSequence);
  tracker.attachWal(&c.wal, k);
  c.lastCheckpointOk = true;
  c.health = DurabilityHealth::kHealthy;
  c.repairAttempts = 0;
  return stats;
}

util::Status DurabilityManager::checkpoint(const FlowTracker& tracker) {
  util::Status first;
  for (std::size_t k = 0; k < chains_.size(); ++k) {
    const util::Status s = checkpointChain(tracker, k);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

util::Status DurabilityManager::checkpointChain(const FlowTracker& tracker,
                                                std::size_t k) {
  util::Stopwatch watch;
  const WalMetrics& m = walMetrics();
  Chain& c = *chains_[k];
  // The caller quiesced mutations, so the last assigned sequence is stable
  // and the exported state contains exactly the records up to it — the
  // full in-memory state, including any records the WAL dropped, which is
  // what makes this checkpoint double as the degraded-mode repair.
  const std::uint64_t seq = c.wal.nextSequence() - 1;
  if (util::Status s = saveSnapshot(tracker, checkpointPath(c, seq),
                                    config_.secret, seq, config_.vfs, k);
      !s.ok()) {
    m.checkpointFailures->inc();
    m.checkpointDurationUs->observe(watch.elapsedMicros());
    c.lastCheckpointOk = false;
    // A failed save may still have left partial state (and earlier
    // generations are still on disk); re-measure and prune so the quota
    // holds across failed attempts too, not just successful checkpoints.
    enforceStorageQuota(c, seq);
    enterDegraded(c);
    return s;
  }
  m.checkpoints->inc();
  if (util::Status s = c.wal.rotate(walPath(c, seq), seq); !s.ok()) {
    m.checkpointDurationUs->observe(watch.elapsedMicros());
    c.lastCheckpointOk = false;
    // The snapshot above DID land: without pruning here, every failed
    // rotation of a repair storm would strand one more checkpoint
    // generation and bf_storage_bytes would exceed the quota unbounded
    // until the next fully-successful checkpoint. Enforce after EVERY
    // rotation attempt, success or not.
    enforceStorageQuota(c, seq);
    enterDegraded(c);
    return s;
  }
  pruneGenerations(c, seq);
  enforceStorageQuota(c, seq);
  c.lastCheckpointOk = true;
  // A successful checkpoint + rotation IS a durable prefix: whatever the
  // WAL lost before is now inside the snapshot, so health is restored.
  c.health = DurabilityHealth::kHealthy;
  c.repairAttempts = 0;
  publishHealth();
  m.checkpointLastMs->set(watch.elapsedMillis());
  m.checkpointDurationUs->observe(watch.elapsedMicros());
  return {};
}

util::Status DurabilityManager::checkpointIfDue(const FlowTracker& tracker) {
  if (!attached_) return {};
  util::Status first;
  for (std::size_t k = 0; k < chains_.size(); ++k) {
    if (chains_[k]->wal.appendedRecords() < config_.checkpointEveryRecords) {
      continue;
    }
    const util::Status s = checkpointChain(tracker, k);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

void DurabilityManager::enterDegraded(Chain& c) {
  if (c.health == DurabilityHealth::kHealthy) {
    // New degraded episode: fresh backoff sequence.
    c.repairBackoff.reset();
    c.repairAttempts = 0;
  }
  c.health = DurabilityHealth::kDegraded;
  c.nextRepairDelayMs = c.repairBackoff.nextDelayMs();
  c.repairWatch.reset();
  publishHealth();
}

util::Status DurabilityManager::attemptRepair(const FlowTracker& tracker,
                                              std::size_t k) {
  Chain& c = *chains_[k];
  c.health = DurabilityHealth::kRecovering;
  publishHealth();
  ++c.repairAttempts;
  // Under disk pressure the repair itself needs room: shed old
  // generations before writing, not after.
  enforceStorageQuota(c, c.wal.nextSequence() - 1);
  // The repair is an emergency checkpoint: snapshot the full in-memory
  // state at the last assigned sequence (covering every lost record) and
  // rotate onto a fresh segment. checkpointChain() restores kHealthy on
  // success and re-enters kDegraded (advancing the backoff) on failure.
  util::Status s = checkpointChain(tracker, k);
  if (s.ok()) {
    walMetrics().repairs->inc();
  } else {
    walMetrics().repairFailures->inc();
  }
  return s;
}

util::Status DurabilityManager::maintain(const FlowTracker& tracker) {
  if (!attached_) return {};
  util::Status first;
  for (std::size_t k = 0; k < chains_.size(); ++k) {
    const util::Status s = maintainChain(tracker, k);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

util::Status DurabilityManager::maintainChain(const FlowTracker& tracker,
                                              std::size_t k) {
  Chain& c = *chains_[k];
  if (c.health == DurabilityHealth::kHealthy) {
    // Fast path: one WAL lock acquisition to learn everything we need.
    const WriteAheadLog::Stats s = c.wal.stats();
    if (!s.healthy || !c.lastCheckpointOk) {
      enterDegraded(c);
      return {};
    }
    if (s.appended >= config_.checkpointEveryRecords) {
      return checkpointChain(tracker, k);
    }
    return {};
  }
  // Degraded (or a previous repair still marked recovering): pace repair
  // attempts on the decorrelated-jitter backoff — a dying disk gets
  // breathing room, and the decision path pays one stopwatch read per
  // decision while waiting.
  if (c.repairWatch.elapsedMillis() < c.nextRepairDelayMs) return {};
  return attemptRepair(tracker, k);
}

DurabilityHealth DurabilityManager::health() const noexcept {
  DurabilityHealth worst = DurabilityHealth::kHealthy;
  for (const auto& c : chains_) worst = std::max(worst, c->health);
  return worst;
}

void DurabilityManager::publishHealth() const {
  walMetrics().health->set(static_cast<double>(health()));
}

bool DurabilityManager::healthy() const {
  return attached_ &&
         std::all_of(chains_.begin(), chains_.end(), [](const auto& c) {
           return c->health == DurabilityHealth::kHealthy &&
                  c->lastCheckpointOk && c->wal.healthy();
         });
}

std::uint64_t DurabilityManager::repairAttempts() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : chains_) total += c->repairAttempts;
  return total;
}

}  // namespace bf::flow
