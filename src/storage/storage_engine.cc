#include "storage/storage_engine.h"

#include <chrono>
#include <cstdio>

#include "algebra/relational_ops.h"
#include "constraints/eval_counters.h"
#include "core/fault_injection.h"
#include "core/str_util.h"
#include "storage/snapshot.h"

namespace dodb {
namespace storage {

namespace {

std::string Pad6(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06u", v);
  return buf;
}

bool ParseUint32(std::string_view text, uint32_t* value) {
  if (text.empty() || text.size() > 9) return false;
  uint32_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  *value = v;
  return true;
}

// Parses "snapshot-<gen>.snap"; false for anything else.
bool ParseSnapshotName(std::string_view name, uint32_t* generation) {
  if (!name.starts_with("snapshot-") || !name.ends_with(".snap")) return false;
  return ParseUint32(name.substr(9, name.size() - 9 - 5), generation);
}

// Parses "wal-<gen>-<segment>.wal"; false for anything else.
bool ParseWalName(std::string_view name, uint32_t* generation,
                  uint32_t* segment) {
  if (!name.starts_with("wal-") || !name.ends_with(".wal")) return false;
  std::string_view middle = name.substr(4, name.size() - 4 - 4);
  size_t dash = middle.find('-');
  if (dash == std::string_view::npos) return false;
  return ParseUint32(middle.substr(0, dash), generation) &&
         ParseUint32(middle.substr(dash + 1), segment);
}

}  // namespace

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kWal:
      return "wal";
    case DurabilityMode::kWalCheckpoint:
      return "wal+checkpoint";
  }
  return "?";
}

StorageEngine::StorageEngine(std::string dir, Database* db,
                             StorageOptions options)
    : dir_(std::move(dir)), db_(db), options_(std::move(options)) {}

StorageEngine::~StorageEngine() {
  if (!closed_) Close();  // best effort; status visible via failure()
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const std::string& dir, Database* db, StorageOptions options) {
  DODB_CHECK(db != nullptr);
  // Startup check: a tagged site missing from kAllFaultSites would let the
  // chaos sweeps silently skip it.
  DODB_RETURN_IF_ERROR(ValidateFaultSiteRegistry());
  std::unique_ptr<StorageEngine> engine(
      new StorageEngine(dir, db, std::move(options)));
  engine->guard_ = std::make_unique<QueryGuard>(engine->options_.limits);
  DODB_RETURN_IF_ERROR(
      ArmFaultFromSpec(engine->guard_.get(), engine->options_.fault_spec));
  if (engine->options_.mode != DurabilityMode::kOff) {
    DODB_RETURN_IF_ERROR(engine->Recover());
  }
  return engine;
}

std::string StorageEngine::SnapshotPath(uint32_t generation) const {
  return StrCat(dir_, "/snapshot-", Pad6(generation), ".snap");
}

std::string StorageEngine::WalPath(uint32_t generation,
                                   uint32_t segment) const {
  return StrCat(dir_, "/wal-", Pad6(generation), "-", Pad6(segment), ".wal");
}

Status StorageEngine::Recover() {
  const auto start = std::chrono::steady_clock::now();
  DODB_RETURN_IF_ERROR(CreateDirIfMissing(dir_));
  Result<std::vector<std::string>> names = ListDir(dir_);
  if (!names.ok()) return names.status();

  // Newest snapshot generation wins; a WAL from a newer generation than any
  // snapshot would mean the snapshot vanished (checkpoints write the
  // snapshot before the first WAL record of its generation), which is loss,
  // not a crash state — fail loudly.
  bool have_snapshot = false;
  uint32_t max_wal_generation = 0;
  for (const std::string& name : names.value()) {
    uint32_t generation = 0, segment = 0;
    if (ParseSnapshotName(name, &generation)) {
      have_snapshot = true;
      generation_ = std::max(generation_, generation);
    } else if (ParseWalName(name, &generation, &segment)) {
      max_wal_generation = std::max(max_wal_generation, generation);
    }
  }
  if (!have_snapshot) generation_ = 0;
  if (max_wal_generation > generation_) {
    return Status::InvalidArgument(
        StrCat("storage dir '", dir_, "': WAL generation ",
               max_wal_generation, " has no snapshot (newest snapshot ",
               have_snapshot ? StrCat("is ", generation_) : "missing",
               "); refusing to guess"));
  }

  if (have_snapshot) {
    Result<Database> loaded =
        LoadSnapshotFile(SnapshotPath(generation_), guard_.get());
    if (!loaded.ok()) return loaded.status();
    *db_ = std::move(loaded).value();
    recovery_.snapshot_loaded = true;
  } else {
    *db_ = Database();
  }
  recovery_.generation = generation_;

  // Replay this generation's segments in index order. The first torn or
  // corrupt tail ends the log: chop it and drop any later segments (they
  // are unreachable past the hole).
  uint32_t segment = 0;
  uint64_t last_valid_bytes = 0;
  bool have_segment = false;
  while (FileExists(WalPath(generation_, segment))) {
    Result<WalSegmentContents> contents = ReadWalSegment(
        WalPath(generation_, segment), generation_, segment, guard_.get());
    if (!contents.ok()) return contents.status();
    ++recovery_.segments_scanned;
    for (const WalRecord& record : contents.value().records) {
      DODB_RETURN_IF_ERROR(ApplyRecord(record));
      ++recovery_.records_replayed;
      EvalCounters::AddWalRecordsReplayed(1);
    }
    have_segment = true;
    last_valid_bytes = contents.value().valid_bytes;
    wal_bytes_ += contents.value().valid_bytes;
    segment_index_ = segment;
    if (contents.value().truncated) {
      recovery_.wal_truncated = true;
      if (contents.value().torn_txn_tail) {
        recovery_.torn_txn_tail = true;
        recovery_.warning = StrCat(
            "WAL tail of segment ", segment, " held an unfinished ",
            "transaction commit; its write set was discarded (the commit ",
            "never completed)");
      }
      for (uint32_t later = segment + 1;
           FileExists(WalPath(generation_, later)); ++later) {
        DODB_RETURN_IF_ERROR(
            RemoveFileIfExists(WalPath(generation_, later)));
      }
      break;
    }
    ++segment;
  }

  // Reopen the tail segment for appending (chopping any torn suffix), or
  // start the generation's first segment. A segment whose header itself was
  // torn is recreated from scratch.
  if (have_segment && last_valid_bytes >= kWalHeaderBytes) {
    DODB_RETURN_IF_ERROR(writer_.OpenForAppend(
        WalPath(generation_, segment_index_), last_valid_bytes));
  } else {
    DODB_RETURN_IF_ERROR(writer_.Create(WalPath(generation_, segment_index_),
                                        generation_, segment_index_));
    wal_bytes_ += kWalHeaderBytes - last_valid_bytes;
  }

  // Retire files recovery will never read again: older generations and
  // leftover temp files from an interrupted checkpoint.
  for (const std::string& name : names.value()) {
    uint32_t generation = 0, segment_no = 0;
    bool stale =
        (ParseSnapshotName(name, &generation) && generation < generation_) ||
        (ParseWalName(name, &generation, &segment_no) &&
         generation < generation_) ||
        name.ends_with(".tmp");
    if (stale) {
      DODB_RETURN_IF_ERROR(RemoveFileIfExists(StrCat(dir_, "/", name)));
    }
  }
  DODB_RETURN_IF_ERROR(SyncDir(dir_));

  recovery_.recovery_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  EvalCounters::AddStorageRecoveryNs(recovery_.recovery_ns);
  return Status::Ok();
}

Status StorageEngine::ApplyRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kCreateRelation:
      return db_->AddRelation(record.name,
                              GeneralizedRelation(record.arity));
    case WalRecordType::kDropRelation:
      if (!db_->RemoveRelation(record.name)) {
        return Status::Internal(StrCat("WAL replay: drop of missing relation '",
                                       record.name, "'"));
      }
      return Status::Ok();
    case WalRecordType::kSetRelation:
      db_->SetRelation(record.name, record.relation);
      return Status::Ok();
    case WalRecordType::kInsertTuples: {
      const GeneralizedRelation* existing = db_->FindRelation(record.name);
      if (existing == nullptr) {
        return Status::Internal(StrCat(
            "WAL replay: insert into missing relation '", record.name, "'"));
      }
      // Same merge the command layer performed when it logged the batch, so
      // replay reproduces the in-memory relation structurally.
      db_->SetRelation(record.name,
                       algebra::Union(*existing, record.relation));
      return Status::Ok();
    }
    case WalRecordType::kCreateView:
      if (!options_.view_hooks.restore) {
        return Status::Unsupported(
            StrCat("WAL replay: view '", record.name,
                   "' found but no view registry is attached"));
      }
      // Re-registered stale: the materialized tuples are derived state the
      // caller recomputes after recovery (RefreshStale). The exported
      // relation may already be present from the snapshot; it keeps serving
      // until then.
      return options_.view_hooks.restore(record.name, record.text);
    case WalRecordType::kDropView:
      if (!options_.view_hooks.restore_drop) {
        return Status::Unsupported(
            StrCat("WAL replay: view drop of '", record.name,
                   "' found but no view registry is attached"));
      }
      if (!options_.view_hooks.restore_drop(record.name)) {
        return Status::Internal(
            StrCat("WAL replay: drop of unregistered view '", record.name,
                   "'"));
      }
      db_->RemoveRelation(record.name);
      return Status::Ok();
    case WalRecordType::kTxnCommit:
      // The group is atomic by framing: either the whole record decoded (we
      // are here) or recovery truncated at its start. Apply the buffered
      // ops in execution order — each sub-record reuses the cases above.
      for (const WalRecord& op : record.group) {
        DODB_RETURN_IF_ERROR(ApplyRecord(op));
      }
      ++recovery_.txn_commits_replayed;
      recovery_.last_txn_generation =
          std::max(recovery_.last_txn_generation, record.txn_generation);
      return Status::Ok();
  }
  return Status::Internal("WAL replay: unreachable record type");
}

Status StorageEngine::Fail(Status status) {
  if (failed_.ok() && !status.ok()) failed_ = status;
  return status;
}

Status StorageEngine::RejectReadOnly() const {
  return Status::ReadOnly(
      StrCat("storage is read-only after: ", failed_.ToString(),
             " (reopen '", dir_, "' to resume logging)"));
}

Status StorageEngine::SyncWriter() {
  // The degrade site: a trip here emulates fsync returning EIO — no crash,
  // but the tail's durability is unknown, so the engine flips sticky-failed
  // and every later mutation is refused with kReadOnly.
  if (!guard_->Checkpoint(GuardSite::kWalSyncDegrade)) {
    return Fail(guard_->status());
  }
  Status status = Fail(writer_.Sync(guard_.get()));
  if (status.ok()) unsynced_records_ = 0;
  return status;
}

Status StorageEngine::LogRecord(const WalRecord& record) {
  if (options_.mode == DurabilityMode::kOff) return Status::Ok();
  if (closed_) {
    return Status::Internal("storage engine used after Close()");
  }
  if (!failed_.ok()) return RejectReadOnly();

  std::vector<uint8_t> payload = EncodeWalRecord(record);
  DODB_RETURN_IF_ERROR(Fail(writer_.Append(payload, guard_.get())));
  wal_bytes_ += 8 + payload.size();
  ++unsynced_records_;
  if (unsynced_records_ >= options_.wal_sync_every) {
    DODB_RETURN_IF_ERROR(SyncWriter());
  }

  if (writer_.size() > options_.wal_segment_bytes) {
    if (unsynced_records_ > 0) {
      DODB_RETURN_IF_ERROR(SyncWriter());
    }
    DODB_RETURN_IF_ERROR(Fail(writer_.Close()));
    ++segment_index_;
    DODB_RETURN_IF_ERROR(Fail(writer_.Create(
        WalPath(generation_, segment_index_), generation_, segment_index_)));
    wal_bytes_ += kWalHeaderBytes;
  }

  if (options_.mode == DurabilityMode::kWalCheckpoint &&
      options_.checkpoint_wal_bytes > 0 &&
      wal_bytes_ > options_.checkpoint_wal_bytes) {
    // The record above is already durable; a checkpoint failure here leaves
    // it recoverable from the WAL, but the engine goes sticky-failed.
    DODB_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

Status StorageEngine::LogCreate(const std::string& name, int arity) {
  WalRecord record;
  record.type = WalRecordType::kCreateRelation;
  record.name = name;
  record.arity = arity;
  return LogRecord(record);
}

Status StorageEngine::LogDrop(const std::string& name) {
  WalRecord record;
  record.type = WalRecordType::kDropRelation;
  record.name = name;
  return LogRecord(record);
}

Status StorageEngine::LogSet(const std::string& name,
                             const GeneralizedRelation& relation) {
  WalRecord record;
  record.type = WalRecordType::kSetRelation;
  record.name = name;
  record.relation = relation;  // O(1): COW tuple storage
  return LogRecord(record);
}

Status StorageEngine::LogInsert(const std::string& name,
                                const GeneralizedRelation& batch) {
  WalRecord record;
  record.type = WalRecordType::kInsertTuples;
  record.name = name;
  record.relation = batch;
  return LogRecord(record);
}

Status StorageEngine::LogViewCreate(const std::string& name,
                                    const std::string& text) {
  WalRecord record;
  record.type = WalRecordType::kCreateView;
  record.name = name;
  record.text = text;
  return LogRecord(record);
}

Status StorageEngine::LogViewDrop(const std::string& name) {
  WalRecord record;
  record.type = WalRecordType::kDropView;
  record.name = name;
  return LogRecord(record);
}

Status StorageEngine::LogTxnCommit(uint64_t txn_generation,
                                   const std::vector<WalRecord>& ops) {
  if (options_.mode == DurabilityMode::kOff) return Status::Ok();
  if (closed_) {
    return Status::Internal("storage engine used after Close()");
  }
  if (!failed_.ok()) return RejectReadOnly();
  // Crash emulation right before the commit group becomes durable: the
  // transaction validated but its effects must vanish on recovery.
  if (!guard_->Checkpoint(GuardSite::kTxnWalCommit)) {
    return Fail(guard_->status());
  }
  WalRecord record;
  record.type = WalRecordType::kTxnCommit;
  record.txn_generation = txn_generation;
  record.group = ops;
  return LogRecord(record);
}

Status StorageEngine::Checkpoint() {
  if (options_.mode == DurabilityMode::kOff) return Status::Ok();
  if (closed_) {
    return Status::Internal("storage engine used after Close()");
  }
  if (!failed_.ok()) return RejectReadOnly();
  if (unsynced_records_ > 0) {
    DODB_RETURN_IF_ERROR(SyncWriter());
  }

  // Generation N+1 is born in this order — snapshot, fresh WAL, retire N —
  // so a crash between any two steps leaves at least one complete
  // generation on disk for recovery to pick up.
  const uint32_t old_generation = generation_;
  const uint32_t new_generation = generation_ + 1;
  DODB_RETURN_IF_ERROR(
      Fail(WriteSnapshotFile(*db_, SnapshotPath(new_generation),
                             guard_.get())));
  DODB_RETURN_IF_ERROR(Fail(writer_.Close()));
  generation_ = new_generation;
  segment_index_ = 0;
  DODB_RETURN_IF_ERROR(Fail(
      writer_.Create(WalPath(new_generation, 0), new_generation, 0)));
  wal_bytes_ = kWalHeaderBytes;
  // View definitions live only in the WAL (their create records are in the
  // generation being retired), so every registered view is re-logged into
  // the fresh log before the old one goes away. Appended directly — routing
  // through LogRecord could recurse into Checkpoint via the size trigger.
  if (options_.view_hooks.list) {
    for (const auto& [name, text] : options_.view_hooks.list()) {
      WalRecord record;
      record.type = WalRecordType::kCreateView;
      record.name = name;
      record.text = text;
      std::vector<uint8_t> payload = EncodeWalRecord(record);
      DODB_RETURN_IF_ERROR(Fail(writer_.Append(payload, guard_.get())));
      wal_bytes_ += 8 + payload.size();
    }
    DODB_RETURN_IF_ERROR(SyncWriter());
  }
  DODB_RETURN_IF_ERROR(Fail(DeleteGeneration(old_generation)));
  return Status::Ok();
}

Status StorageEngine::DeleteGeneration(uint32_t generation) {
  DODB_RETURN_IF_ERROR(RemoveFileIfExists(SnapshotPath(generation)));
  DODB_RETURN_IF_ERROR(
      RemoveFileIfExists(StrCat(SnapshotPath(generation), ".tmp")));
  for (uint32_t segment = 0; FileExists(WalPath(generation, segment));
       ++segment) {
    DODB_RETURN_IF_ERROR(RemoveFileIfExists(WalPath(generation, segment)));
  }
  return SyncDir(dir_);
}

Status StorageEngine::Close() {
  if (closed_) return failed_;
  if (options_.mode == DurabilityMode::kOff) {
    closed_ = true;
    return Status::Ok();
  }
  Status status = failed_;
  if (status.ok() && unsynced_records_ > 0) {
    status = SyncWriter();
  }
  if (status.ok() && options_.mode == DurabilityMode::kWalCheckpoint) {
    status = Checkpoint();
  }
  Status close_status = writer_.Close();
  if (status.ok()) status = close_status;
  closed_ = true;
  return status;
}

}  // namespace storage
}  // namespace dodb
