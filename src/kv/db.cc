#include "src/kv/db.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/codec.h"
#include "src/common/logging.h"
#include "src/kv/filename.h"

namespace gt::kv {

namespace {

// Collapses internal-key versions into a live user-key view: first version
// (highest sequence) of each user key wins; tombstoned keys are skipped.
// `seq` bounds visibility: versions newer than it do not exist for this
// iterator (kMaxSequenceNumber = read the latest state).
class DBIter final : public Iterator {
 public:
  // `mem` pins the memtable the internal iterator reads (table iterators
  // pin their own Table; the memtable iterator holds only a raw pointer,
  // so without this ref a racing flush could free it mid-scan).
  DBIter(std::unique_ptr<Iterator> internal, std::shared_ptr<MemTable> mem,
         SequenceNumber seq = kMaxSequenceNumber)
      : it_(std::move(internal)), mem_(std::move(mem)), seq_(seq) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    it_->SeekToFirst();
    FindNextLiveEntry();
  }

  void Seek(Slice target) override {
    std::string ikey;
    AppendInternalKey(&ikey, target, seq_, kTypeValue);
    it_->Seek(ikey);
    FindNextLiveEntry();
  }

  void Next() override {
    SkipRemainingVersions();
    FindNextLiveEntry();
  }

  Slice key() const override { return ExtractUserKey(it_->key()); }
  Slice value() const override { return it_->value(); }
  Status status() const override { return it_->status(); }

 private:
  // Advances past all remaining versions of the current user key.
  void SkipRemainingVersions() {
    std::string current(key().data(), key().size());
    while (it_->Valid() && ExtractUserKey(it_->key()) == Slice(current)) it_->Next();
  }

  // Positions at the newest live (non-deleted) user key at/after current pos.
  void FindNextLiveEntry() {
    valid_ = false;
    while (it_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(it_->key(), &parsed)) {
        it_->Next();
        continue;
      }
      if (parsed.sequence > seq_) {
        // Written after the snapshot was pinned: invisible. Skip just this
        // version — an older, visible version of the same user key may
        // follow and is then the authoritative one.
        it_->Next();
        continue;
      }
      if (parsed.type == kTypeDeletion) {
        // Skip all versions of this deleted key.
        std::string dead(parsed.user_key.data(), parsed.user_key.size());
        while (it_->Valid() && ExtractUserKey(it_->key()) == Slice(dead)) it_->Next();
        continue;
      }
      valid_ = true;
      return;
    }
  }

  std::unique_ptr<Iterator> it_;
  std::shared_ptr<MemTable> mem_;
  const SequenceNumber seq_;
  bool valid_ = false;
};

// Emits every KvStats counter for one live DB instance into the process
// registry, labelled db=<instance>. Exposition-time only: the write paths
// keep touching the plain KvStats atomics.
metrics::CollectorId RegisterKvCollector(const std::string& label,
                                         const KvStats* stats) {
  auto* reg = metrics::Registry::Default();
  reg->DescribeFamily("gt_kv_block_cache_hits_total", metrics::MetricType::kCounter,
                      "Block reads served from the block cache.");
  reg->DescribeFamily("gt_kv_wal_fsyncs_total", metrics::MetricType::kCounter,
                      "WAL fdatasyncs paid before write acks (sync_wal).");
  reg->DescribeFamily("gt_kv_compaction_bytes_total", metrics::MetricType::kCounter,
                      "Output bytes written by compactions.");
  reg->DescribeFamily("gt_kv_file_op_errors_total", metrics::MetricType::kCounter,
                      "Failed best-effort file operations (dying disk).");
  return reg->AddCollector([label, stats](std::vector<metrics::Sample>* out) {
    const metrics::Labels l = {{"db", label}};
    auto counter = [&](const char* name, const std::atomic<uint64_t>& v) {
      out->push_back({name, l, static_cast<double>(v.load()),
                      metrics::MetricType::kCounter});
    };
    counter("gt_kv_puts_total", stats->puts);
    counter("gt_kv_deletes_total", stats->deletes);
    counter("gt_kv_gets_total", stats->gets);
    counter("gt_kv_get_hits_total", stats->get_hits);
    counter("gt_kv_block_reads_total", stats->block_reads);
    counter("gt_kv_block_cache_hits_total", stats->block_cache_hits);
    counter("gt_kv_bloom_negatives_total", stats->bloom_negatives);
    counter("gt_kv_flushes_total", stats->flushes);
    counter("gt_kv_compactions_total", stats->compactions);
    counter("gt_kv_compaction_bytes_total", stats->compaction_bytes);
    counter("gt_kv_bytes_written_total", stats->bytes_written);
    counter("gt_kv_bytes_read_total", stats->bytes_read);
    counter("gt_kv_wal_records_total", stats->wal_records);
    counter("gt_kv_wal_fsyncs_total", stats->wal_fsyncs);
    counter("gt_kv_wal_torn_tails_total", stats->wal_torn_tails);
    counter("gt_kv_manifest_edits_total", stats->manifest_edits);
    counter("gt_kv_manifest_rotations_total", stats->manifest_rotations);
    counter("gt_kv_orphans_swept_total", stats->orphans_swept);
    counter("gt_kv_file_op_errors_total", stats->file_op_errors);
    counter("gt_kv_snapshots_taken_total", stats->snapshots_taken);
    counter("gt_kv_snapshots_released_total", stats->snapshots_released);
    counter("gt_kv_snapshot_preserved_versions_total",
            stats->snapshot_preserved_versions);
  });
}

}  // namespace

DB::DB(std::string dir, DBOptions opts) : dir_(std::move(dir)), opts_(opts) {
  if (opts_.block_cache_bytes > 0) {
    block_cache_ = std::make_unique<LruCache<Block>>(opts_.block_cache_bytes);
  }
  mem_ = std::make_shared<MemTable>();
  compaction_pool_ = std::make_unique<ThreadPool>(1);
  std::string label = opts_.metrics_label;
  if (label.empty()) {
    const size_t slash = dir_.find_last_of('/');
    label = slash == std::string::npos ? dir_ : dir_.substr(slash + 1);
  }
  metrics_collector_ = RegisterKvCollector(label, &stats_);
}

DB::~DB() {
  metrics::Registry::Default()->RemoveCollector(metrics_collector_);
  {
    // Final flush so reopening recovers without a WAL replay of a large log.
    MutexLock lk(&write_mu_);
    Status s = FlushLocked();
    if (!s.ok()) {
      // Not fatal — the WAL still holds the data and replays on reopen — but
      // a flush that fails at shutdown usually means a dying disk.
      GT_WARN << "kv: final flush failed (WAL will replay on reopen): " << s.ToString();
      stats_.file_op_errors.fetch_add(1);
    }
  }
  WaitForCompaction();
  compaction_pool_->Shutdown();
}

bool DB::RemoveFileLogged(const std::string& path, const char* what) {
  Status s = opts_.env->RemoveFile(path);
  if (!s.ok() && !s.IsNotFound()) {
    GT_WARN << "kv: removing " << what << " " << path << " failed: " << s.ToString();
    stats_.file_op_errors.fetch_add(1);
    return false;
  }
  return true;
}

TableReadOptions DB::MakeTableReadOptions() {
  TableReadOptions topts;
  topts.block_cache = block_cache_.get();
  topts.stats = &stats_;
  topts.device = opts_.device;
  topts.bloom_bits_per_key = opts_.bloom_bits_per_key;
  return topts;
}

std::string DB::TablePath(uint64_t id) const { return dir_ + "/" + TableFileName(id); }

std::string DB::WalPath() const { return dir_ + "/" + kWalFileName; }

Result<std::unique_ptr<DB>> DB::Open(const std::string& dir, DBOptions opts) {
  GT_RETURN_IF_ERROR(opts.env->CreateDirIfMissing(dir));
  auto db = std::unique_ptr<DB>(new DB(dir, opts));
  GT_RETURN_IF_ERROR(db->Recover());
  return db;
}

Status DB::Recover() {
  Env* env = opts_.env;
  // Open-time only, so the locks are uncontended — but taking them keeps the
  // guarded-by contracts honest instead of opting Recover out of analysis.
  MutexLock lk(&write_mu_);

  // The manifest names the exact live table set. Directories from before the
  // manifest existed (no CURRENT) bootstrap it once from a directory glob —
  // the only place globbing is still allowed. The glob happens up front and
  // is handed to Manifest::Open so the legacy tables land in the initial
  // snapshot before CURRENT is created; logging them as an edit afterwards
  // would open a crash window in which a durable CURRENT names an empty
  // live set and the orphan sweep deletes every legacy table.
  std::vector<uint64_t> legacy_tables;
  if (!env->FileExists(dir_ + "/" + kCurrentFileName)) {
    std::vector<std::string> names;
    GT_RETURN_IF_ERROR(env->ListDir(dir_, &names));
    for (const auto& name : names) {
      uint64_t id;
      if (ParseTableFileName(name, &id)) legacy_tables.push_back(id);
    }
  }
  ManifestState mstate;
  auto manifest = Manifest::Open(env, dir_, &mstate, &stats_, legacy_tables);
  if (!manifest.ok()) return manifest.status();
  manifest_ = std::move(*manifest);

  // Delete crash leftovers before loading anything.
  SweepOrphans(mstate.live_tables);

  // Load live tables, newest (highest id) first. Ids are allocated in
  // install order, so descending id == newest data first.
  std::vector<uint64_t> ids = mstate.live_tables;
  std::sort(ids.rbegin(), ids.rend());
  next_file_id_ = std::max(next_file_id_, mstate.next_file_id);
  last_sequence_ = std::max(last_sequence_, mstate.last_sequence);
  std::vector<std::shared_ptr<Table>> tables;
  for (uint64_t id : ids) {
    auto table = Table::Open(env, TablePath(id), id, MakeTableReadOptions());
    if (!table.ok()) return table.status();
    tables.push_back(*table);
    next_file_id_ = std::max(next_file_id_, id + 1);
    // Legacy dirs have no sequence watermark in the manifest; recover it
    // from the newest version in each table.
    ParsedInternalKey parsed;
    if (ParseInternalKey(Slice((*table)->largest()), &parsed)) {
      last_sequence_ = std::max(last_sequence_, parsed.sequence);
    }
    if (ParseInternalKey(Slice((*table)->smallest()), &parsed)) {
      last_sequence_ = std::max(last_sequence_, parsed.sequence);
    }
  }
  std::shared_ptr<MemTable> mem;
  {
    MutexLock slk(&state_mu_);
    tables_ = std::move(tables);
    mem = mem_;
  }

  // Replay the WAL into the memtable. A torn final record (crash mid-append)
  // ends the log cleanly; corruption in the middle is fatal.
  if (env->FileExists(WalPath())) {
    std::unique_ptr<SequentialFile> file;
    GT_RETURN_IF_ERROR(env->NewSequentialFile(WalPath(), &file));
    WalReader reader(std::move(file));
    std::string scratch;
    Slice record;
    while (reader.ReadRecord(&scratch, &record)) {
      auto batch = WriteBatch::FromRep(record);
      if (!batch.ok()) return batch.status();
      GT_RETURN_IF_ERROR(batch->InsertInto(mem.get()));
      last_sequence_ = std::max(last_sequence_, batch->sequence() + batch->Count() - 1);
      stats_.wal_records.fetch_add(1);
    }
    GT_RETURN_IF_ERROR(reader.status());
    if (reader.tail_dropped()) {
      GT_WARN << "kv: dropped torn tail of " << WalPath() << " (crash mid-append)";
      stats_.wal_torn_tails.fetch_add(1);
    }
  }

  // Open (append is emulated by rewriting: flush replayed entries first so
  // truncating the WAL loses nothing).
  if (!mem->empty()) {
    GT_RETURN_IF_ERROR(FlushLocked());  // also starts a fresh WAL
  }
  if (wal_ == nullptr) {
    std::unique_ptr<WritableFile> wal_file;
    GT_RETURN_IF_ERROR(env->NewWritableFile(WalPath(), &wal_file));
    wal_ = std::make_unique<WalWriter>(std::move(wal_file));
  }
  // One directory sync covers every entry created above (first WAL, first
  // manifest) so a fresh store survives power loss from its first write on.
  return env->SyncDir(dir_);
}

void DB::SweepOrphans(const std::vector<uint64_t>& live_tables) {
  std::vector<std::string> names;
  Status s = opts_.env->ListDir(dir_, &names);
  if (!s.ok()) {
    GT_WARN << "kv: orphan sweep could not list " << dir_ << ": " << s.ToString();
    stats_.file_op_errors.fetch_add(1);
    return;
  }
  const std::unordered_set<uint64_t> live(live_tables.begin(), live_tables.end());
  const std::string current_manifest = manifest_->current_file_name();
  for (const auto& name : names) {
    uint64_t id = 0;
    bool orphan = false;
    if (IsTempFileName(name)) {
      orphan = true;  // half-written table/CURRENT from a crashed install
    } else if (ParseTableFileName(name, &id)) {
      orphan = live.count(id) == 0;  // e.g. compaction input whose delete was cut short
    } else if (ParseManifestFileName(name, &id)) {
      orphan = name != current_manifest;  // leftover of an interrupted rotation
    }
    if (orphan && RemoveFileLogged(dir_ + "/" + name, "orphan")) {
      stats_.orphans_swept.fetch_add(1);
    }
  }
}

Status DB::Put(Slice key, Slice value) {
  WriteBatch batch;
  batch.Put(key, value);
  stats_.puts.fetch_add(1);
  return Write(std::move(batch));
}

Status DB::Delete(Slice key) {
  WriteBatch batch;
  batch.Delete(key);
  stats_.deletes.fetch_add(1);
  return Write(std::move(batch));
}

Status DB::Write(WriteBatch batch) {
  MutexLock lk(&write_mu_);
  batch.SetSequence(last_sequence_ + 1);
  last_sequence_ += batch.Count();

  GT_RETURN_IF_ERROR(wal_->AddRecord(batch.rep()));
  if (opts_.sync_wal) {
    GT_RETURN_IF_ERROR(wal_->Sync());
    stats_.wal_fsyncs.fetch_add(1);
  }
  stats_.bytes_written.fetch_add(batch.rep().size());

  std::shared_ptr<MemTable> mem;
  {
    MutexLock slk(&state_mu_);
    mem = mem_;
  }
  GT_RETURN_IF_ERROR(batch.InsertInto(mem.get()));

  if (mem->ApproximateMemoryUsage() >= opts_.memtable_bytes) {
    GT_RETURN_IF_ERROR(FlushLocked());
  }
  return Status::OK();
}

Status DB::Flush() {
  MutexLock lk(&write_mu_);
  return FlushLocked();
}

Status DB::FlushLocked() {
  std::shared_ptr<MemTable> mem;
  {
    MutexLock slk(&state_mu_);
    mem = mem_;
  }
  if (mem->empty()) return Status::OK();

  const uint64_t id = next_file_id_++;
  const std::string path = TablePath(id);
  const std::string tmp = path + kTempSuffix;

  std::unique_ptr<WritableFile> file;
  GT_RETURN_IF_ERROR(opts_.env->NewWritableFile(tmp, &file));
  TableBuilder builder(std::move(file), opts_.block_size, opts_.bloom_bits_per_key);

  Status s;
  auto it = mem->NewIterator();
  for (it->SeekToFirst(); s.ok() && it->Valid(); it->Next()) {
    s = builder.Add(it->key(), it->value());
  }
  if (s.ok()) s = builder.Finish();  // syncs the table file before closing
  if (s.ok()) s = opts_.env->RenameFile(tmp, path);
  // The rename (and the entry itself) must be durable before the manifest
  // references the file, or recovery could chase a name that power loss
  // erased.
  if (s.ok()) s = opts_.env->SyncDir(dir_);
  if (!s.ok()) {
    RemoveFileLogged(tmp, "aborted flush output");  // don't leak the temp
    return s;
  }

  auto table = Table::Open(opts_.env, path, id, MakeTableReadOptions());
  if (!table.ok()) return table.status();

  // Durably install the table in the live set. Until this edit is synced the
  // WAL must stay intact, so the rotation below strictly follows it; if we
  // crash in between, replay simply rebuilds the same data (the orphaned
  // table file is swept at the next open).
  VersionEdit edit;
  edit.added_tables.push_back(id);
  edit.next_file_id = next_file_id_;
  edit.last_sequence = last_sequence_;
  GT_RETURN_IF_ERROR(manifest_->LogEdit(edit));

  bool trigger_compaction = false;
  {
    MutexLock slk(&state_mu_);
    tables_.insert(tables_.begin(), *table);
    mem_ = std::make_shared<MemTable>();
    trigger_compaction = opts_.background_compaction &&
                         static_cast<int>(tables_.size()) >= opts_.l0_compaction_trigger &&
                         !compaction_scheduled_;
    if (trigger_compaction) compaction_scheduled_ = true;
  }
  stats_.flushes.fetch_add(1);

  // Start a fresh WAL: everything in the old one is now durably installed in
  // the table (the manifest edit above is fsync'd before we get here).
  std::unique_ptr<WritableFile> wal_file;
  GT_RETURN_IF_ERROR(opts_.env->NewWritableFile(WalPath(), &wal_file));
  wal_ = std::make_unique<WalWriter>(std::move(wal_file));

  if (trigger_compaction) {
    compaction_pool_->Submit([this] {
      Status s = DoCompaction();
      if (!s.ok()) {
        GT_WARN << "background compaction failed: " << s.ToString();
      }
      MutexLock slk(&state_mu_);
      compaction_scheduled_ = false;
    });
  }
  return Status::OK();
}

Status DB::CompactAll() {
  WaitForCompaction();
  GT_RETURN_IF_ERROR(Flush());
  return DoCompaction();
}

void DB::WaitForCompaction() { compaction_pool_->Wait(); }

Status DB::DoCompaction() {
  MutexLock run_lk(&compaction_run_mu_);

  std::vector<std::shared_ptr<Table>> inputs;
  // Versions at or below the smallest live pinned sequence can be
  // collapsed to one per user key; everything newer must survive so every
  // snapshot keeps its view. No snapshots = collapse everything (the
  // pre-snapshot behavior). A snapshot pinned after this read is safe: its
  // sequence is >= every sequence in `inputs`, so it only needs each key's
  // newest input version — which is always kept — and it additionally pins
  // the input tables themselves via its ReadState.
  SequenceNumber smallest_snapshot = 0;
  {
    MutexLock lk(&write_mu_);
    smallest_snapshot = last_sequence_;
    MutexLock slk(&state_mu_);
    inputs = tables_;
    if (!snapshot_seqs_.empty()) smallest_snapshot = *snapshot_seqs_.begin();
  }
  if (inputs.size() <= 1) return Status::OK();

  // Merge all inputs, keeping for each user key its newest version plus
  // every version some live snapshot can still see (tombstones included);
  // with no snapshots this collapses to newest-version-only with tombstones
  // dropped (this is a full compaction: nothing older exists).
  InternalKeyComparator icmp;
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(inputs.size());
  for (auto& t : inputs) children.push_back(t->NewIterator());
  MergingIterator merged(&icmp, std::move(children));

  uint64_t id;
  uint64_t next_id_after;
  {
    MutexLock lk(&write_mu_);
    id = next_file_id_++;
    next_id_after = next_file_id_;
  }
  const std::string path = TablePath(id);
  const std::string tmp = path + kTempSuffix;
  std::unique_ptr<WritableFile> file;
  GT_RETURN_IF_ERROR(opts_.env->NewWritableFile(tmp, &file));
  TableBuilder builder(std::move(file), opts_.block_size, opts_.bloom_bits_per_key);

  Status s;
  std::string last_user_key;
  bool has_last = false;
  // Sequence of the previous (newer) version of the current user key;
  // kMaxSequenceNumber while positioned at a key's newest version.
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  for (merged.SeekToFirst(); s.ok() && merged.Valid(); merged.Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged.key(), &parsed)) {
      s = Status::Corruption("bad key during compaction");
      break;
    }
    if (!has_last || parsed.user_key != Slice(last_user_key)) {
      last_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      last_sequence_for_key = kMaxSequenceNumber;
    }
    const bool newest_of_key = last_sequence_for_key == kMaxSequenceNumber;
    bool drop = false;
    if (last_sequence_for_key <= smallest_snapshot) {
      // A newer version at/below every live snapshot already shadows this
      // one at every visible horizon.
      drop = true;
    } else if (parsed.type == kTypeDeletion && parsed.sequence <= smallest_snapshot) {
      // Tombstone visible to every snapshot: this is a full compaction, so
      // no older version survives outside the inputs and the deletion
      // marker itself can vanish (its older versions drop via the rule
      // above on the next iterations).
      drop = true;
    }
    last_sequence_for_key = parsed.sequence;
    if (drop) continue;
    if (!newest_of_key || parsed.type == kTypeDeletion) {
      // Kept only because a live snapshot may still read it; without
      // snapshots the old collapse-to-newest rule would have dropped it.
      stats_.snapshot_preserved_versions.fetch_add(1);
    }
    s = builder.Add(merged.key(), merged.value());
  }
  if (s.ok()) s = merged.status();
  if (s.ok()) s = builder.Finish();  // syncs the table file before closing
  if (s.ok()) stats_.compaction_bytes.fetch_add(builder.FileSize());
  if (s.ok()) s = opts_.env->RenameFile(tmp, path);
  if (s.ok()) s = opts_.env->SyncDir(dir_);  // entry durable before the manifest names it
  if (!s.ok()) {
    RemoveFileLogged(tmp, "aborted compaction output");  // don't leak the temp
    return s;
  }

  auto table = Table::Open(opts_.env, path, id, MakeTableReadOptions());
  if (!table.ok()) return table.status();

  // One durable edit swaps the inputs for the output. Ordering is the heart
  // of the tombstone-resurrection fix: the output (which dropped tombstones)
  // only becomes live in the same fsync'd edit that retires the inputs, and
  // the input files are physically deleted strictly afterwards — a crash
  // anywhere in between leaves either the old live set or the new one, never
  // a recovery that re-reads retired inputs.
  VersionEdit edit;
  edit.added_tables.push_back(id);
  for (const auto& in : inputs) edit.removed_tables.push_back(in->file_id());
  edit.next_file_id = next_id_after;
  GT_RETURN_IF_ERROR(manifest_->LogEdit(edit));

  // Install: replace exactly the input tables; keep any tables flushed since
  // the snapshot (they are newer and must stay in front).
  std::vector<std::shared_ptr<Table>> obsolete;
  {
    MutexLock slk(&state_mu_);
    std::vector<std::shared_ptr<Table>> next;
    for (auto& t : tables_) {
      const bool was_input =
          std::any_of(inputs.begin(), inputs.end(),
                      [&](const auto& in) { return in->file_id() == t->file_id(); });
      if (!was_input) next.push_back(t);
    }
    next.push_back(*table);
    tables_.swap(next);
    obsolete = std::move(inputs);
  }
  stats_.compactions.fetch_add(1);

  for (auto& t : obsolete) {
    // Failures are non-fatal (the file is already retired in the manifest
    // and will be swept at the next open) but must not be invisible.
    RemoveFileLogged(TablePath(t->file_id()), "compaction input");
  }
  return Status::OK();
}

DB::ReadState DB::SnapshotState() const {
  MutexLock slk(&state_mu_);
  return ReadState{mem_, tables_};
}

const DB::Snapshot* DB::GetSnapshot() {
  // write_mu_ freezes last_sequence_ while the matching state is copied, so
  // the pinned view holds exactly the versions at seq (lock order:
  // write_mu_ -> state_mu_).
  MutexLock lk(&write_mu_);
  const SequenceNumber seq = last_sequence_;
  MutexLock slk(&state_mu_);
  snapshot_seqs_.insert(seq);
  stats_.snapshots_taken.fetch_add(1);
  return new Snapshot(seq, ReadState{mem_, tables_});
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  {
    MutexLock slk(&state_mu_);
    auto it = snapshot_seqs_.find(snapshot->seq_);
    if (it != snapshot_seqs_.end()) snapshot_seqs_.erase(it);
    stats_.snapshots_released.fetch_add(1);
  }
  // Deleting outside state_mu_: dropping the pinned table refs can close
  // (and unlink-finalize) files, which has no business under the state lock.
  delete snapshot;
}

size_t DB::NumLiveSnapshots() const {
  MutexLock slk(&state_mu_);
  return snapshot_seqs_.size();
}

SequenceNumber DB::LastSequence() {
  MutexLock lk(&write_mu_);
  return last_sequence_;
}

Status DB::Get(Slice key, std::string* value, const Snapshot* snap) {
  stats_.gets.fetch_add(1);
  ReadState local;
  if (snap == nullptr) local = SnapshotState();
  const ReadState& state = snap != nullptr ? snap->state_ : local;
  const SequenceNumber seq = snap != nullptr ? snap->seq_ : kMaxSequenceNumber;
  Status s = GetFromState(state, key, value, seq);
  if (s.ok()) stats_.get_hits.fetch_add(1);
  return s;
}

Status DB::GetFromState(const ReadState& state, Slice key, std::string* value,
                        SequenceNumber seq) {
  LookupKey lkey(key, seq);

  Status st;
  if (state.mem->Get(lkey, value, &st)) return st;

  for (const auto& table : state.tables) {
    bool found = false;
    bool deleted = false;
    Status s = table->Get(lkey.internal_key(), [&](const ParsedInternalKey& parsed, Slice v) {
      found = true;
      if (parsed.type == kTypeDeletion) {
        deleted = true;
      } else {
        value->assign(v.data(), v.size());
      }
    });
    if (s.ok() && found) return deleted ? Status::NotFound() : Status::OK();
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::NotFound();
}

std::unique_ptr<Iterator> DB::NewIterator(const Snapshot* snap) {
  ReadState local;
  if (snap == nullptr) local = SnapshotState();
  const ReadState& state = snap != nullptr ? snap->state_ : local;
  const SequenceNumber seq = snap != nullptr ? snap->seq_ : kMaxSequenceNumber;
  static const InternalKeyComparator icmp;

  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(state.mem->NewIterator());
  for (const auto& t : state.tables) children.push_back(t->NewIterator());
  auto merged = std::make_unique<MergingIterator>(&icmp, std::move(children));
  return std::make_unique<DBIter>(std::move(merged), state.mem, seq);
}

Status DB::ScanPrefix(Slice prefix, const std::function<bool(Slice, Slice)>& fn,
                      const Snapshot* snap) {
  auto it = NewIterator(snap);
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    if (!it->key().starts_with(prefix)) break;
    if (!fn(it->key(), it->value())) break;
  }
  return it->status();
}

size_t DB::NumTableFiles() const {
  MutexLock slk(&state_mu_);
  return tables_.size();
}

uint64_t DB::ApproximateMemtableBytes() const {
  MutexLock slk(&state_mu_);
  return mem_->ApproximateMemoryUsage();
}

}  // namespace gt::kv
