// Embedded ordered key/value store — the storage engine under each
// GraphTrek backend server (the role RocksDB plays in the paper).
//
// Architecture: a write-ahead log + arena skip-list memtable; memtables are
// flushed to immutable sorted-table files (newest first); a background
// compaction merges table files into a single run and drops shadowed
// versions and tombstones that no pinned snapshot can still see. Readers
// are lock-free against writers: they operate on a shared_ptr snapshot of
// {memtable, table list}; GetSnapshot() pins such a view together with a
// sequence-number ceiling for repeatable point-in-time reads.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/device_model.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/kv/dbformat.h"
#include "src/kv/env.h"
#include "src/kv/iterator.h"
#include "src/kv/lru_cache.h"
#include "src/kv/manifest.h"
#include "src/kv/memtable.h"
#include "src/kv/stats.h"
#include "src/kv/table.h"
#include "src/kv/wal.h"
#include "src/kv/write_batch.h"

namespace gt::kv {

struct DBOptions {
  Env* env = Env::Default();
  size_t memtable_bytes = 4 << 20;
  size_t block_size = 4096;
  size_t block_cache_bytes = 8 << 20;  // 0 disables the block cache
  int bloom_bits_per_key = 10;
  int l0_compaction_trigger = 4;  // table-file count that triggers compaction

  // Durability contract. Structural durability is unconditional: table files
  // are fsync'd before install, installs are recorded in a fsync'd MANIFEST,
  // and the parent directory is fsync'd after every create/rename — so a
  // crash at any instant can never resurrect deleted keys, load a
  // half-written table, or leave the store unopenable. sync_wal controls
  // only the durability of *individual writes*:
  //   sync_wal = true   every acked Put/Delete/Write is fdatasync'd in the
  //                     WAL before it returns; power loss loses nothing
  //                     that was acknowledged.
  //   sync_wal = false  (default) writes since the last flush ride the OS
  //                     page cache; power loss rolls the store back to a
  //                     consistent earlier point (at worst the last table
  //                     install), never to a torn or mixed state.
  // The per-call-site fsync matrix lives in DESIGN.md ("Durability & crash
  // recovery").
  bool sync_wal = false;
  bool background_compaction = true;
  DeviceModel* device = nullptr;  // charged per cold block read (optional)

  // `db` label this instance reports under in the process metrics registry
  // (gt_kv_* families). Empty: the basename of the DB directory.
  std::string metrics_label;
};

class DB {
 public:
  // Opens (creating if missing) a DB in `dir`, recovering table files and
  // replaying the WAL.
  static Result<std::unique_ptr<DB>> Open(const std::string& dir, DBOptions opts = {});

  ~DB();
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(Slice key, Slice value);
  Status Delete(Slice key);
  Status Write(WriteBatch batch);

  // A pinned, immutable point-in-time view of the store: the sequence
  // number at pin time plus the {memtable, table list} version that held
  // it. Reads through a snapshot see exactly the versions visible at that
  // sequence — writes, flushes and compactions that land afterwards are
  // invisible. Obtained from GetSnapshot(); must be handed back to
  // ReleaseSnapshot() (a live snapshot also pins compaction garbage
  // collection, see DoCompaction).
  class Snapshot;

  // Pins the current view. Never fails; the caller owns the registration
  // and must release it exactly once.
  const Snapshot* GetSnapshot();
  void ReleaseSnapshot(const Snapshot* snapshot);

  // Sequence number of the most recent write — the visibility horizon a
  // snapshot pinned right now would get.
  SequenceNumber LastSequence();

  // Reads the newest live version; NotFound if absent or deleted. A
  // non-null `snap` bounds the read to the snapshot's sequence and reads
  // the memtable/table stack the snapshot pinned, so it takes no lock and
  // copies no version-set references.
  Status Get(Slice key, std::string* value, const Snapshot* snap = nullptr);

  // Iterator over live user keys in ascending order. key() is the user key.
  // A non-null `snap` yields the keys live at the snapshot's sequence.
  std::unique_ptr<Iterator> NewIterator(const Snapshot* snap = nullptr);

  // Calls fn(key, value) for every live key starting with `prefix`, in
  // order; stops early if fn returns false.
  Status ScanPrefix(Slice prefix, const std::function<bool(Slice, Slice)>& fn,
                    const Snapshot* snap = nullptr);

  // Forces the memtable to a table file (no-op when empty).
  Status Flush();

  // Merges all table files into one run, dropping shadowed versions and
  // tombstones no live snapshot can see. Blocks until done.
  Status CompactAll();

  // Blocks until any scheduled background compaction has finished.
  void WaitForCompaction();

  const KvStats& stats() const { return stats_; }
  KvStats& mutable_stats() { return stats_; }
  size_t NumTableFiles() const;
  uint64_t ApproximateMemtableBytes() const;
  size_t NumLiveSnapshots() const;

 private:
  struct ReadState {
    std::shared_ptr<MemTable> mem;
    std::vector<std::shared_ptr<Table>> tables;  // newest first
  };

  DB(std::string dir, DBOptions opts);

  Status Recover() GT_EXCLUDES(write_mu_, state_mu_);
  Status FlushLocked() GT_REQUIRES(write_mu_);
  Status DoCompaction() GT_EXCLUDES(compaction_run_mu_, write_mu_, state_mu_);
  // Deletes crash leftovers at open: *.tmp files, table files the manifest
  // does not reference (e.g. compaction inputs whose deletion was cut short
  // — reloading those is what used to resurrect tombstoned keys), and stale
  // MANIFEST-* from interrupted rotations.
  void SweepOrphans(const std::vector<uint64_t>& live_tables);
  // Removes `path` best-effort; failures are logged and counted in stats
  // (recovery re-sweeps them) instead of being silently dropped. Returns
  // true when the file is gone.
  bool RemoveFileLogged(const std::string& path, const char* what);
  std::string TablePath(uint64_t id) const;
  std::string WalPath() const;
  ReadState SnapshotState() const GT_EXCLUDES(state_mu_);
  Status GetFromState(const ReadState& state, Slice key, std::string* value,
                      SequenceNumber seq);
  TableReadOptions MakeTableReadOptions();

  const std::string dir_;
  const DBOptions opts_;
  std::unique_ptr<LruCache<Block>> block_cache_;
  KvStats stats_;
  metrics::CollectorId metrics_collector_ = 0;  // registry hookup (ctor/dtor)

  // Lock order (outermost first): compaction_run_mu_ -> write_mu_ -> state_mu_.
  // Manifest::mu_ is a leaf below all three (LogEdit is called with write_mu_
  // held on the flush path and with only compaction_run_mu_ held on the
  // compaction path, and never calls back into the DB).

  // Set once during Recover (before any other thread exists), then
  // effectively const; Manifest serializes its own writers internally.
  std::unique_ptr<Manifest> manifest_;

  // Serializes writers (Put/Delete/Write/Flush).
  Mutex write_mu_;
  std::unique_ptr<WalWriter> wal_ GT_GUARDED_BY(write_mu_);
  SequenceNumber last_sequence_ GT_GUARDED_BY(write_mu_) = 0;
  uint64_t next_file_id_ GT_GUARDED_BY(write_mu_) = 1;

  // Guards read-state swaps; readers copy the shared_ptrs under this lock.
  mutable Mutex state_mu_;
  std::shared_ptr<MemTable> mem_ GT_GUARDED_BY(state_mu_);
  std::vector<std::shared_ptr<Table>> tables_ GT_GUARDED_BY(state_mu_);  // newest first
  // Sequence numbers of live pinned snapshots (multiset: the same seq can
  // be pinned by several travels). The smallest entry bounds what
  // compaction may garbage-collect.
  std::multiset<SequenceNumber> snapshot_seqs_ GT_GUARDED_BY(state_mu_);

  std::unique_ptr<ThreadPool> compaction_pool_;
  bool compaction_scheduled_ GT_GUARDED_BY(state_mu_) = false;
  Mutex compaction_run_mu_;  // at most one compaction at a time
};

// Immutable once constructed: the pinned {memtable, table list} version
// keeps every file a reader may need alive (tables hold their fd open, so
// even inputs a later compaction unlinks stay readable), and the sequence
// bound hides every version written after the pin. Thread-safe to read
// from concurrently; destroyed only via DB::ReleaseSnapshot.
class DB::Snapshot {
 public:
  SequenceNumber sequence() const { return seq_; }

 private:
  friend class DB;
  Snapshot(SequenceNumber seq, ReadState state)
      : seq_(seq), state_(std::move(state)) {}

  const SequenceNumber seq_;
  const ReadState state_;
};

}  // namespace gt::kv
