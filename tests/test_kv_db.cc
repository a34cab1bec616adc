// Tests for the sorted-table files and the DB facade: persistence, WAL
// recovery, compaction, iteration and prefix scans.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/rng.h"
#include "src/kv/db.h"
#include "src/kv/table.h"
#include "tests/test_util.h"

namespace gt::kv {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                 ValueType t = kTypeValue) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, t);
  return k;
}

// --- Table -------------------------------------------------------------------

class TableTest : public ::testing::Test {
 protected:
  gt::testing::ScopedTempDir dir_;

  std::shared_ptr<Table> BuildTable(const std::map<std::string, std::string>& entries,
                                    size_t block_size = 256) {
    const std::string path = dir_.sub("test.sst");
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(Env::Default()->NewWritableFile(path, &file).ok());
    TableBuilder builder(std::move(file), block_size);
    for (const auto& [k, v] : entries) {
      EXPECT_TRUE(builder.Add(IKey(k), v).ok());
    }
    EXPECT_TRUE(builder.Finish().ok());
    auto table = Table::Open(Env::Default(), path, 1, TableReadOptions{});
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return *table;
  }
};

TEST_F(TableTest, PointLookupsAcrossManyBlocks) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%05d", i);
    entries[buf] = "value-" + std::to_string(i);
  }
  auto table = BuildTable(entries);
  EXPECT_EQ(table->num_entries(), 500u);
  for (const auto& [k, v] : entries) {
    std::string found_value;
    bool found = false;
    Status s = table->Get(IKey(k, kMaxSequenceNumber),
                          [&](const ParsedInternalKey&, Slice val) {
                            found = true;
                            found_value = val.ToString();
                          });
    ASSERT_TRUE(s.ok()) << k << ": " << s.ToString();
    ASSERT_TRUE(found) << k;
    EXPECT_EQ(found_value, v);
  }
}

TEST_F(TableTest, MissingKeysReturnNotFound) {
  auto table = BuildTable({{"b", "1"}, {"d", "2"}});
  for (const std::string k : {"a", "c", "e"}) {
    Status s = table->Get(IKey(k, kMaxSequenceNumber),
                          [&](const ParsedInternalKey&, Slice) { FAIL(); });
    EXPECT_TRUE(s.IsNotFound()) << k;
  }
}

TEST_F(TableTest, IteratorScansInOrder) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; i++) {
    entries["scan" + std::to_string(1000 + i)] = std::to_string(i);
  }
  auto table = BuildTable(entries);
  auto it = table->NewIterator();
  auto expected = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), expected->first);
    EXPECT_EQ(it->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, IteratorSeekLandsMidTable) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i * 2);
    entries[buf] = "v";
  }
  auto table = BuildTable(entries);
  auto it = table->NewIterator();
  it->Seek(IKey("k101", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "k102");
}

TEST_F(TableTest, MetaBlockRecordsBounds) {
  auto table = BuildTable({{"aaa", "1"}, {"mmm", "2"}, {"zzz", "3"}});
  EXPECT_EQ(ExtractUserKey(Slice(table->smallest())).ToString(), "aaa");
  EXPECT_EQ(ExtractUserKey(Slice(table->largest())).ToString(), "zzz");
}

TEST_F(TableTest, BlockCacheServesRepeatedReads) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; i++) entries["key" + std::to_string(i)] = "v";

  const std::string path = dir_.sub("cached.sst");
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &file).ok());
  TableBuilder builder(std::move(file), 256);
  for (const auto& [k, v] : entries) ASSERT_TRUE(builder.Add(IKey(k), v).ok());
  ASSERT_TRUE(builder.Finish().ok());

  LruCache<Block> cache(1 << 20);
  KvStats stats;
  TableReadOptions opts;
  opts.block_cache = &cache;
  opts.stats = &stats;
  auto table = Table::Open(Env::Default(), path, 7, opts);
  ASSERT_TRUE(table.ok());

  auto get = [&](const std::string& k) {
    return (*table)->Get(IKey(k, kMaxSequenceNumber), [](const ParsedInternalKey&, Slice) {});
  };
  ASSERT_TRUE(get("key0").ok());
  const uint64_t cold_reads = stats.block_reads.load();
  ASSERT_TRUE(get("key0").ok());
  EXPECT_EQ(stats.block_reads.load(), cold_reads);  // warm: no new file read
  EXPECT_GT(stats.block_cache_hits.load(), 0u);
}

TEST_F(TableTest, CorruptFooterRejected) {
  const std::string path = dir_.sub("bad.sst");
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("this is not a table file, far too short maybe not").ok());
  ASSERT_TRUE(file->Append(std::string(64, 'x')).ok());
  ASSERT_TRUE(file->Close().ok());
  auto table = Table::Open(Env::Default(), path, 1, TableReadOptions{});
  EXPECT_FALSE(table.ok());
}

// --- DB ------------------------------------------------------------------------

class DBTest : public ::testing::Test {
 protected:
  gt::testing::ScopedTempDir dir_;

  std::unique_ptr<DB> OpenDB(DBOptions opts = {}) {
    auto db = DB::Open(dir_.sub("db"), opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }
};

TEST_F(DBTest, PutGetDelete) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("k1", "v1").ok());
  std::string value;
  ASSERT_TRUE(db->Get("k1", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db->Delete("k1").ok());
  EXPECT_TRUE(db->Get("k1", &value).IsNotFound());
}

TEST_F(DBTest, OverwriteKeepsNewest) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("k", "v1").ok());
  ASSERT_TRUE(db->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(DBTest, GetAfterFlushReadsFromTable) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("persisted", "on-disk").ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GE(db->NumTableFiles(), 1u);
  std::string value;
  ASSERT_TRUE(db->Get("persisted", &value).ok());
  EXPECT_EQ(value, "on-disk");
}

TEST_F(DBTest, DeleteShadowsFlushedValue) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(db->Get("k", &value).IsNotFound());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(db->Get("k", &value).IsNotFound());
}

TEST_F(DBTest, ReopenRecoversFlushedData) {
  {
    auto db = OpenDB();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
    }
  }  // destructor flushes
  auto db = OpenDB();
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST_F(DBTest, WalReplayRecoversUnflushedWrites) {
  // Write without flushing, then simulate a crash by leaking the DB's file
  // state: reopen a second handle on the same dir after dropping the first
  // without a clean flush. We emulate the crash by copying the WAL aside,
  // letting the destructor flush, then restoring the WAL into a fresh dir.
  const std::string dbdir = dir_.sub("waldb");
  {
    auto db = DB::Open(dbdir, DBOptions{});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("wal-key", "wal-value").ok());
    // Simulate crash: copy WAL before the destructor truncates it.
    std::string wal;
    {
      std::unique_ptr<SequentialFile> f;
      ASSERT_TRUE(Env::Default()->NewSequentialFile(dbdir + "/wal.log", &f).ok());
      char buf[4096];
      Slice chunk;
      while (f->Read(sizeof(buf), &chunk, buf).ok() && chunk.size() > 0) {
        wal.append(chunk.data(), chunk.size());
      }
    }
    ASSERT_GT(wal.size(), 0u);
    // Fresh directory with only the WAL present = post-crash state.
    const std::string crashdir = dir_.sub("crashdb");
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(crashdir).ok());
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(Env::Default()->NewWritableFile(crashdir + "/wal.log", &out).ok());
    ASSERT_TRUE(out->Append(wal).ok());
    ASSERT_TRUE(out->Close().ok());

    auto recovered = DB::Open(crashdir, DBOptions{});
    ASSERT_TRUE(recovered.ok());
    std::string value;
    ASSERT_TRUE((*recovered)->Get("wal-key", &value).ok());
    EXPECT_EQ(value, "wal-value");
  }
}

TEST_F(DBTest, MemtableFlushTriggersAutomatically) {
  DBOptions opts;
  opts.memtable_bytes = 16 * 1024;
  auto db = OpenDB(opts);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), std::string(64, 'v')).ok());
  }
  EXPECT_GE(db->stats().flushes.load(), 1u);
  std::string value;
  ASSERT_TRUE(db->Get("key0", &value).ok());
  ASSERT_TRUE(db->Get("key1999", &value).ok());
}

TEST_F(DBTest, CompactionMergesTablesAndDropsTombstones) {
  DBOptions opts;
  opts.background_compaction = false;  // drive compaction explicitly
  auto db = OpenDB(opts);
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), "round" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(db->Delete("key0").ok());
  EXPECT_GE(db->NumTableFiles(), 4u);
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->NumTableFiles(), 1u);

  std::string value;
  EXPECT_TRUE(db->Get("key0", &value).IsNotFound());
  ASSERT_TRUE(db->Get("key1", &value).ok());
  EXPECT_EQ(value, "round3");
}

TEST_F(DBTest, BackgroundCompactionKeepsDataReadable) {
  DBOptions opts;
  opts.memtable_bytes = 8 * 1024;
  opts.l0_compaction_trigger = 2;
  auto db = OpenDB(opts);
  Rng rng(5);
  std::map<std::string, std::string> truth;
  for (int i = 0; i < 3000; i++) {
    const std::string k = "key" + std::to_string(rng.Uniform(500));
    const std::string v = "value" + std::to_string(i);
    truth[k] = v;
    ASSERT_TRUE(db->Put(k, v).ok());
  }
  db->WaitForCompaction();
  EXPECT_GE(db->stats().compactions.load(), 1u);
  std::string value;
  for (const auto& [k, v] : truth) {
    ASSERT_TRUE(db->Get(k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

TEST_F(DBTest, IteratorSeesLiveViewAcrossMemtableAndTables) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("c", "3").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("b", "2").ok());      // memtable only
  ASSERT_TRUE(db->Put("c", "3-new").ok());  // shadows table version
  ASSERT_TRUE(db->Delete("a").ok());        // tombstone over table version

  auto it = db->NewIterator();
  std::vector<std::pair<std::string, std::string>> got;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    got.emplace_back(it->key().ToString(), it->value().ToString());
  }
  EXPECT_EQ(got, (std::vector<std::pair<std::string, std::string>>{{"b", "2"},
                                                                   {"c", "3-new"}}));
}

TEST_F(DBTest, IteratorSeekSkipsDeletedRun) {
  auto db = OpenDB();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Put("k" + std::to_string(100 + i), "v").ok());
  }
  for (int i = 5; i < 15; i++) {
    ASSERT_TRUE(db->Delete("k" + std::to_string(100 + i)).ok());
  }
  auto it = db->NewIterator();
  it->Seek("k105");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k115");
}

TEST_F(DBTest, ScanPrefixVisitsExactlyMatchingKeys) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("edge/1/a", "1").ok());
  ASSERT_TRUE(db->Put("edge/1/b", "2").ok());
  ASSERT_TRUE(db->Put("edge/2/a", "3").ok());
  ASSERT_TRUE(db->Put("vertex/1", "4").ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(db->ScanPrefix("edge/1/", [&](Slice k, Slice) {
                  keys.push_back(k.ToString());
                  return true;
                })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"edge/1/a", "edge/1/b"}));
}

TEST_F(DBTest, ScanPrefixEarlyStop) {
  auto db = OpenDB();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put("p/" + std::to_string(i), "v").ok());
  }
  int count = 0;
  ASSERT_TRUE(db->ScanPrefix("p/", [&](Slice, Slice) { return ++count < 3; }).ok());
  EXPECT_EQ(count, 3);
}

TEST_F(DBTest, WriteBatchIsAtomicallyVisible) {
  auto db = OpenDB();
  WriteBatch batch;
  for (int i = 0; i < 100; i++) batch.Put("batch" + std::to_string(i), "v");
  ASSERT_TRUE(db->Write(std::move(batch)).ok());
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Get("batch" + std::to_string(i), &value).ok());
  }
}

TEST_F(DBTest, StatsCountOperations) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("a", "1").ok());
  std::string value;
  ASSERT_TRUE(db->Get("a", &value).ok());
  db->Get("missing", &value).ok();
  EXPECT_EQ(db->stats().puts.load(), 1u);
  EXPECT_EQ(db->stats().gets.load(), 2u);
  EXPECT_EQ(db->stats().get_hits.load(), 1u);
}

TEST_F(DBTest, ConcurrentReadersDuringWrites) {
  DBOptions opts;
  opts.memtable_bytes = 32 * 1024;
  auto db = OpenDB(opts);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put("stable" + std::to_string(i), "v").ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::thread reader([&] {
    std::string value;
    while (!stop.load()) {
      for (int i = 0; i < 200; i += 17) {
        if (!db->Get("stable" + std::to_string(i), &value).ok()) read_errors++;
      }
    }
  });
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put("churn" + std::to_string(i), std::string(128, 'x')).ok());
  }
  stop = true;
  reader.join();
  EXPECT_EQ(read_errors.load(), 0);
}

TEST_F(DBTest, ReopenAfterCompactionSeesMergedState) {
  {
    DBOptions opts;
    opts.background_compaction = false;
    auto db = OpenDB(opts);
    for (int round = 0; round < 3; round++) {
      for (int i = 0; i < 30; i++) {
        ASSERT_TRUE(db->Put("k" + std::to_string(i), "r" + std::to_string(round)).ok());
      }
      ASSERT_TRUE(db->Flush().ok());
    }
    ASSERT_TRUE(db->Delete("k0").ok());
    ASSERT_TRUE(db->CompactAll().ok());
  }
  auto db = OpenDB();
  EXPECT_LE(db->NumTableFiles(), 2u);  // merged run (+ final destructor flush)
  std::string value;
  EXPECT_TRUE(db->Get("k0", &value).IsNotFound());
  ASSERT_TRUE(db->Get("k1", &value).ok());
  EXPECT_EQ(value, "r2");
}

TEST_F(DBTest, WorksWithBlockCacheDisabled) {
  DBOptions opts;
  opts.block_cache_bytes = 0;  // every read goes to the file
  auto db = OpenDB(opts);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  for (int i = 0; i < 200; i += 7) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  EXPECT_EQ(db->stats().block_cache_hits.load(), 0u);
  EXPECT_GT(db->stats().block_reads.load(), 0u);
}

TEST_F(DBTest, BloomDisabledStillCorrect) {
  DBOptions opts;
  opts.bloom_bits_per_key = 0;
  auto db = OpenDB(opts);
  ASSERT_TRUE(db->Put("present", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  ASSERT_TRUE(db->Get("present", &value).ok());
  EXPECT_TRUE(db->Get("absent", &value).IsNotFound());
}

TEST_F(DBTest, IteratorAcrossReopenAndOverwrites) {
  {
    auto db = OpenDB();
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("b", "2-new").ok());
    ASSERT_TRUE(db->Put("c", "3").ok());
  }
  auto db = OpenDB();
  auto it = db->NewIterator();
  std::vector<std::pair<std::string, std::string>> got;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    got.emplace_back(it->key().ToString(), it->value().ToString());
  }
  EXPECT_EQ(got, (std::vector<std::pair<std::string, std::string>>{
                     {"a", "1"}, {"b", "2-new"}, {"c", "3"}}));
}

TEST_F(DBTest, SequenceNumbersSurviveReopen) {
  // A put after reopen must shadow pre-reopen versions: the recovered
  // sequence counter has to resume above everything on disk.
  {
    auto db = OpenDB();
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(db->Put("k", "gen1-" + std::to_string(i)).ok());
    }
  }
  {
    auto db = OpenDB();
    ASSERT_TRUE(db->Put("k", "gen2").ok());
  }
  auto db = OpenDB();
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "gen2");
}

TEST_F(DBTest, EmptyDatabaseIteratesNothing) {
  auto db = OpenDB();
  auto it = db->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("anything");
  EXPECT_FALSE(it->Valid());
  std::string value;
  EXPECT_TRUE(db->Get("missing", &value).IsNotFound());
}

// --- Snapshots ----------------------------------------------------------------

TEST_F(DBTest, SnapshotHidesWritesAfterPin) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("k", "v1").ok());
  ASSERT_TRUE(db->Put("gone", "soon").ok());
  const DB::Snapshot* snap = db->GetSnapshot();
  EXPECT_EQ(db->NumLiveSnapshots(), 1u);

  ASSERT_TRUE(db->Put("k", "v2").ok());
  ASSERT_TRUE(db->Delete("gone").ok());
  ASSERT_TRUE(db->Put("new-key", "x").ok());

  std::string value;
  ASSERT_TRUE(db->Get("k", &value, snap).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db->Get("gone", &value, snap).ok());
  EXPECT_EQ(value, "soon");
  EXPECT_TRUE(db->Get("new-key", &value, snap).IsNotFound());
  // Live reads are unaffected.
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(db->Get("gone", &value).IsNotFound());

  // Iterator and prefix scan through the snapshot see the pinned view.
  auto it = db->NewIterator(snap);
  std::map<std::string, std::string> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen[it->key().ToString()] = it->value().ToString();
  }
  EXPECT_EQ(seen, (std::map<std::string, std::string>{{"gone", "soon"}, {"k", "v1"}}));

  db->ReleaseSnapshot(snap);
  EXPECT_EQ(db->NumLiveSnapshots(), 0u);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndCompaction) {
  auto db = OpenDB();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "old" + std::to_string(i)).ok());
  }
  // Flush so the pinned generation lands in its own table: compaction then
  // has real input overlap to garbage-collect (a single table is a no-op).
  ASSERT_TRUE(db->Flush().ok());
  const DB::Snapshot* snap = db->GetSnapshot();

  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "new" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db->Delete("key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  // Compaction must keep the versions the pinned snapshot can still see.
  EXPECT_GT(db->stats().snapshot_preserved_versions.load(), 0u);

  std::string value;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &value, snap).ok()) << i;
    EXPECT_EQ(value, "old" + std::to_string(i)) << i;
  }
  // Live view: first half deleted, second half overwritten.
  for (int i = 0; i < 25; i++) {
    EXPECT_TRUE(db->Get("key" + std::to_string(i), &value).IsNotFound()) << i;
  }
  for (int i = 25; i < 50; i++) {
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "new" + std::to_string(i)) << i;
  }
  db->ReleaseSnapshot(snap);
}

TEST_F(DBTest, ReleaseSnapshotUnblocksGarbageCollection) {
  auto db = OpenDB();
  ASSERT_TRUE(db->Put("k", "old").ok());
  ASSERT_TRUE(db->Flush().ok());  // two tables so CompactAll does real work
  const DB::Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "new").ok());
  ASSERT_TRUE(db->Delete("dead").ok());
  ASSERT_TRUE(db->Flush().ok());

  db->ReleaseSnapshot(snap);
  EXPECT_EQ(db->NumLiveSnapshots(), 0u);
  const uint64_t preserved_before = db->stats().snapshot_preserved_versions.load();
  ASSERT_TRUE(db->CompactAll().ok());
  // No live snapshot: shadowed versions and tombstones are dropped, nothing
  // is preserved on a snapshot's behalf.
  EXPECT_EQ(db->stats().snapshot_preserved_versions.load(), preserved_before);
  std::string value;
  ASSERT_TRUE(db->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_F(DBTest, ConcurrentSnapshotsPinDistinctVersions) {
  auto db = OpenDB();
  std::vector<const DB::Snapshot*> snaps;
  for (int gen = 0; gen < 4; gen++) {
    ASSERT_TRUE(db->Put("k", "gen" + std::to_string(gen)).ok());
    snaps.push_back(db->GetSnapshot());
    ASSERT_TRUE(db->Flush().ok());  // one table per generation
  }
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  for (int gen = 0; gen < 4; gen++) {
    ASSERT_TRUE(db->Get("k", &value, snaps[gen]).ok()) << gen;
    EXPECT_EQ(value, "gen" + std::to_string(gen)) << gen;
  }
  for (auto* s : snaps) db->ReleaseSnapshot(s);
  EXPECT_EQ(db->NumLiveSnapshots(), 0u);
}

class DBValueSizeParam : public ::testing::TestWithParam<size_t> {};

TEST_P(DBValueSizeParam, RoundTripsValuesOfVariousSizes) {
  gt::testing::ScopedTempDir dir;
  auto db = DB::Open(dir.sub("db"), DBOptions{});
  ASSERT_TRUE(db.ok());
  const std::string value(GetParam(), 'x');
  ASSERT_TRUE((*db)->Put("sized", value).ok());
  ASSERT_TRUE((*db)->Flush().ok());
  std::string got;
  ASSERT_TRUE((*db)->Get("sized", &got).ok());
  EXPECT_EQ(got.size(), GetParam());
  EXPECT_EQ(got, value);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DBValueSizeParam,
                         ::testing::Values(0, 1, 100, 4095, 4096, 4097, 65536, 1 << 20));

}  // namespace
}  // namespace gt::kv
