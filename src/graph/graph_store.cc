#include "src/graph/graph_store.h"

#include "src/common/clock.h"
#include "src/common/logging.h"

namespace gt::graph {

GraphStore::GraphStore(GraphStoreOptions opts, std::unique_ptr<kv::DB> db)
    : opts_(opts), db_(std::move(db)) {
  if (opts_.adjacency_cache_bytes > 0) {
    AdjacencyCacheOptions cache_opts;
    cache_opts.capacity_bytes = opts_.adjacency_cache_bytes;
    cache_opts.server_id = opts_.server_id;
    adj_cache_ = std::make_unique<AdjacencyCache>(cache_opts);
  }
}

Result<std::unique_ptr<GraphStore>> GraphStore::Open(const std::string& dir,
                                                     GraphStoreOptions opts) {
  auto db = kv::DB::Open(dir, opts.db);
  if (!db.ok()) return db.status();
  // The graph layers above treat this store as durable ground truth, so
  // evidence that the KV layer recovered from a crash (a torn WAL tail
  // dropped, orphaned files swept) must reach the operator log even though
  // the open itself succeeded.
  const auto& stats = (*db)->stats();
  const uint64_t torn = stats.wal_torn_tails.load();
  const uint64_t swept = stats.orphans_swept.load();
  if (torn > 0 || swept > 0) {
    GT_WARN << "graph store " << dir << " recovered from an unclean shutdown ("
            << torn << " torn WAL tail(s) dropped, " << swept
            << " orphaned file(s) swept)";
  }
  return std::unique_ptr<GraphStore>(new GraphStore(opts, std::move(*db)));
}

Status GraphStore::PutVertex(const VertexRecord& v) {
  // Overwriting a vertex with a different label leaves the old type-index
  // entry behind; type scans re-verify against the live record (the engine
  // applies the type filter after the index lookup), so stale entries are
  // harmless. DeleteVertex removes both.
  kv::WriteBatch batch;
  batch.Put(VertexKey(v.id), EncodeVertexValue(v.label, v.props));
  batch.Put(TypeIndexKey(v.label, v.id), "");
  return db_->Write(std::move(batch));
}

Status GraphStore::PutEdge(const EdgeRecord& e) {
  Status s = db_->Put(EdgeKey(e.src, e.label, e.dst), EncodeEdgeValue(e.props));
  // Invalidate after the KV write commits so a concurrent rebuild cannot
  // cache the pre-write row after we dropped it.
  if (s.ok() && adj_cache_ != nullptr) adj_cache_->InvalidateEdge(e.src, e.label);
  return s;
}

Status GraphStore::DeleteVertex(VertexId vid) {
  std::string value;
  Status s = db_->Get(VertexKey(vid), &value);
  if (!s.ok()) return s;
  LabelId label;
  PropMap props;
  if (!DecodeVertexValue(value, &label, &props)) {
    return Status::Corruption("bad vertex value");
  }
  kv::WriteBatch batch;
  batch.Delete(VertexKey(vid));
  batch.Delete(TypeIndexKey(label, vid));
  Status w = db_->Write(std::move(batch));
  // Conservative: the KV layer keeps the deleted vertex's out-edges (only
  // the record + type-index entry are removed), so cached rows for vid
  // would rebuild identically — but dropping them keeps the invariant
  // "every cached row was built after the last mutation of its src" simple
  // enough to audit.
  if (w.ok() && adj_cache_ != nullptr) adj_cache_->InvalidateVertex(vid);
  return w;
}

void GraphStore::ChargeAccess(VertexId vid, uint64_t bytes, bool warm) {
  vertex_accesses_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t injected_us =
      interceptor_ != nullptr ? interceptor_->OnVertexAccess(opts_.server_id, vid) : 0;
  if (opts_.device == nullptr) return;
  if (injected_us > 0) opts_.device->ChargeInjectedDelay(injected_us);
  opts_.device->ChargeAccess(bytes, warm);
}

Status GraphStore::GetVertex(VertexId vid, VertexRecord* out, bool warm,
                             const ReadSnapshot* snap) {
  std::string value;
  GT_RETURN_IF_ERROR(db_->Get(VertexKey(vid), &value, snap));
  ChargeAccess(vid, value.size(), warm);
  out->id = vid;
  if (!DecodeVertexValue(value, &out->label, &out->props)) {
    return Status::Corruption("bad vertex value for vid " + std::to_string(vid));
  }
  return Status::OK();
}

bool GraphStore::HasVertex(VertexId vid, const ReadSnapshot* snap) {
  std::string value;
  return db_->Get(VertexKey(vid), &value, snap).ok();
}

Result<std::shared_ptr<const AdjacencyRow>> GraphStore::BuildRow(VertexId src,
                                                                 LabelId label) {
  const uint64_t token = adj_cache_->BeginBuild(src);
  // The row is valid from this sequence on: any write to src's prefix that
  // lands after this read either shows up in the scan below or bumps the
  // shard epoch (the invalidation strictly follows the KV commit), which
  // discards the insert. Reads pinned at an earlier sequence must not be
  // served from this row — see AdjacencyRow::build_seq().
  const kv::SequenceNumber build_seq = db_->LastSequence();
  Stopwatch timer;
  AdjacencyRow::Builder builder;
  builder.SetBuildSeq(build_seq);
  Status inner = Status::OK();
  const std::string prefix = label == AdjacencyCache::kAllLabels
                                 ? EdgePrefixAllLabels(src)
                                 : EdgePrefix(src, label);
  Status s = db_->ScanPrefix(prefix, [&](kv::Slice key, kv::Slice value) {
    VertexId esrc, edst;
    LabelId elabel;
    if (!ParseEdgeKey(key.view(), &esrc, &elabel, &edst)) {
      inner = Status::Corruption("bad edge key");
      return false;
    }
    builder.Add(elabel, edst, value.view());
    builder.AddSourceBytes(key.size() + value.size());
    return true;
  });
  if (!inner.ok()) return inner;
  if (!s.ok()) return s;
  auto row = builder.Build();
  adj_cache_->Insert(src, label, row, token);
  adj_cache_->RecordBuild(timer.ElapsedMicros());
  return row;
}

// A cached row may serve a snapshot read only if it was built at or before
// the pinned sequence: residency guarantees validity on [build_seq, now],
// so an older pin could otherwise observe edges written after it.
static bool RowVisibleAt(const AdjacencyRow& row,
                         const GraphStore::ReadSnapshot* snap) {
  return snap == nullptr || row.build_seq() <= snap->sequence();
}

// Serves every edge of a cached row to `fn`, each value checked first.
static Status ServeRow(const AdjacencyRow& row, const GraphStore::LabeledEdgeFn& fn) {
  for (uint32_t i = 0; i < row.size(); ++i) {
    if (!ValidEdgeValue(row.props_at(i))) return Status::Corruption("bad cached edge value");
    if (!fn(row.label_at(i), row.dst_at(i), row.props_at(i))) break;
  }
  return Status::OK();
}

Status GraphStore::ScanEdgesUncached(VertexId src, LabelId label, const LabeledEdgeFn& fn,
                                     bool warm, const ReadSnapshot* snap) {
  uint64_t bytes = 0;
  Status inner = Status::OK();
  const std::string prefix = label == AdjacencyCache::kAllLabels ? EdgePrefixAllLabels(src)
                                                                 : EdgePrefix(src, label);
  Status s = db_->ScanPrefix(prefix, [&](kv::Slice key, kv::Slice value) {
    VertexId esrc, edst;
    LabelId elabel;
    if (!ParseEdgeKey(key.view(), &esrc, &elabel, &edst)) {
      inner = Status::Corruption("bad edge key");
      return false;
    }
    if (!ValidEdgeValue(value.view())) {
      inner = Status::Corruption("bad edge value");
      return false;
    }
    bytes += key.size() + value.size();
    return fn(elabel, edst, value.view());
  }, snap);
  ChargeAccess(src, bytes, warm);
  if (!inner.ok()) return inner;
  return s;
}

Status GraphStore::ScanEdges(VertexId src, LabelId label, const EdgeFn& fn, bool warm,
                             const ReadSnapshot* snap) {
  const LabeledEdgeFn labeled = [&fn](LabelId, VertexId dst, std::string_view value) {
    return fn(dst, value);
  };
  if (adj_cache_ == nullptr) {
    return ScanEdgesUncached(src, label, labeled, warm, snap);
  }

  // Prefer the exact (src, label) row; fall back to slicing a resident
  // all-labels row (edges are in (label, dst) order, so the slice is a
  // contiguous run and its byte share is proportional by edge count).
  // Rows built after `snap` was pinned are invisible to it (RowVisibleAt).
  auto row = adj_cache_->Lookup(src, label, /*count_miss=*/false);
  if (row != nullptr && !RowVisibleAt(*row, snap)) row = nullptr;
  bool hit = row != nullptr;
  uint64_t bytes = 0;
  if (!hit) {
    auto all = adj_cache_->Lookup(src, AdjacencyCache::kAllLabels);
    if (all != nullptr && RowVisibleAt(*all, snap)) {
      Status serve = Status::OK();
      for (uint32_t i = 0; i < all->size(); ++i) {
        if (all->label_at(i) != label) continue;
        bytes += kEdgeKeyBytes + all->props_at(i).size();
        if (!ValidEdgeValue(all->props_at(i))) {
          serve = Status::Corruption("bad cached edge value");
          break;
        }
        if (!fn(all->dst_at(i), all->props_at(i))) break;
      }
      ChargeAccess(src, bytes, /*warm=*/true);
      return serve;
    }
  }
  if (!hit) {
    // Build at the current sequence regardless of `snap` so future travels
    // get a warm row; serve this caller from it only when its pin can see
    // it (no write landed between the pin and the build — always true for
    // latest reads), else pay one direct snapshot-bounded scan.
    auto built = BuildRow(src, label);
    if (!built.ok()) {
      ChargeAccess(src, 0, warm);
      return built.status();
    }
    if (!RowVisibleAt(**built, snap)) {
      return ScanEdgesUncached(src, label, labeled, warm, snap);
    }
    row = *built;
  }
  // A fresh build charges at the caller's cold/warm rate (the bytes really
  // came off the device); a cache hit always charges warm.
  ChargeAccess(src, row->source_bytes(), hit ? true : warm);
  return ServeRow(*row, labeled);
}

Status GraphStore::ScanAllEdges(VertexId src, const LabeledEdgeFn& fn, bool warm,
                                const ReadSnapshot* snap) {
  if (adj_cache_ == nullptr) {
    return ScanEdgesUncached(src, AdjacencyCache::kAllLabels, fn, warm, snap);
  }

  auto row = adj_cache_->Lookup(src, AdjacencyCache::kAllLabels);
  if (row != nullptr && !RowVisibleAt(*row, snap)) row = nullptr;
  const bool hit = row != nullptr;
  if (!hit) {
    auto built = BuildRow(src, AdjacencyCache::kAllLabels);
    if (!built.ok()) {
      ChargeAccess(src, 0, warm);
      return built.status();
    }
    if (!RowVisibleAt(**built, snap)) {
      return ScanEdgesUncached(src, AdjacencyCache::kAllLabels, fn, warm, snap);
    }
    row = *built;
  }
  ChargeAccess(src, row->source_bytes(), hit ? true : warm);
  return ServeRow(*row, fn);
}

Status GraphStore::WarmAdjacency() {
  if (adj_cache_ == nullptr) return Status::OK();
  // One sweep of the edge namespace; keys arrive in (src, label, dst) order,
  // so each vertex's edges form one contiguous run and every all-labels row
  // is completed before the next src starts. The warm-up is an ingest /
  // benchmark-setup path: callers must not mutate edges concurrently (the
  // per-insert epoch token is taken at flush time, after the row's edges
  // were already read, so it does not protect a warm-up raced by writers
  // the way the lazy BuildRow path protects itself).
  bool have_src = false;
  VertexId cur_src = 0;
  Stopwatch row_timer;
  // One sequence for the whole sweep: the warm-up contract forbids
  // concurrent mutation, so every row is valid from the sweep's start.
  const kv::SequenceNumber sweep_seq = db_->LastSequence();
  AdjacencyRow::Builder builder;
  builder.SetBuildSeq(sweep_seq);
  auto flush = [&]() {
    if (!have_src) return;
    adj_cache_->Insert(cur_src, AdjacencyCache::kAllLabels, builder.Build(),
                       adj_cache_->BeginBuild(cur_src));
    adj_cache_->RecordBuild(row_timer.ElapsedMicros());
    builder = AdjacencyRow::Builder();
    builder.SetBuildSeq(sweep_seq);
  };
  Status s = ScanEverythingEdges([&](const EdgeRecord& e) {
    if (!have_src || e.src != cur_src) {
      flush();
      cur_src = e.src;
      have_src = true;
      row_timer.Restart();
    }
    const std::string value = EncodeEdgeValue(e.props);
    builder.Add(e.label, e.dst, value);
    builder.AddSourceBytes(kEdgeKeyBytes + value.size());
    return true;
  });
  flush();
  return s;
}

Status GraphStore::ScanAllVertices(
    const std::function<bool(const VertexRecord&)>& fn, const ReadSnapshot* snap) {
  Status inner = Status::OK();
  std::string prefix(1, kVertexNs);
  Status s = db_->ScanPrefix(prefix, [&](kv::Slice key, kv::Slice value) {
    VertexRecord rec;
    if (!ParseVertexKey(key.view(), &rec.id) ||
        !DecodeVertexValue(value.view(), &rec.label, &rec.props)) {
      inner = Status::Corruption("bad vertex record");
      return false;
    }
    return fn(rec);
  }, snap);
  if (!inner.ok()) return inner;
  return s;
}

Status GraphStore::ScanEverythingEdges(
    const std::function<bool(const EdgeRecord&)>& fn, const ReadSnapshot* snap) {
  Status inner = Status::OK();
  std::string prefix(1, kEdgeNs);
  Status s = db_->ScanPrefix(prefix, [&](kv::Slice key, kv::Slice value) {
    EdgeRecord rec;
    if (!ParseEdgeKey(key.view(), &rec.src, &rec.label, &rec.dst) ||
        !DecodeEdgeValue(value.view(), &rec.props)) {
      inner = Status::Corruption("bad edge record");
      return false;
    }
    return fn(rec);
  }, snap);
  if (!inner.ok()) return inner;
  return s;
}

Status GraphStore::ScanVerticesByType(LabelId label,
                                      const std::function<bool(VertexId)>& fn,
                                      bool warm, const ReadSnapshot* snap) {
  uint64_t bytes = 0;
  Status inner = Status::OK();
  Status s = db_->ScanPrefix(TypeIndexPrefix(label), [&](kv::Slice key, kv::Slice) {
    LabelId klabel;
    VertexId vid;
    if (!ParseTypeIndexKey(key.view(), &klabel, &vid)) {
      inner = Status::Corruption("bad type index key");
      return false;
    }
    bytes += key.size();
    return fn(vid);
  }, snap);
  // The type index is a compact sequential run: charge once per scan, at
  // the caller-tracked warm rate on re-scans (see the header contract).
  if (opts_.device != nullptr) opts_.device->ChargeAccess(bytes, warm);
  if (!inner.ok()) return inner;
  return s;
}

Status GraphStore::ScanVerticesByTypeFiltered(
    LabelId label, const std::function<bool(const VertexRecord&)>& pred,
    const std::function<bool(VertexRecord&&)>& fn, bool warm, const ReadSnapshot* snap) {
  // The index walk charges once, as in ScanVerticesByType, and yields the
  // candidates in ascending vid order (index keys are label + vid-BE).
  std::vector<VertexId> candidates;
  GT_RETURN_IF_ERROR(ScanVerticesByType(
      label,
      [&](VertexId vid) {
        candidates.push_back(vid);
        return true;
      },
      warm, snap));
  if (candidates.empty()) return Status::OK();

  // The candidate records are read here, and the ones passing `pred` go to
  // the caller whole: the engine keeps them with its root execution, so no
  // root pays a point-read of its own at task time. The read is one
  // sequential run over the record keyspace charged like the index walk —
  // a single access covering the run's bytes — which is the point of
  // reading here: sequential scan cost instead of a random point-read per
  // candidate. The run only touches shard-resident keys in
  // [first, last], and ingest assigns type runs contiguously, so the
  // candidates are locally dense even though their global vid span is
  // ~num_servers× wider than any one shard's share. Only a handful of
  // candidates is cheaper as point reads (one GetVertex each, with its
  // ordinary per-vertex charge).
  constexpr size_t kPointReadCutoff = 16;
  if (candidates.size() > kPointReadCutoff) {
    auto it = db_->NewIterator(snap);
    uint64_t bytes = 0;
    size_t next = 0;  // two-pointer into the vid-sorted candidate list
    Status inner = Status::OK();
    for (it->Seek(VertexKey(candidates.front()));
         it->Valid() && next < candidates.size(); it->Next()) {
      VertexId vid;
      if (!ParseVertexKey(it->key().view(), &vid)) break;  // left the namespace
      bytes += it->key().size() + it->value().size();
      while (next < candidates.size() && candidates[next] < vid) {
        next++;  // deleted between the index walk and this read
      }
      if (next >= candidates.size() || candidates[next] != vid) continue;
      next++;
      VertexRecord rec;
      rec.id = vid;
      if (!DecodeVertexValue(it->value().view(), &rec.label, &rec.props)) {
        inner = Status::Corruption("bad vertex value for vid " + std::to_string(vid));
        break;
      }
      if (!pred(rec)) continue;
      if (!fn(std::move(rec))) break;
    }
    if (opts_.device != nullptr) opts_.device->ChargeAccess(bytes, warm);
    GT_RETURN_IF_ERROR(inner);
    return it->status();
  }

  for (VertexId vid : candidates) {
    VertexRecord rec;
    const Status st = GetVertex(vid, &rec, warm, snap);
    if (st.IsNotFound()) continue;  // deleted between the index walk and this read
    GT_RETURN_IF_ERROR(st);
    if (!pred(rec)) continue;
    if (!fn(std::move(rec))) break;
  }
  return Status::OK();
}

}  // namespace gt::graph
