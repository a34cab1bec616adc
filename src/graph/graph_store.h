// GraphStore: the per-backend-server property-graph storage daemon. Wraps
// one embedded KV database (src/kv) with the key layout from encoding.h.
//
// Every *logical vertex access* (point lookup of a vertex record, or an edge
// scan rooted at a vertex) charges the simulated device model once — the
// access granularity the paper's evaluation instruments ("real I/O visits").
// An optional AccessInterceptor lets the straggler injector add external
// delays to individual vertex accesses (Fig. 11 methodology).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string_view>

#include "src/common/device_model.h"
#include "src/common/status.h"
#include "src/graph/adjacency_cache.h"
#include "src/graph/encoding.h"
#include "src/kv/db.h"

namespace gt::graph {

// Called before the store performs a vertex access. Returns an external
// delay in microseconds (0 for none) that the store charges to its device
// model as injected time, where it is paid like any other charge; a store
// without a device model drops it.
class AccessInterceptor {
 public:
  virtual ~AccessInterceptor() = default;
  virtual uint64_t OnVertexAccess(uint32_t server_id, VertexId vid) = 0;
};

struct GraphStoreOptions {
  kv::DBOptions db;
  DeviceModel* device = nullptr;  // charged once per logical vertex access
  uint32_t server_id = 0;

  // Byte budget for the CSR adjacency cache (0 disables it entirely; every
  // edge scan then goes straight to the KV iterator stack).
  size_t adjacency_cache_bytes = 16 << 20;
};

class GraphStore {
 public:
  // Pinned point-in-time view of this store (see kv::DB::Snapshot). Reads
  // that take a non-null snapshot see exactly the graph at its sequence,
  // regardless of racing mutations, flushes or compactions.
  using ReadSnapshot = kv::DB::Snapshot;

  static Result<std::unique_ptr<GraphStore>> Open(const std::string& dir,
                                                  GraphStoreOptions opts);

  // Pins / releases a point-in-time view. Every pin must be released
  // exactly once; a live snapshot also pins compaction GC in the KV layer.
  const ReadSnapshot* GetSnapshot() { return db_->GetSnapshot(); }
  void ReleaseSnapshot(const ReadSnapshot* snap) { db_->ReleaseSnapshot(snap); }

  // --- writes (ingest path) ---
  Status PutVertex(const VertexRecord& v);
  Status PutEdge(const EdgeRecord& e);
  Status DeleteVertex(VertexId vid);  // removes record + type index entry
  Status Flush() { return db_->Flush(); }
  Status Compact() { return db_->CompactAll(); }

  // --- reads (traversal path); each charges one device access. `warm`
  // marks a re-read within the same traversal (block-cache hit). A non-null
  // `snap` bounds the read to that pinned view. ---

  // Reads `vid`'s record into `*out`; NotFound (and no charge) when the
  // vertex is absent or deleted. The decode reuses `out`'s property
  // storage, so a caller that keeps one record across reads stops
  // allocating for it. There is no batched form: a pinned read takes no
  // lock and copies no table references (kv::DB::Get), so a batch would
  // have nothing to share.
  Status GetVertex(VertexId vid, VertexRecord* out, bool warm = false,
                   const ReadSnapshot* snap = nullptr);

  // Existence probe (vertex record present and not deleted). Charges no
  // device access: it is the ingest path's referential-integrity check, not
  // a traversal read.
  bool HasVertex(VertexId vid, const ReadSnapshot* snap = nullptr);

  // Edge visitors get each edge's encoded value (DecodeEdgeValue), valid
  // for the call only; returning false stops the scan. Every value is
  // checked with ValidEdgeValue before it is passed on, so a corrupt one
  // ends the scan with Corruption on every path (uncached, fresh build,
  // cache hit).
  using EdgeFn = std::function<bool(VertexId dst, std::string_view value)>;
  using LabeledEdgeFn = std::function<bool(LabelId, VertexId dst, std::string_view value)>;

  // Iterates out-edges of `src` with type `label` in dst order. Served from
  // the adjacency cache when resident ((src,label) row, or a (src,all) row
  // filtered down); a miss scans the KV prefix once, building and caching
  // the row as a side effect. Cache hits charge the device the row's
  // original byte count at the warm (cache-hit) rate regardless of `warm` —
  // the row IS the cached copy — while misses charge cold/warm exactly as
  // before.
  Status ScanEdges(VertexId src, LabelId label, const EdgeFn& fn, bool warm = false,
                   const ReadSnapshot* snap = nullptr);

  // Iterates all out-edges of `src` grouped by type. Same caching and
  // charging policy as ScanEdges, keyed on the (src, all-labels) row.
  Status ScanAllEdges(VertexId src, const LabeledEdgeFn& fn, bool warm = false,
                      const ReadSnapshot* snap = nullptr);

  // Eagerly builds an all-labels adjacency row for every vertex on this
  // shard from one bulk edge sweep (ingest/benchmark warm-up path; charges
  // no device accesses). Rows beyond the byte budget LRU out as usual.
  Status WarmAdjacency();

  // Iterates every vertex record on this shard (maintenance/export path;
  // does not charge the device model).
  Status ScanAllVertices(const std::function<bool(const VertexRecord&)>& fn,
                         const ReadSnapshot* snap = nullptr);

  // Iterates every edge on this shard (maintenance/export path).
  Status ScanEverythingEdges(const std::function<bool(const EdgeRecord&)>& fn,
                             const ReadSnapshot* snap = nullptr);

  // Iterates ids of all vertices with the given label (type index scan).
  // Charged as one access per returned vertex would be pessimistic; the
  // index is compact and sequential, so it charges once per scan, at the
  // cold rate the first time a traversal touches the index and at the warm
  // (cache-hit) rate on re-scans — the same warm semantics every other
  // traversal read has. The caller (the engine) tracks which travels have
  // already scanned which type and passes `warm` accordingly; the scan is
  // deliberately not routed through ChargeAccess because it is not rooted
  // at any single vertex (no interceptor hook, no vertex_accesses_ bump).
  Status ScanVerticesByType(LabelId label, const std::function<bool(VertexId)>& fn,
                            bool warm = false, const ReadSnapshot* snap = nullptr);

  // Type-index scan that yields records: the engine's one scan start. The
  // index yields candidate ids; each candidate's record is read and handed
  // to `pred` (the start filters; always true for a start with none), and
  // every passing record is moved into `fn`, in ascending vid order, so the
  // caller starts from the records themselves and need not read them
  // again. Charges one scan access for the index walk (like
  // ScanVerticesByType); the record reads are one sequential run over the
  // record keyspace when there are more than 16 candidates (a single access
  // covering the run's bytes, where reading the roots one by one would pay
  // a random point-read each), or one GetVertex per candidate otherwise.
  // Like the index walk, the sequential run is not vertex-rooted, so it
  // bypasses the per-vertex interceptor.
  Status ScanVerticesByTypeFiltered(
      LabelId label, const std::function<bool(const VertexRecord&)>& pred,
      const std::function<bool(VertexRecord&&)>& fn, bool warm = false,
      const ReadSnapshot* snap = nullptr);

  void SetInterceptor(AccessInterceptor* interceptor) { interceptor_ = interceptor; }

  uint64_t vertex_accesses() const { return vertex_accesses_.load(std::memory_order_relaxed); }
  void ResetAccessCount() { vertex_accesses_ = 0; }

  kv::DB* db() { return db_.get(); }
  uint32_t server_id() const { return opts_.server_id; }
  // Null when the store charges no device model.
  DeviceModel* device() const { return opts_.device; }

  // Null when adjacency_cache_bytes == 0.
  AdjacencyCache* adjacency_cache() { return adj_cache_.get(); }

 private:
  GraphStore(GraphStoreOptions opts, std::unique_ptr<kv::DB> db);

  // Charges one logical access of `bytes` bytes rooted at `vid`.
  void ChargeAccess(VertexId vid, uint64_t bytes, bool warm);

  // Cache-free KV prefix scan of the (src, label) edges (label ==
  // kAllLabels: every label): the adjacency_cache_bytes == 0 path, and the
  // fallback when a snapshot read cannot be served by any cached row.
  Status ScanEdgesUncached(VertexId src, LabelId label, const LabeledEdgeFn& fn, bool warm,
                           const ReadSnapshot* snap);

  // Scans the (src, label) KV prefix (label == kAllLabels: every label),
  // builds the CSR row, and inserts it into the cache. Never serves the
  // caller directly — callers re-serve from the returned row.
  Result<std::shared_ptr<const AdjacencyRow>> BuildRow(VertexId src, LabelId label);

  GraphStoreOptions opts_;
  std::unique_ptr<kv::DB> db_;
  std::unique_ptr<AdjacencyCache> adj_cache_;
  AccessInterceptor* interceptor_ = nullptr;
  std::atomic<uint64_t> vertex_accesses_{0};
};

}  // namespace gt::graph
