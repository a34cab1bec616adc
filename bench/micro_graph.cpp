// Micro-benchmarks (google-benchmark) for the graph storage layer: vertex
// writes/reads, per-type edge scans, type-index scans and text export.
#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/graph_store.h"
#include "src/graph/text_io.h"
#include "src/gen/rmat.h"
#include "tests/test_util.h"

namespace {

using namespace gt;
using namespace gt::graph;

std::unique_ptr<GraphStore> OpenStore(const gt::testing::ScopedTempDir& dir,
                                      size_t adjacency_cache_bytes = 0) {
  GraphStoreOptions opts;
  // Default OFF here so the pre-cache benchmarks keep measuring the raw KV
  // path; the *Cached variants opt in explicitly.
  opts.adjacency_cache_bytes = adjacency_cache_bytes;
  auto store = GraphStore::Open(dir.sub("store"), opts);
  if (!store.ok()) std::abort();
  return std::move(*store);
}

void BM_GraphPutVertex(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir);
  PropMap props;
  props.Set(1, PropValue(std::string(static_cast<size_t>(state.range(0)), 'a')));
  uint64_t vid = 0;
  for (auto _ : state) {
    VertexRecord v;
    v.id = vid++;
    v.label = 1;
    v.props = props;
    benchmark::DoNotOptimize(store->PutVertex(v));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphPutVertex)->Arg(64)->Arg(512);

void BM_GraphGetVertex(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir);
  const int n = 10000;
  for (int i = 0; i < n; i++) {
    VertexRecord v;
    v.id = static_cast<VertexId>(i);
    v.label = 1;
    v.props.Set(1, PropValue(std::string(128, 'a')));
    store->PutVertex(v).ok();
  }
  store->Flush().ok();
  Rng rng(1);
  VertexRecord rec;  // reused, as each engine worker reuses its records
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->GetVertex(rng.Uniform(n), &rec));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphGetVertex);

void BM_GraphScanEdgesByType(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir);
  // 256 vertices x `range` edges per type x 3 types.
  const int degree = static_cast<int>(state.range(0));
  for (VertexId src = 0; src < 256; src++) {
    for (LabelId label = 0; label < 3; label++) {
      for (int e = 0; e < degree; e++) {
        EdgeRecord rec;
        rec.src = src;
        rec.label = label;
        rec.dst = static_cast<VertexId>(1000 + e);
        store->PutEdge(rec).ok();
      }
    }
  }
  store->Flush().ok();
  Rng rng(1);
  for (auto _ : state) {
    int count = 0;
    store->ScanEdges(rng.Uniform(256), 1, [&](VertexId, std::string_view) {
      count++;
      return true;
    }).ok();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_GraphScanEdgesByType)->Arg(8)->Arg(64);

// Same workload as BM_GraphScanEdgesByType but served from a warm adjacency
// cache: the gap between the two is the per-scan win of the CSR rows.
void BM_GraphScanEdgesCached(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir, /*adjacency_cache_bytes=*/64 << 20);
  const int degree = static_cast<int>(state.range(0));
  for (VertexId src = 0; src < 256; src++) {
    for (LabelId label = 0; label < 3; label++) {
      for (int e = 0; e < degree; e++) {
        EdgeRecord rec;
        rec.src = src;
        rec.label = label;
        rec.dst = static_cast<VertexId>(1000 + e);
        store->PutEdge(rec).ok();
      }
    }
  }
  store->Flush().ok();
  store->WarmAdjacency().ok();
  Rng rng(1);
  for (auto _ : state) {
    int count = 0;
    store->ScanEdges(rng.Uniform(256), 1, [&](VertexId, std::string_view) {
      count++;
      return true;
    }).ok();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_GraphScanEdgesCached)->Arg(8)->Arg(64);

// The reads a worker batch makes: `range` random vertices read through one
// pinned snapshot, as every travel reads, each into a reused record.
void BM_GraphGetVerticesPinned(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir);
  const int n = 10000;
  for (int i = 0; i < n; i++) {
    VertexRecord v;
    v.id = static_cast<VertexId>(i);
    v.label = 1;
    v.props.Set(1, PropValue(std::string(128, 'a')));
    store->PutVertex(v).ok();
  }
  store->Flush().ok();
  const int batch = static_cast<int>(state.range(0));
  const GraphStore::ReadSnapshot* snap = store->GetSnapshot();
  Rng rng(1);
  std::vector<VertexRecord> recs(static_cast<size_t>(batch));
  for (auto _ : state) {
    for (VertexRecord& rec : recs) {
      benchmark::DoNotOptimize(store->GetVertex(rng.Uniform(n), &rec, false, snap));
    }
  }
  store->ReleaseSnapshot(snap);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_GraphGetVerticesPinned)->Arg(16)->Arg(64);

void BM_GraphTypeIndexScan(benchmark::State& state) {
  gt::testing::ScopedTempDir dir;
  auto store = OpenStore(dir);
  for (VertexId v = 0; v < 8192; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = static_cast<LabelId>(v % 8);
    store->PutVertex(rec).ok();
  }
  store->Flush().ok();
  for (auto _ : state) {
    int count = 0;
    store->ScanVerticesByType(3, [&](VertexId) {
      count++;
      return true;
    }).ok();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_GraphTypeIndexScan);

void BM_TextExport(benchmark::State& state) {
  Catalog catalog;
  gen::RmatConfig cfg;
  cfg.scale = 10;
  cfg.avg_degree = 4;
  cfg.attr_bytes = 32;
  gen::RmatGenerator rmat(cfg);
  RefGraph g = rmat.Build(&catalog);
  for (auto _ : state) {
    std::ostringstream out;
    ExportText(g, catalog, &out).ok();
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_TextExport)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
