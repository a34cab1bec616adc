// Tests for the property-graph layer: property values and maps, catalog
// interning, KV key encoding (including ordering guarantees), partitioners,
// GraphStore, bulk ingest and RefGraph.
#include <gtest/gtest.h>

#include <thread>

#include "src/graph/catalog.h"
#include "src/graph/encoding.h"
#include "src/graph/graph_store.h"
#include "src/graph/ingest.h"
#include "src/graph/partitioner.h"
#include "src/graph/property.h"
#include "src/graph/ref_graph.h"
#include "tests/test_util.h"

namespace gt::graph {
namespace {

// --- PropValue -----------------------------------------------------------------

void ExpectRoundTrip(const PropValue& v) {
  std::string buf;
  v.EncodeTo(&buf);
  Decoder dec(buf);
  PropValue out;
  ASSERT_TRUE(PropValue::DecodeFrom(&dec, &out));
  EXPECT_TRUE(out == v);
  EXPECT_TRUE(dec.empty());
}

class PropValueParam : public ::testing::TestWithParam<PropValue> {};

TEST_P(PropValueParam, EncodeDecodeRoundTrip) { ExpectRoundTrip(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Kinds, PropValueParam,
    ::testing::Values(PropValue(int64_t{0}), PropValue(int64_t{-12345}),
                      PropValue(int64_t{1} << 60), PropValue(3.14159),
                      PropValue(-0.0)));

// String and bytes values own a buffer, so gtest's default byte dump of the
// parameter (which becomes the ctest name) would embed a heap address and
// change from build to build. These cases carry a fixed printed name instead.
struct NamedPropValue {
  const char* name;
  PropValue value;
};

void PrintTo(const NamedPropValue& c, std::ostream* os) { *os << c.name; }

class PropValueStringParam : public ::testing::TestWithParam<NamedPropValue> {};

TEST_P(PropValueStringParam, EncodeDecodeRoundTrip) {
  ExpectRoundTrip(GetParam().value);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PropValueStringParam,
    ::testing::Values(
        NamedPropValue{"empty_string", PropValue(std::string(""))},
        NamedPropValue{"string_with_spaces",
                       PropValue(std::string("a string with spaces"))},
        NamedPropValue{"string_10000", PropValue(std::string(10000, 'x'))},
        NamedPropValue{"bytes_3",
                       PropValue(Bytes{std::string("\x00\x01\xff", 3)})}));

TEST(PropValueTest, CompareNumericAcrossKinds) {
  EXPECT_EQ(PropValue(int64_t{5}).Compare(PropValue(5.0)), 0);
  EXPECT_LT(PropValue(int64_t{4}).Compare(PropValue(4.5)), 0);
  EXPECT_GT(PropValue(10.5).Compare(PropValue(int64_t{10})), 0);
}

TEST(PropValueTest, CompareStrings) {
  EXPECT_LT(PropValue("abc").Compare(PropValue("abd")), 0);
  EXPECT_EQ(PropValue("abc").Compare(PropValue("abc")), 0);
}

TEST(PropValueTest, CrossKindOrderIsTotal) {
  PropValue i(int64_t{1}), s("1"), b(Bytes{"1"});
  EXPECT_NE(i.Compare(s), 0);
  EXPECT_EQ(i.Compare(s), -s.Compare(i));
  EXPECT_NE(s.Compare(b), 0);
}

TEST(PropValueTest, TruncatedDecodingFails) {
  std::string buf;
  PropValue(std::string("hello")).EncodeTo(&buf);
  Decoder dec(buf.data(), buf.size() - 2);
  PropValue out;
  EXPECT_FALSE(PropValue::DecodeFrom(&dec, &out));
}

// --- PropMap -------------------------------------------------------------------

TEST(PropMapTest, SetAndFind) {
  PropMap m;
  m.Set(1, PropValue("v1"));
  m.Set(2, PropValue(int64_t{42}));
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(m.Find(1)->as_string(), "v1");
  EXPECT_EQ(m.Find(2)->as_int(), 42);
  EXPECT_EQ(m.Find(3), nullptr);
}

TEST(PropMapTest, SetOverwritesExistingKey) {
  PropMap m;
  m.Set(1, PropValue("old"));
  m.Set(1, PropValue("new"));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.Find(1)->as_string(), "new");
}

TEST(PropMapTest, EncodeDecodeRoundTrip) {
  PropMap m;
  m.Set(7, PropValue(int64_t{-9}));
  m.Set(1, PropValue("text"));
  m.Set(300, PropValue(2.5));
  std::string buf;
  m.EncodeTo(&buf);
  Decoder dec(buf);
  PropMap out;
  ASSERT_TRUE(PropMap::DecodeFrom(&dec, &out));
  EXPECT_TRUE(out == m);
}

TEST(PropMapTest, EmptyMapRoundTrip) {
  PropMap m;
  std::string buf;
  m.EncodeTo(&buf);
  Decoder dec(buf);
  PropMap out;
  ASSERT_TRUE(PropMap::DecodeFrom(&dec, &out));
  EXPECT_TRUE(out.empty());
}

// --- Catalog -------------------------------------------------------------------

TEST(CatalogTest, InternIsIdempotent) {
  Catalog cat;
  const auto a = cat.Intern("run");
  const auto b = cat.Intern("read");
  EXPECT_NE(a, b);
  EXPECT_EQ(cat.Intern("run"), a);
  EXPECT_EQ(cat.size(), 2u);
}

TEST(CatalogTest, LookupWithoutInternReturnsInvalid) {
  Catalog cat;
  EXPECT_EQ(cat.Lookup("never"), Catalog::kInvalidId);
  cat.Intern("present");
  EXPECT_NE(cat.Lookup("present"), Catalog::kInvalidId);
}

TEST(CatalogTest, NameReverseLookup) {
  Catalog cat;
  const auto id = cat.Intern("hasExecutions");
  auto name = cat.Name(id);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "hasExecutions");
  EXPECT_FALSE(cat.Name(9999).ok());
}

TEST(CatalogTest, ConcurrentInterningIsConsistent) {
  Catalog cat;
  std::vector<std::thread> threads;
  std::vector<std::vector<Catalog::Id>> ids(4);
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&cat, &ids, t] {
      for (int i = 0; i < 100; i++) {
        ids[t].push_back(cat.Intern("label-" + std::to_string(i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 100; i++) {
    for (int t = 1; t < 4; t++) EXPECT_EQ(ids[t][i], ids[0][i]);
  }
  EXPECT_EQ(cat.size(), 100u);
}

TEST(CatalogTest, CopyFromReplicatesMapping) {
  Catalog source;
  const auto a = source.Intern("run");
  const auto b = source.Intern("read");
  Catalog replica;
  replica.CopyFrom(source);
  EXPECT_EQ(replica.Lookup("run"), a);
  EXPECT_EQ(replica.Lookup("read"), b);
  EXPECT_EQ(replica.size(), 2u);
  // Copying again after growth only appends the new names.
  source.Intern("write");
  replica.CopyFrom(source);
  EXPECT_EQ(replica.Lookup("write"), source.Lookup("write"));
  EXPECT_EQ(replica.size(), 3u);
}

// --- Key encoding -----------------------------------------------------------------

TEST(EncodingTest, VertexKeyRoundTrip) {
  const std::string key = VertexKey(0x1122334455667788ull);
  VertexId vid = 0;
  ASSERT_TRUE(ParseVertexKey(key, &vid));
  EXPECT_EQ(vid, 0x1122334455667788ull);
}

TEST(EncodingTest, EdgeKeyRoundTrip) {
  const std::string key = EdgeKey(10, 3, 99);
  VertexId src, dst;
  LabelId label;
  ASSERT_TRUE(ParseEdgeKey(key, &src, &label, &dst));
  EXPECT_EQ(src, 10u);
  EXPECT_EQ(label, 3u);
  EXPECT_EQ(dst, 99u);
}

TEST(EncodingTest, TypeIndexKeyRoundTrip) {
  const std::string key = TypeIndexKey(5, 123456789ull);
  LabelId label;
  VertexId vid;
  ASSERT_TRUE(ParseTypeIndexKey(key, &label, &vid));
  EXPECT_EQ(label, 5u);
  EXPECT_EQ(vid, 123456789ull);
}

TEST(EncodingTest, ParsersRejectWrongNamespaceOrLength) {
  VertexId vid;
  EXPECT_FALSE(ParseVertexKey(EdgeKey(1, 2, 3), &vid));
  EXPECT_FALSE(ParseVertexKey("short", &vid));
  VertexId src, dst;
  LabelId label;
  EXPECT_FALSE(ParseEdgeKey(VertexKey(1), &src, &label, &dst));
}

TEST(EncodingTest, EdgesOfOneVertexGroupByLabelInKeyOrder) {
  // The storage-layout property the paper relies on: all edges of a vertex
  // sort together, grouped by edge type, so type scans are sequential.
  std::vector<std::string> keys = {
      EdgeKey(5, 1, 100), EdgeKey(5, 1, 2),  EdgeKey(5, 2, 1),
      EdgeKey(5, 0, 999), EdgeKey(4, 9, 0),  EdgeKey(6, 0, 0),
  };
  std::sort(keys.begin(), keys.end());
  // All vertex-5 edges are contiguous.
  VertexId src, dst;
  LabelId label;
  std::vector<std::pair<VertexId, LabelId>> order;
  for (const auto& k : keys) {
    ASSERT_TRUE(ParseEdgeKey(k, &src, &label, &dst));
    order.emplace_back(src, label);
  }
  EXPECT_EQ(order, (std::vector<std::pair<VertexId, LabelId>>{
                       {4, 9}, {5, 0}, {5, 1}, {5, 1}, {5, 2}, {6, 0}}));
  // And the per-(src,label) prefix covers exactly its group.
  int with_prefix = 0;
  for (const auto& k : keys) {
    if (std::string_view(k).starts_with(EdgePrefix(5, 1))) with_prefix++;
  }
  EXPECT_EQ(with_prefix, 2);
}

TEST(EncodingTest, VertexValueRoundTrip) {
  PropMap props;
  props.Set(1, PropValue("alpha"));
  const std::string value = EncodeVertexValue(42, props);
  LabelId label;
  PropMap out;
  ASSERT_TRUE(DecodeVertexValue(value, &label, &out));
  EXPECT_EQ(label, 42u);
  EXPECT_TRUE(out == props);
}

// --- Partitioners ---------------------------------------------------------------

TEST(PartitionerTest, HashPartitionerIsBalanced) {
  HashPartitioner part(8);
  std::vector<int> counts(8, 0);
  for (VertexId v = 0; v < 80000; v++) counts[part.ServerFor(v)]++;
  for (int c : counts) {
    EXPECT_GT(c, 8000);
    EXPECT_LT(c, 12000);
  }
}

TEST(PartitionerTest, HashPartitionerIsDeterministic) {
  HashPartitioner a(16), b(16);
  for (VertexId v = 0; v < 1000; v++) EXPECT_EQ(a.ServerFor(v), b.ServerFor(v));
}

TEST(PartitionerTest, ZeroServersClampedToOne) {
  HashPartitioner part(0);
  EXPECT_EQ(part.num_servers(), 1u);
  EXPECT_EQ(part.ServerFor(12345), 0u);
}

TEST(PartitionerTest, RangePartitionerSplitsContiguously) {
  RangePartitioner part(4, 99);
  EXPECT_EQ(part.ServerFor(0), 0u);
  EXPECT_EQ(part.ServerFor(99), 3u);
  EXPECT_LE(part.ServerFor(1000), 3u);  // out-of-range clamps to last
  for (VertexId v = 1; v < 100; v++) {
    EXPECT_GE(part.ServerFor(v), part.ServerFor(v - 1));
  }
}

// --- GraphStore ----------------------------------------------------------------

class GraphStoreTest : public ::testing::Test {
 protected:
  gt::testing::ScopedTempDir dir_;

  std::unique_ptr<GraphStore> OpenStore(DeviceModel* device = nullptr) {
    GraphStoreOptions opts;
    opts.device = device;
    auto store = GraphStore::Open(dir_.sub("store"), opts);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }
};

TEST_F(GraphStoreTest, PutAndGetVertex) {
  auto store = OpenStore();
  VertexRecord v;
  v.id = 7;
  v.label = 2;
  v.props.Set(1, PropValue("file.txt"));
  ASSERT_TRUE(store->PutVertex(v).ok());
  auto got = store->GetVertex(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->label, 2u);
  EXPECT_EQ(got->props.Find(1)->as_string(), "file.txt");
}

TEST_F(GraphStoreTest, GetMissingVertexIsNotFound) {
  auto store = OpenStore();
  EXPECT_TRUE(store->GetVertex(404).status().IsNotFound());
}

TEST_F(GraphStoreTest, ScanEdgesFiltersByLabel) {
  auto store = OpenStore();
  for (VertexId dst = 0; dst < 10; dst++) {
    EdgeRecord e;
    e.src = 1;
    e.label = dst % 2;  // labels 0 and 1 interleaved
    e.dst = dst;
    ASSERT_TRUE(store->PutEdge(e).ok());
  }
  std::vector<VertexId> dsts;
  ASSERT_TRUE(store->ScanEdges(1, 1, [&](VertexId dst, std::string_view) {
                  dsts.push_back(dst);
                  return true;
                }).ok());
  EXPECT_EQ(dsts, (std::vector<VertexId>{1, 3, 5, 7, 9}));
}

TEST_F(GraphStoreTest, ScanAllEdgesGroupsByLabel) {
  auto store = OpenStore();
  for (LabelId label : {3u, 1u, 2u}) {
    EdgeRecord e;
    e.src = 9;
    e.label = label;
    e.dst = 100 + label;
    ASSERT_TRUE(store->PutEdge(e).ok());
  }
  std::vector<LabelId> labels;
  ASSERT_TRUE(store->ScanAllEdges(9, [&](LabelId l, VertexId, std::string_view) {
                  labels.push_back(l);
                  return true;
                }).ok());
  EXPECT_EQ(labels, (std::vector<LabelId>{1, 2, 3}));  // key order groups labels
}

// A malformed value stored under a real edge key fails both edge scans with
// Corruption on every path, and the visitor never sees it: cold (the
// uncached KV scan, or the row build) and again with the row cached (the
// (src, label) row, the all-labels row, and a label slice of the latter).
TEST_F(GraphStoreTest, CorruptEdgeValueFailsScan) {
  for (size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE("adjacency_cache_bytes=" + std::to_string(cache_bytes));
    GraphStoreOptions opts;
    opts.adjacency_cache_bytes = cache_bytes;
    auto opened = GraphStore::Open(dir_.sub("corrupt" + std::to_string(cache_bytes)), opts);
    ASSERT_TRUE(opened.ok());
    GraphStore* store = opened->get();
    // Two sources, each with one edge whose stored string value is cut
    // short: its count and length prefix still parse, its bytes run out.
    for (VertexId src : {1u, 4u}) {
      EdgeRecord e;
      e.src = src;
      e.label = 2;
      e.dst = 3;
      e.props.Set(1, PropValue("weight"));
      ASSERT_TRUE(store->PutEdge(e).ok());
      std::string bad = EncodeEdgeValue(e.props);
      bad.resize(bad.size() - 2);
      ASSERT_TRUE(store->db()->Put(EdgeKey(src, 2, 3), bad).ok());
    }
    const uint64_t hits_before =
        store->adjacency_cache() != nullptr ? store->adjacency_cache()->hits() : 0;

    int visits = 0;
    auto scan = [&](VertexId src) {
      return store->ScanEdges(src, 2, [&](VertexId, std::string_view) {
        visits++;
        return true;
      });
    };
    auto scan_all = [&](VertexId src) {
      return store->ScanAllEdges(src, [&](LabelId, VertexId, std::string_view) {
        visits++;
        return true;
      });
    };
    EXPECT_TRUE(scan(1).IsCorruption());      // cold: (1, 2) row build
    EXPECT_TRUE(scan(1).IsCorruption());      // (1, 2) row cached
    EXPECT_TRUE(scan_all(4).IsCorruption());  // cold: all-labels row build
    EXPECT_TRUE(scan_all(4).IsCorruption());  // all-labels row cached
    EXPECT_TRUE(scan(4).IsCorruption());      // label slice of the cached row
    EXPECT_EQ(visits, 0);
    if (store->adjacency_cache() != nullptr) {
      EXPECT_EQ(store->adjacency_cache()->hits() - hits_before, 3u);
    }
  }
}

TEST_F(GraphStoreTest, TypeIndexScan) {
  auto store = OpenStore();
  for (VertexId v = 0; v < 20; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = v % 4;
    ASSERT_TRUE(store->PutVertex(rec).ok());
  }
  std::vector<VertexId> vids;
  ASSERT_TRUE(store->ScanVerticesByType(2, [&](VertexId v) {
                  vids.push_back(v);
                  return true;
                }).ok());
  EXPECT_EQ(vids, (std::vector<VertexId>{2, 6, 10, 14, 18}));
}

TEST_F(GraphStoreTest, DeleteVertexRemovesRecordAndIndex) {
  auto store = OpenStore();
  VertexRecord v;
  v.id = 5;
  v.label = 1;
  ASSERT_TRUE(store->PutVertex(v).ok());
  ASSERT_TRUE(store->DeleteVertex(5).ok());
  EXPECT_TRUE(store->GetVertex(5).status().IsNotFound());
  int count = 0;
  ASSERT_TRUE(store->ScanVerticesByType(1, [&](VertexId) {
                  count++;
                  return true;
                }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(GraphStoreTest, AccessesChargeDeviceModel) {
  DeviceModel device(DeviceModelConfig{.access_latency_us = 0, .per_kib_us = 0});
  auto store = OpenStore(&device);
  VertexRecord v;
  v.id = 1;
  v.label = 0;
  ASSERT_TRUE(store->PutVertex(v).ok());
  ASSERT_TRUE(store->GetVertex(1).ok());
  ASSERT_TRUE(store->ScanEdges(1, 0, [](VertexId, std::string_view) { return true; }).ok());
  EXPECT_EQ(device.total_accesses(), 2u);
  EXPECT_EQ(store->vertex_accesses(), 2u);
}

// The pushed-down type scan reads the candidate records itself: one
// sequential run charged as a single access when a store holds more than 16
// candidates, one MultiGet with a per-vertex charge otherwise. Both yield
// exactly the index ids whose decoded record passes the predicate, and a
// malformed record fails the scan with Corruption.
TEST_F(GraphStoreTest, FilteredTypeScanSequentialAndPointPaths) {
  DeviceModel device(DeviceModelConfig{.access_latency_us = 0, .per_kib_us = 0});
  auto store = OpenStore(&device);
  constexpr LabelId kFew = 1;   // 10 candidates: the point (MultiGet) branch
  constexpr LabelId kMany = 2;  // 30 candidates: the sequential-run branch
  constexpr PropMap::KeyId kWeight = 7;
  for (VertexId v = 0; v < 40; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = v % 4 == 0 ? kFew : kMany;
    rec.props.Set(kWeight, PropValue(static_cast<int64_t>(v * 7 % 10)));
    ASSERT_TRUE(store->PutVertex(rec).ok());
  }
  auto pred = [&](const VertexRecord& rec) {
    const PropValue* w = rec.props.Find(kWeight);
    return w != nullptr && w->as_int() < 5;
  };
  auto expected = [&](LabelId label) {
    std::vector<VertexId> ids;
    EXPECT_TRUE(store->ScanVerticesByType(label, [&](VertexId v) {
                       ids.push_back(v);
                       return true;
                     }).ok());
    std::vector<VertexId> passing;
    for (VertexId v : ids) {
      auto rec = store->GetVertex(v);
      EXPECT_TRUE(rec.ok());
      if (rec.ok() && pred(*rec)) passing.push_back(v);
    }
    return passing;
  };
  auto filtered = [&](LabelId label, std::vector<VertexId>* out) {
    return store->ScanVerticesByTypeFiltered(label, pred, [&](VertexId v) {
      out->push_back(v);
      return true;
    });
  };

  for (LabelId label : {kFew, kMany}) {
    SCOPED_TRACE("label=" + std::to_string(label));
    const std::vector<VertexId> want = expected(label);
    ASSERT_FALSE(want.empty());
    device.ResetStats();
    store->ResetAccessCount();
    std::vector<VertexId> got;
    ASSERT_TRUE(filtered(label, &got).ok());
    EXPECT_EQ(got, want);
    if (label == kMany) {
      // Index walk plus one run; the run is not vertex-rooted.
      EXPECT_EQ(device.total_accesses(), 2u);
      EXPECT_EQ(store->vertex_accesses(), 0u);
    } else {
      // Index walk plus one point read per candidate.
      EXPECT_EQ(device.total_accesses(), 1u + 10u);
      EXPECT_EQ(store->vertex_accesses(), 10u);
    }
  }

  // A truncated record under one candidate's key, on each branch.
  for (VertexId bad_vid : {VertexId{5}, VertexId{8}}) {  // kMany, kFew
    PropMap props;
    props.Set(kWeight, PropValue(int64_t{1}));
    std::string bad = EncodeVertexValue(bad_vid % 4 == 0 ? kFew : kMany, props);
    bad.resize(bad.size() - 2);
    ASSERT_TRUE(store->db()->Put(VertexKey(bad_vid), bad).ok());
  }
  std::vector<VertexId> ignored;
  EXPECT_TRUE(filtered(kMany, &ignored).IsCorruption());
  EXPECT_TRUE(filtered(kFew, &ignored).IsCorruption());
}

TEST_F(GraphStoreTest, InterceptorSeesEveryAccess) {
  class CountingInterceptor : public AccessInterceptor {
   public:
    void OnVertexAccess(uint32_t, VertexId) override { count++; }
    int count = 0;
  };
  CountingInterceptor interceptor;
  auto store = OpenStore();
  store->SetInterceptor(&interceptor);
  VertexRecord v;
  v.id = 1;
  v.label = 0;
  ASSERT_TRUE(store->PutVertex(v).ok());
  ASSERT_TRUE(store->GetVertex(1).ok());
  EXPECT_EQ(interceptor.count, 1);
}

TEST_F(GraphStoreTest, PersistsAcrossReopen) {
  {
    auto store = OpenStore();
    VertexRecord v;
    v.id = 11;
    v.label = 3;
    v.props.Set(1, PropValue(int64_t{99}));
    ASSERT_TRUE(store->PutVertex(v).ok());
    EdgeRecord e;
    e.src = 11;
    e.label = 1;
    e.dst = 12;
    ASSERT_TRUE(store->PutEdge(e).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto store = OpenStore();
  auto v = store->GetVertex(11);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->props.Find(1)->as_int(), 99);
  int edges = 0;
  ASSERT_TRUE(store->ScanEdges(11, 1, [&](VertexId, std::string_view) {
                  edges++;
                  return true;
                }).ok());
  EXPECT_EQ(edges, 1);
}

// --- Ingest + RefGraph ----------------------------------------------------------

TEST(IngestTest, RoutesVerticesAndEdgesByPartitioner) {
  gt::testing::ScopedTempDir dir;
  HashPartitioner part(3);
  std::vector<std::unique_ptr<GraphStore>> stores;
  std::vector<GraphStore*> raw;
  for (int i = 0; i < 3; i++) {
    auto s = GraphStore::Open(dir.sub("s" + std::to_string(i)), GraphStoreOptions{});
    ASSERT_TRUE(s.ok());
    raw.push_back(s->get());
    stores.push_back(std::move(*s));
  }
  GraphLoader loader(&part, raw, /*batch_records=*/8);
  for (VertexId v = 0; v < 100; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = 0;
    ASSERT_TRUE(loader.AddVertex(rec).ok());
    if (v > 0) {
      EdgeRecord e;
      e.src = v;
      e.label = 1;
      e.dst = v - 1;
      ASSERT_TRUE(loader.AddEdge(e).ok());
    }
  }
  ASSERT_TRUE(loader.Finish().ok());
  EXPECT_EQ(loader.vertices_loaded(), 100u);
  EXPECT_EQ(loader.edges_loaded(), 99u);

  // Every vertex must be on exactly the server the partitioner names.
  for (VertexId v = 0; v < 100; v++) {
    const uint32_t owner = part.ServerFor(v);
    EXPECT_TRUE(raw[owner]->GetVertex(v).ok()) << v;
    for (uint32_t other = 0; other < 3; other++) {
      if (other == owner) continue;
      EXPECT_TRUE(raw[other]->GetVertex(v).status().IsNotFound());
    }
  }
}

TEST(RefGraphTest, AdjacencyAndTypeIndex) {
  RefGraph g;
  VertexRecord u;
  u.id = 1;
  u.label = 7;
  g.AddVertex(u);
  EdgeRecord e;
  e.src = 1;
  e.label = 2;
  e.dst = 5;
  g.AddEdge(e);

  EXPECT_NE(g.FindVertex(1), nullptr);
  EXPECT_EQ(g.FindVertex(2), nullptr);
  EXPECT_EQ(g.Edges(1, 2).size(), 1u);
  EXPECT_EQ(g.Edges(1, 3).size(), 0u);
  EXPECT_EQ(g.VerticesByType(7), (std::vector<VertexId>{1}));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(RefGraphTest, DegreeStats) {
  RefGraph g;
  for (VertexId v = 0; v < 3; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = 0;
    g.AddVertex(rec);
  }
  // Four adds, two distinct (src, label, dst) keys: the repeats upsert.
  for (int i = 0; i < 4; i++) {
    EdgeRecord e;
    e.src = 0;
    e.label = 0;
    e.dst = (i % 2) + 1;
    g.AddEdge(e);
  }
  auto stats = g.OutDegreeStats();
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_NEAR(stats.mean, 2.0 / 3.0, 1e-9);
}

// The stores key edges by (src, label, dst) — a re-added edge replaces the
// stored properties. The oracle graph must agree, or the reference
// evaluator would apply filters to parallel edges the engines never see.
TEST(RefGraphTest, AddEdgeUpsertsOnSameKey) {
  RefGraph g;
  VertexRecord rec;
  rec.id = 1;
  rec.label = 0;
  g.AddVertex(rec);
  EdgeRecord e;
  e.src = 1;
  e.label = 2;
  e.dst = 3;
  e.props.Set(5, PropValue(static_cast<int64_t>(10)));
  g.AddEdge(e);
  EdgeRecord again = e;
  again.props = PropMap();
  again.props.Set(5, PropValue(static_cast<int64_t>(20)));
  g.AddEdge(std::move(again));

  ASSERT_EQ(g.Edges(1, 2).size(), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  const PropValue* v = g.Edges(1, 2)[0].second.Find(5);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, PropValue(static_cast<int64_t>(20)));
}

}  // namespace
}  // namespace gt::graph
