// Distributed-deployment tests: live updates and point queries through the
// client RPC API, the distributed catalog (authority + replicas), and a
// full multi-server cluster assembled over the real TCP transport with
// per-server catalogs — the same wiring the graphtrek_server daemon uses.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/engine/backend_server.h"
#include "src/engine/client.h"
#include "src/engine/cluster.h"
#include "src/engine/remote_catalog.h"
#include "src/graph/ingest.h"
#include "src/rpc/inproc_transport.h"
#include "src/rpc/tcp_transport.h"
#include "tests/racing_harness.h"
#include "tests/test_util.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::PropValue;
using graph::VertexId;
using lang::FilterOp;
using lang::GTravel;

// --- live updates + point queries on the in-process cluster -------------------

class LiveUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig cfg;
    cfg.num_servers = 3;
    auto cluster = Cluster::Create(cfg);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(*cluster);
    client_ = cluster_->NewClient();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<GraphTrekClient> client_;
};

TEST_F(LiveUpdateTest, PutThenGetVertexRoundTrip) {
  ASSERT_TRUE(client_
                  ->PutVertex(42, "User",
                              {{"name", PropValue("sam")}, {"uid", PropValue(int64_t{1001})}})
                  .ok());
  auto rec = client_->GetVertex(42);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->found, 1);
  EXPECT_EQ(rec->label, "User");
  ASSERT_EQ(rec->props.size(), 2u);
  EXPECT_EQ(rec->props[0].first, "name");
  EXPECT_EQ(rec->props[0].second.as_string(), "sam");
  EXPECT_EQ(rec->props[1].second.as_int(), 1001);
}

TEST_F(LiveUpdateTest, GetMissingVertexReportsNotFound) {
  auto rec = client_->GetVertex(9999);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->found, 0);
}

// A record the store cannot decode is an error, not an absent vertex: the
// point query returns the store's Corruption.
TEST_F(LiveUpdateTest, CorruptVertexRecordReturnsCorruption) {
  ASSERT_TRUE(client_->PutVertex(42, "User", {{"uid", PropValue(int64_t{1001})}}).ok());
  graph::GraphStore* owner = cluster_->store(cluster_->partitioner()->ServerFor(42));
  ASSERT_TRUE(owner->db()->Put(graph::VertexKey(42), std::string(1, '\x01')).ok());
  auto rec = client_->GetVertex(42);
  ASSERT_FALSE(rec.ok()) << "found=" << static_cast<int>(rec->found);
  EXPECT_TRUE(rec.status().IsCorruption()) << rec.status().ToString();
}

TEST_F(LiveUpdateTest, DeleteVertexRemovesIt) {
  ASSERT_TRUE(client_->PutVertex(7, "File").ok());
  ASSERT_TRUE(client_->DeleteVertex(7).ok());
  auto rec = client_->GetVertex(7);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->found, 0);
}

TEST_F(LiveUpdateTest, MisroutedRequestsForwardToOwner) {
  // An unrouted client sends everything to server 0; requests for vertices
  // owned elsewhere must be forwarded transparently.
  GraphTrekClient unrouted(cluster_->transport(), rpc::kClientIdBase + 777,
                           /*num_servers=*/0);
  for (VertexId vid = 100; vid < 120; vid++) {
    ASSERT_TRUE(unrouted.PutVertex(vid, "File", {{"sz", PropValue(int64_t(vid))}}).ok())
        << vid;
  }
  for (VertexId vid = 100; vid < 120; vid++) {
    auto rec = unrouted.GetVertex(vid);
    ASSERT_TRUE(rec.ok()) << vid;
    EXPECT_EQ(rec->found, 1) << vid;
    EXPECT_EQ(rec->props[0].second.as_int(), static_cast<int64_t>(vid));
  }
}

TEST_F(LiveUpdateTest, LiveIngestedGraphIsTraversable) {
  // Build a small user->job->file graph purely through the live-update API,
  // then traverse it: the paper's "ingest production information in real
  // time" requirement end-to-end.
  ASSERT_TRUE(client_->PutVertex(1, "User", {{"name", PropValue("sam")}}).ok());
  for (VertexId job = 10; job < 13; job++) {
    ASSERT_TRUE(client_->PutVertex(job, "Job").ok());
    ASSERT_TRUE(client_->PutEdge(1, "run", job, {{"ts", PropValue(int64_t(job))}}).ok());
    ASSERT_TRUE(client_->PutVertex(job + 100, "File").ok());
    ASSERT_TRUE(client_->PutEdge(job, "write", job + 100).ok());
  }

  auto plan = GTravel(cluster_->catalog()).v({1}).e("run").e("write").Build();
  ASSERT_TRUE(plan.ok());
  for (EngineMode mode :
       {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = cluster_->Run(*plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode);
    EXPECT_EQ(result->vids, (std::vector<VertexId>{110, 111, 112})) << EngineModeName(mode);
  }
}

TEST_F(LiveUpdateTest, UpdatesVisibleToSubsequentTraversals) {
  ASSERT_TRUE(client_->PutVertex(1, "User").ok());
  ASSERT_TRUE(client_->PutVertex(2, "Job").ok());
  ASSERT_TRUE(client_->PutEdge(1, "run", 2).ok());

  auto plan = GTravel(cluster_->catalog()).v({1}).e("run").Build();
  ASSERT_TRUE(plan.ok());
  auto before = cluster_->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->vids.size(), 1u);

  // Live update between traversals.
  ASSERT_TRUE(client_->PutVertex(3, "Job").ok());
  ASSERT_TRUE(client_->PutEdge(1, "run", 3).ok());
  auto after = cluster_->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->vids, (std::vector<VertexId>{2, 3}));
}

TEST_F(LiveUpdateTest, PropertyOverwriteKeepsNewest) {
  ASSERT_TRUE(client_->PutVertex(5, "File", {{"size", PropValue(int64_t{100})}}).ok());
  ASSERT_TRUE(client_->PutVertex(5, "File", {{"size", PropValue(int64_t{200})}}).ok());
  auto rec = client_->GetVertex(5);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->props[0].second.as_int(), 200);
}

// --- distributed catalog --------------------------------------------------------

TEST_F(LiveUpdateTest, CatalogPullAndInternThroughAuthority) {
  // Seed some names via mutations.
  ASSERT_TRUE(client_->PutVertex(1, "User", {{"name", PropValue("x")}}).ok());

  rpc::Mailbox mailbox(cluster_->transport(), rpc::kClientIdBase + 900);
  RemoteCatalog replica(&mailbox, /*authority=*/0);
  ASSERT_TRUE(replica.Pull().ok());
  EXPECT_NE(replica.Lookup("User"), Catalog::kInvalidId);
  EXPECT_EQ(replica.Lookup("User"), cluster_->catalog()->Lookup("User"));
  EXPECT_EQ(replica.Lookup("name"), cluster_->catalog()->Lookup("name"));

  // Interning a brand-new name resolves through the authority and both
  // sides agree on the id.
  const auto id = replica.Intern("brand-new-label");
  EXPECT_NE(id, Catalog::kInvalidId);
  EXPECT_EQ(id, cluster_->catalog()->Lookup("brand-new-label"));
  // Second intern is a local cache hit with the same id.
  EXPECT_EQ(replica.Intern("brand-new-label"), id);
}

// --- randomized mutation/traversal equivalence -------------------------------------

class MutationOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationOracleSweep, LiveMutationsMatchOracleTraversals) {
  // Apply a random mutation stream through the live-update RPCs while
  // mirroring it into an in-memory oracle; every few batches, all engines
  // must agree with the reference evaluator on a random traversal.
  ClusterConfig cfg;
  cfg.num_servers = 3;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  auto client = (*cluster)->NewClient();

  graph::RefGraph oracle;
  Rng rng(GetParam());
  const uint32_t kVertices = 60;
  const char* kLabels[] = {"TypeA", "TypeB"};
  const char* kEdges[] = {"link0", "link1"};

  for (int batch = 0; batch < 4; batch++) {
    for (int i = 0; i < 40; i++) {
      if (rng.Bernoulli(0.4)) {
        const VertexId vid = rng.Uniform(kVertices);
        const char* label = kLabels[rng.Uniform(2)];
        const auto tag = static_cast<int64_t>(rng.Uniform(100));
        ASSERT_TRUE(client->PutVertex(vid, label, {{"tag", PropValue(tag)}}).ok());
        graph::VertexRecord rec;
        rec.id = vid;
        rec.label = catalog->Intern(label);
        rec.props.Set(catalog->Intern("tag"), PropValue(tag));
        oracle.AddVertex(std::move(rec));  // overwrites in the map
      } else {
        const VertexId src = rng.Uniform(kVertices);
        const VertexId dst = rng.Uniform(kVertices);
        const char* label = kEdges[rng.Uniform(2)];
        // The ingest path rejects edges with a missing (local) endpoint, so
        // a dangling src doubles as a rejection regression check; edges
        // with a not-yet-inserted dst are skipped because the dst shard
        // decides between reject (local) and accept-unverified (remote).
        if (oracle.FindVertex(src) == nullptr) {
          EXPECT_FALSE(client->PutEdge(src, label, dst).ok());
          continue;
        }
        if (oracle.FindVertex(dst) == nullptr) continue;
        // Skip duplicate (src,label,dst) edges: the store overwrites them
        // but the oracle would record parallels.
        const auto lid = catalog->Intern(label);
        bool dup = false;
        for (const auto& [d, p] : oracle.Edges(src, lid)) {
          if (d == dst) dup = true;
        }
        if (dup) continue;
        ASSERT_TRUE(client->PutEdge(src, label, dst).ok());
        graph::EdgeRecord rec;
        rec.src = src;
        rec.label = lid;
        rec.dst = dst;
        oracle.AddEdge(std::move(rec));
      }
    }

    // Random traversal over the current state.
    GTravel travel(catalog);
    travel.v({rng.Uniform(kVertices), rng.Uniform(kVertices)});
    const uint32_t hops = 1 + rng.Uniform(3);
    for (uint32_t h = 0; h < hops; h++) travel.e(kEdges[rng.Uniform(2)]);
    auto plan = travel.Build();
    ASSERT_TRUE(plan.ok());
    const auto expected = lang::EvaluatePlanOnRefGraph(*plan, oracle, *catalog);
    for (EngineMode mode :
         {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
      auto result = (*cluster)->Run(*plan, mode);
      ASSERT_TRUE(result.ok()) << EngineModeName(mode);
      EXPECT_EQ(result->vids, expected) << EngineModeName(mode) << " batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationOracleSweep, ::testing::Values(11, 22, 33, 44));

// --- full cluster over the TCP transport (daemon wiring) --------------------------

class TcpClusterTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kServers = 3;
  static constexpr rpc::EndpointId kCatalogEndpointBase = 5000;

  void SetUp() override {
    // Default TcpConfig: every endpoint binds an ephemeral port, so fixtures
    // running concurrently under `ctest -j` can never collide on a bind.
    transport_ = std::make_unique<rpc::TcpTransport>();
    partitioner_ = std::make_unique<graph::HashPartitioner>(kServers);

    for (uint32_t i = 0; i < kServers; i++) {
      auto store = graph::GraphStore::Open(dir_.sub("s" + std::to_string(i)),
                                           graph::GraphStoreOptions{});
      ASSERT_TRUE(store.ok());
      stores_.push_back(std::move(*store));
    }

    // Server 0 first (it is the catalog authority the others pull from).
    for (uint32_t i = 0; i < kServers; i++) {
      graph::Catalog* catalog = &authority_catalog_;
      if (i != 0) {
        catalog_mailboxes_.push_back(std::make_unique<rpc::Mailbox>(
            transport_.get(), kCatalogEndpointBase + i));
        remote_catalogs_.push_back(std::make_unique<RemoteCatalog>(
            catalog_mailboxes_.back().get(), /*authority=*/0));
        catalog = remote_catalogs_.back().get();
      }
      ServerConfig scfg;
      scfg.id = i;
      scfg.num_servers = kServers;
      scfg.retain_snapshots_for_test = retain_snapshots_;
      servers_.push_back(std::make_unique<BackendServer>(
          scfg, stores_[i].get(), partitioner_.get(), catalog, transport_.get()));
      ASSERT_TRUE(servers_.back()->Start().ok());
    }
  }

  void TearDown() override {
    for (auto& s : servers_) s->Stop();
    transport_->Shutdown();
  }

  // Derived fixtures flip this in their constructor (before SetUp builds
  // the servers) to keep each travel's pinned snapshot for DumpAtTravelPin.
  bool retain_snapshots_ = false;

  gt::testing::ScopedTempDir dir_;
  std::unique_ptr<rpc::TcpTransport> transport_;
  std::unique_ptr<graph::HashPartitioner> partitioner_;
  graph::Catalog authority_catalog_;
  std::vector<std::unique_ptr<rpc::Mailbox>> catalog_mailboxes_;
  std::vector<std::unique_ptr<RemoteCatalog>> remote_catalogs_;
  std::vector<std::unique_ptr<graph::GraphStore>> stores_;
  std::vector<std::unique_ptr<BackendServer>> servers_;
};

TEST_F(TcpClusterTest, EndToEndOverRealSockets) {
  GraphTrekClient client(transport_.get(), 6500, kServers);

  // Ingest a chain through the live-update API (names intern through the
  // authority even when the owning server holds only a replica catalog).
  for (VertexId v = 0; v < 12; v++) {
    ASSERT_TRUE(client.PutVertex(v, "Node", {{"i", PropValue(int64_t(v))}}).ok()) << v;
    if (v > 0) {
      ASSERT_TRUE(client.PutEdge(v - 1, "next", v).ok()) << v;
    }
  }

  // Point query across the wire.
  auto rec = client.GetVertex(5);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->found, 1);
  EXPECT_EQ(rec->label, "Node");

  // Traversal: client builds the plan against a catalog replica.
  RemoteCatalog client_catalog(client.mailbox(), /*authority=*/0);
  ASSERT_TRUE(client_catalog.Pull().ok());
  GTravel travel(&client_catalog);
  travel.v({0});
  for (int i = 0; i < 4; i++) travel.e("next");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  for (EngineMode mode :
       {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    RunOptions opts;
    opts.mode = mode;
    opts.coordinator = 1;  // exercise a non-authority coordinator
    auto result = client.Run(*plan, opts);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->vids, std::vector<VertexId>{4}) << EngineModeName(mode);
  }
}

// Mutate-while-traversing over real sockets: the same differential leg as
// the in-process cluster runs (racing_harness.h), proving the pin protocol
// (kPinTravel broadcast + lazy first-touch pin) holds over TCP framing too.
class TcpSnapshotRacingTest : public TcpClusterTest {
 protected:
  TcpSnapshotRacingTest() { retain_snapshots_ = true; }
};

TEST_F(TcpSnapshotRacingTest, MutationsRacingTravelsMatchPinnedOracle) {
  GraphTrekClient mutator(transport_.get(), 6502, kServers);
  GraphTrekClient traveler(transport_.get(), 6503, kServers);

  gt::testing::RacingEnv env;
  env.mutator = &mutator;
  env.traveler = &traveler;
  env.catalog = &authority_catalog_;
  env.dump_at_pin = [&](TravelId travel) -> Result<graph::RefGraph> {
    graph::RefGraph g;
    for (uint32_t i = 0; i < kServers; i++) {
      auto snap = servers_[i]->TravelSnapshotForTest(travel);
      GT_RETURN_IF_ERROR(stores_[i]->ScanAllVertices(
          [&](const graph::VertexRecord& rec) {
            g.AddVertex(rec);
            return true;
          },
          snap.get()));
      GT_RETURN_IF_ERROR(stores_[i]->ScanEverythingEdges(
          [&](const graph::EdgeRecord& rec) {
            g.AddEdge(rec);
            return true;
          },
          snap.get()));
    }
    return g;
  };
  env.has_residue = [&](TravelId travel) {
    for (auto& server : servers_) {
      if (server->HasTravelResidue(travel)) return true;
    }
    return false;
  };
  gt::testing::RunMutateRacingLeg(env, /*seed=*/1, /*travels=*/6);

  for (auto& server : servers_) server->DropRetainedSnapshotsForTest();
  for (auto& store : stores_) {
    EXPECT_EQ(store->db()->NumLiveSnapshots(), 0u);
  }
}

TEST_F(TcpClusterTest, ReplicaCatalogsAgreeAfterMutations) {
  GraphTrekClient client(transport_.get(), 6501, kServers);
  ASSERT_TRUE(client.PutVertex(1, "Alpha").ok());
  ASSERT_TRUE(client.PutVertex(2, "Beta").ok());
  ASSERT_TRUE(client.PutEdge(1, "links", 2).ok());

  // All names must resolve to the authority's ids from any replica.
  for (auto& replica : remote_catalogs_) {
    for (const char* name : {"Alpha", "Beta", "links"}) {
      EXPECT_EQ(replica->Intern(name), authority_catalog_.Lookup(name)) << name;
    }
  }
}

// A coordinator whose catalog replica cannot reach the authority refuses
// the submit with Unavailable, and the message names the catalog call that
// failed and why, instead of a bare "cannot intern".
TEST_F(TcpClusterTest, SubmitWithoutAuthorityNamesTheFailedCatalogCall) {
  auto plan = GTravel(&authority_catalog_).v({0}).e("next").Build();
  ASSERT_TRUE(plan.ok());
  servers_[0]->Stop();  // the catalog authority; no replica has "type" yet

  GraphTrekClient client(transport_.get(), 6504, kServers);
  RunOptions opts;
  opts.coordinator = 1;
  opts.max_admission_retries = 0;  // an Unavailable submit is not retried
  auto result = client.Run(*plan, opts);
  ASSERT_FALSE(result.ok());
  const std::string msg = result.status().ToString();
  EXPECT_TRUE(result.status().IsUnavailable()) << msg;
  EXPECT_NE(msg.find("CatalogIntern of \"type\" to authority 0 failed: NotFound: no endpoint 0"),
            std::string::npos)
      << msg;
}

// --- catalog failures ----------------------------------------------------------

// A catalog replica that cannot reach its authority for some names: Intern
// returns kInvalidId for them, as RemoteCatalog does when its call fails.
// Every other name resolves through the shared authority catalog.
class RefusingCatalog final : public Catalog {
 public:
  RefusingCatalog(Catalog* authority, std::set<std::string> refused)
      : authority_(authority), refused_(std::move(refused)) {}

  Id Intern(const std::string& name) override {
    return refused_.count(name) != 0 ? kInvalidId : authority_->Intern(name);
  }
  Id Lookup(const std::string& name) const override { return authority_->Lookup(name); }
  Result<std::string> Name(Id id) const override { return authority_->Name(id); }

 private:
  Catalog* const authority_;
  const std::set<std::string> refused_;
};

// Servers with their own catalogs, injected the way TcpClusterTest injects
// RemoteCatalog, on the in-process fabric. A name a server's catalog cannot
// intern must end the travel or the mutation with an error, never in an
// empty answer or a record stored under no name.
class CatalogFailureTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kServers = 3;
  static constexpr VertexId kVertices = 30;

  // Starts the servers, server i's catalog refusing the names in
  // refused[i], and loads a `next` chain over kVertices type-A vertices.
  void Start(std::vector<std::set<std::string>> refused) {
    for (uint32_t i = 0; i < kServers; i++) {
      auto store = graph::GraphStore::Open(dir_.sub("s" + std::to_string(i)),
                                           graph::GraphStoreOptions{});
      ASSERT_TRUE(store.ok());
      stores_.push_back(std::move(*store));
      catalogs_.push_back(std::make_unique<RefusingCatalog>(&authority_, refused[i]));
      ServerConfig scfg;
      scfg.id = i;
      scfg.num_servers = kServers;
      servers_.push_back(std::make_unique<BackendServer>(
          scfg, stores_[i].get(), &partitioner_, catalogs_[i].get(), &transport_));
      ASSERT_TRUE(servers_.back()->Start().ok());
    }
    const auto type_a = authority_.Intern("A");
    const auto next = authority_.Intern("next");
    for (VertexId v = 0; v < kVertices; v++) {
      graph::VertexRecord rec;
      rec.id = v;
      rec.label = type_a;
      graph_.AddVertex(rec);
      if (v > 0) graph_.AddEdge(graph::EdgeRecord{v - 1, next, v, {}});
    }
    std::vector<graph::GraphStore*> raw;
    for (auto& store : stores_) raw.push_back(store.get());
    graph::GraphLoader loader(&partitioner_, std::move(raw));
    ASSERT_TRUE(graph_.LoadInto(&loader).ok());
    ASSERT_TRUE(loader.Finish().ok());
  }

  void TearDown() override {
    for (auto& s : servers_) s->Stop();
    transport_.Shutdown();
  }

  // Runs v().va("type", "A").e("next") on `mode`, coordinated by server 0.
  Result<TraversalResult> RunScan(EngineMode mode) {
    auto plan =
        GTravel(&authority_).v().va("type", FilterOp::kEq, {PropValue("A")}).e("next").Build();
    if (!plan.ok()) return plan.status();
    oracle_ = lang::EvaluatePlanOnRefGraph(*plan, graph_, authority_);
    GraphTrekClient client(&transport_, rpc::kClientIdBase, kServers);
    RunOptions opts;
    opts.mode = mode;
    opts.coordinator = 0;
    opts.max_admission_retries = 0;  // an Unavailable submit is not retried
    return client.Run(*plan, opts);
  }

  gt::testing::ScopedTempDir dir_;
  rpc::InProcTransport transport_{rpc::InProcConfig{}};
  graph::HashPartitioner partitioner_{kServers};
  Catalog authority_;
  graph::RefGraph graph_;
  std::vector<VertexId> oracle_;
  std::vector<std::unique_ptr<graph::GraphStore>> stores_;
  std::vector<std::unique_ptr<RefusingCatalog>> catalogs_;
  std::vector<std::unique_ptr<BackendServer>> servers_;
};

TEST_F(CatalogFailureTest, ControlAnswersWithEveryNameInterned) {
  Start({{}, {}, {}});
  for (EngineMode mode : {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = RunScan(mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode) << ": " << result.status().ToString();
    EXPECT_EQ(result->vids, oracle_) << EngineModeName(mode);
    EXPECT_EQ(result->vids.size(), kVertices - 1);
  }
}

// A participant that cannot intern "type" fails the travel instead of
// registering a plan whose type filters match nothing.
TEST_F(CatalogFailureTest, ParticipantWithoutTypeIdFailsTravel) {
  Start({{}, {"type"}, {}});
  for (EngineMode mode : {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = RunScan(mode);
    ASSERT_FALSE(result.ok()) << EngineModeName(mode);
    EXPECT_TRUE(result.status().IsUnavailable())
        << EngineModeName(mode) << ": " << result.status().ToString();
  }
}

// A coordinator that cannot intern "type" refuses the submit.
TEST_F(CatalogFailureTest, CoordinatorWithoutTypeIdRefusesSubmit) {
  Start({{"type"}, {}, {}});
  auto result = RunScan(EngineMode::kGraphTrek);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
}

// A participant that cannot intern the scan's anchor type fails the scan
// start instead of scanning an index no vertex is filed under.
TEST_F(CatalogFailureTest, ParticipantWithoutAnchorIdFailsScanStart) {
  Start({{}, {}, {"A"}});
  for (EngineMode mode : {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = RunScan(mode);
    ASSERT_FALSE(result.ok()) << EngineModeName(mode);
    EXPECT_TRUE(result.status().IsUnavailable())
        << EngineModeName(mode) << ": " << result.status().ToString();
  }
}

// A mutation whose label or property name cannot be interned is acked with
// the error and writes nothing.
TEST_F(CatalogFailureTest, MutationWithoutIdsWritesNothing) {
  const std::set<std::string> refused{"Lost", "lost_prop"};
  Start({refused, refused, refused});
  GraphTrekClient client(&transport_, rpc::kClientIdBase, kServers);
  const VertexId vid = 100;
  graph::GraphStore* owner = stores_[partitioner_.ServerFor(vid)].get();
  graph::VertexRecord rec;

  Status st = client.PutVertex(vid, "Lost");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("catalog"), std::string::npos) << st.ToString();
  EXPECT_TRUE(owner->GetVertex(vid, &rec).IsNotFound());

  st = client.PutVertex(vid, "A", {{"lost_prop", PropValue(int64_t{1})}});
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(owner->GetVertex(vid, &rec).IsNotFound());

  // Edge 0 -Lost-> 1: both endpoints exist, the label does not intern.
  graph::GraphStore* src_owner = stores_[partitioner_.ServerFor(0)].get();
  st = client.PutEdge(0, "Lost", 1);
  EXPECT_FALSE(st.ok());
  uint64_t edges = 0;
  ASSERT_TRUE(src_owner
                  ->ScanAllEdges(0,
                                 [&](graph::LabelId, VertexId, std::string_view) {
                                   edges++;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(edges, 1u);  // the loaded 0 -next-> 1 only

  // Names the catalog can intern still write.
  ASSERT_TRUE(client.PutVertex(vid, "A", {{"w", PropValue(int64_t{1})}}).ok());
  ASSERT_TRUE(owner->GetVertex(vid, &rec).ok());
  EXPECT_EQ(rec.label, authority_.Lookup("A"));
}

// A refused mutation reaches the client with its own status code, so a
// caller can tell the retryable Unavailable from a bug.
TEST_F(CatalogFailureTest, RefusedPutVertexReturnsUnavailable) {
  const std::set<std::string> refused{"Lost"};
  Start({refused, refused, refused});
  GraphTrekClient client(&transport_, rpc::kClientIdBase, kServers);
  const Status st = client.PutVertex(100, "Lost");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(st.ToString(), "Unavailable: catalog cannot intern a label or property");
}

}  // namespace
}  // namespace gt::engine
