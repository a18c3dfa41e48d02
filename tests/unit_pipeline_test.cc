// End-to-end guarantees of the generalized star/path/tree decomposition:
// mixed-unit planning (go_hops >= 2) must return exactly the brute-force
// R(Q,G) and agree with star-only planning on every small-world topology and
// k; a radius-2 cluster must answer byte-identically to the test-only
// reference pipeline (cloud_oracle.h) at 1/2/4 shards on path- and
// tree-shaped queries (which actually select deep units); and 1-vs-8-thread
// serving of deep units must be byte-identical (run under TSan in CI).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "cloud_oracle.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_shapes.h"
#include "match/subgraph_matcher.h"
#include "util/random.h"

namespace ppsm {
namespace {

constexpr std::pair<int, int> kEdges[6] = {{0, 1}, {0, 2}, {0, 3},
                                           {1, 2}, {1, 3}, {2, 3}};

std::shared_ptr<const Schema> SmallSchema() {
  auto schema = std::make_shared<Schema>();
  const auto t = schema->AddType("t").value();
  const auto a = schema->AddAttribute(t, "a").value();
  for (int i = 0; i < 4; ++i) {
    (void)schema->AddLabel(a, "l" + std::to_string(i)).value();
  }
  return schema;
}

AttributedGraph GraphFromMask(uint32_t mask,
                              std::shared_ptr<const Schema> schema) {
  GraphBuilder b(std::move(schema));
  for (int v = 0; v < 4; ++v) {
    b.AddVertex(0, {static_cast<LabelId>(v % 2), static_cast<LabelId>(
                                                     2 + (v / 2))});
  }
  for (int e = 0; e < 6; ++e) {
    if (mask & (1u << e)) {
      EXPECT_TRUE(b.AddEdge(kEdges[e].first, kEdges[e].second).ok());
    }
  }
  return b.Build().value();
}

// Every non-empty 4-vertex topology, queried against itself, for k in
// {2, 4}: the mixed-unit pipeline (radius-2 Go, deep units allowed), the
// star-only pipeline (same radius, depth capped at 1) and brute force must
// produce the same answer set.
TEST(UnitPipeline, MixedStarOnlyAndBruteForceAgreeOnSmallWorlds) {
  const auto schema = SmallSchema();
  for (const uint32_t k : {2u, 4u}) {
    for (uint32_t mask = 1; mask < 64; ++mask) {
      const AttributedGraph g = GraphFromMask(mask, schema);

      SystemConfig mixed_config;
      mixed_config.k = k;
      mixed_config.go_hops = 2;
      auto mixed = PpsmSystem::Setup(g, schema, mixed_config);
      ASSERT_TRUE(mixed.ok()) << "mask=" << mask << " k=" << k << ": "
                              << mixed.status();

      SystemConfig star_config = mixed_config;
      star_config.cloud.max_unit_depth = 1;  // Star-only planning.
      auto star_only = PpsmSystem::Setup(g, schema, star_config);
      ASSERT_TRUE(star_only.ok()) << "mask=" << mask << " k=" << k;

      QueryRequest request;
      request.pattern = g;  // Self-query: automorphisms are the answers.
      const QueryResponse from_mixed = mixed->Execute(request);
      const QueryResponse from_stars = star_only->Execute(request);
      ASSERT_TRUE(from_mixed.ok()) << "mask=" << mask << " k=" << k << ": "
                                   << from_mixed.status;
      ASSERT_TRUE(from_stars.ok()) << "mask=" << mask << " k=" << k;

      const MatchSet truth = FindSubgraphMatches(g, g);
      EXPECT_GE(truth.NumMatches(), 1u);  // Identity at least.
      EXPECT_TRUE(MatchSet::EquivalentUnordered(from_mixed.matches, truth))
          << "mask=" << mask << " k=" << k << " (mixed vs brute force)";
      EXPECT_TRUE(
          MatchSet::EquivalentUnordered(from_stars.matches, truth))
          << "mask=" << mask << " k=" << k << " (star-only vs brute force)";
    }
  }
}

struct DeepFixture {
  AttributedGraph graph;
  DataOwner owner;
  std::vector<std::vector<uint8_t>> requests;  // Path/tree-shaped Qo.
};

// A radius-2 owner plus a path/tree-heavy workload — the shapes whose
// optimal cover actually uses depth-2 units.
DeepFixture MakeDeepFixture(uint32_t k, uint64_t seed = 19) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  EXPECT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = k;
  options.go_hops = 2;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  EXPECT_TRUE(owner.ok());
  DeepFixture fx{*std::move(g), *std::move(owner), {}};
  Rng rng(seed);
  for (const QueryShape shape : {QueryShape::kPath, QueryShape::kTree}) {
    for (size_t edges = 3; edges <= 5; ++edges) {
      auto extracted = ExtractShapedQuery(fx.graph, shape, edges, rng);
      EXPECT_TRUE(extracted.ok());
      auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
      EXPECT_TRUE(request.ok());
      fx.requests.push_back(*std::move(request));
    }
  }
  return fx;
}

// The sharded §13 guarantee must survive the generalization: with a
// radius-2 Go and deep units in play, every shard count returns the
// byte-identical payload and the identical per-unit plan.
TEST(UnitPipeline, ShardsByteIdenticalWithDeepUnits) {
  DeepFixture fx = MakeDeepFixture(/*k=*/3);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ(server->hops(), 2u);

  bool saw_deep_unit = false;
  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    ClusterConfig config;
    config.num_shards = num_shards;
    auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();

    for (size_t i = 0; i < fx.requests.size(); ++i) {
      auto want = OracleServe(*server, fx.requests[i]);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = cluster->Serve(fx.requests[i]);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->response_payload, want->payload)
          << "shards=" << num_shards << " query=" << i;
      ASSERT_EQ(got->stats.num_stars, want->plan.units.size());
      ASSERT_EQ(got->stats.stars.size(), want->plan.units.size());
      for (size_t u = 0; u < got->stats.stars.size(); ++u) {
        const std::string kind = UnitKindName(want->plan.units[u].kind);
        EXPECT_EQ(got->stats.stars[u].kind, kind)
            << "shards=" << num_shards << " query=" << i << " unit=" << u;
        if (kind != "star") saw_deep_unit = true;
      }
    }
  }
  // The workload exists to exercise deep units; if the planner never picked
  // one, the test has silently degenerated to the star-only pipeline.
  EXPECT_TRUE(saw_deep_unit)
      << "no path/tree unit selected across the whole workload";
}

// Serial and 8-thread evaluation of deep units must produce byte-identical
// payloads (deterministic enumeration order regardless of parallel split).
TEST(UnitPipeline, OneVsEightThreadsByteIdenticalWithDeepUnits) {
  DeepFixture fx = MakeDeepFixture(/*k=*/3, /*seed=*/29);

  ShardConfig serial_config;
  serial_config.num_threads = 1;
  auto serial = CloudCluster::Host(fx.owner.upload_bytes(), ClusterConfig{},
                                   serial_config);
  ASSERT_TRUE(serial.ok());

  ShardConfig parallel_config;
  parallel_config.num_threads = 8;
  auto parallel = CloudCluster::Host(fx.owner.upload_bytes(),
                                     ClusterConfig{}, parallel_config);
  ASSERT_TRUE(parallel.ok());

  for (size_t i = 0; i < fx.requests.size(); ++i) {
    auto a = serial->Serve(fx.requests[i]);
    auto b = parallel->Serve(fx.requests[i]);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->response_payload, b->response_payload) << "query " << i;
  }
}

}  // namespace
}  // namespace ppsm
