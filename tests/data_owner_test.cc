#include "cloud/data_owner.h"

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "graph/example_graphs.h"
#include "graph/generators.h"
#include "match/subgraph_matcher.h"

namespace ppsm {
namespace {

TEST(DataOwner, SetupStatsPopulated) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok()) << owner.status();
  const SetupStats& stats = owner->setup_stats();
  EXPECT_EQ(stats.gk_vertices, 8u);
  EXPECT_GE(stats.gk_edges, ex.graph.NumEdges());
  EXPECT_EQ(stats.noise_edges, stats.gk_edges - ex.graph.NumEdges());
  EXPECT_GT(stats.upload_bytes, 0u);
  EXPECT_GE(stats.total_ms, 0.0);
  EXPECT_LE(stats.go_edges, stats.gk_edges);
}

TEST(DataOwner, RejectsBadOptions) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 0;
  EXPECT_FALSE(DataOwner::Create(ex.graph, ex.schema, options).ok());
  options.k = 2;
  EXPECT_FALSE(DataOwner::Create(ex.graph, nullptr, options).ok());
}

TEST(DataOwner, AnonymizeQueryUsesGroups) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto qo = owner->AnonymizeQuery(ex.query);
  ASSERT_TRUE(qo.ok());
  EXPECT_EQ(qo->NumVertices(), ex.query.NumVertices());
  EXPECT_EQ(qo->NumEdges(), ex.query.NumEdges());
  for (VertexId v = 0; v < qo->NumVertices(); ++v) {
    // Same label count structure, but every label is now a group id.
    for (const LabelId g : qo->Labels(v)) {
      EXPECT_LT(g, owner->lct().NumGroups());
    }
    for (const LabelId l : ex.query.Labels(v)) {
      EXPECT_TRUE(qo->HasLabel(v, owner->lct().GroupOfLabel(l)));
    }
  }
}

TEST(DataOwner, ProcessResponseRejectsWrongArity) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  MatchSet wrong(3);  // Query has 5 vertices.
  EXPECT_FALSE(
      owner->ProcessResponse(ex.query, wrong.Serialize()).ok());
  EXPECT_FALSE(
      owner->ProcessResponse(ex.query, std::vector<uint8_t>{1}).ok());
}

TEST(DataOwner, FilterDropsNoiseAndFalsePositives) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());

  // Hand-craft a "response" containing one genuine match, one fabricated
  // tuple whose edge does not exist in G, and one with a duplicate vertex.
  const MatchSet truth = FindSubgraphMatches(ex.query, ex.graph);
  ASSERT_EQ(truth.NumMatches(), 2u);
  MatchSet response(ex.query.NumVertices());
  response.Append(truth.Get(0));
  std::vector<VertexId> fabricated(truth.Get(0).begin(), truth.Get(0).end());
  fabricated[1] = ex.p4;  // p4 does not work at c1 / graduate from s1.
  response.Append(fabricated);
  std::vector<VertexId> duplicated(truth.Get(0).begin(), truth.Get(0).end());
  duplicated[4] = duplicated[1];
  response.Append(duplicated);

  DataOwner::ClientStats stats;
  auto results =
      owner->ProcessResponse(ex.query, response.Serialize(), &stats);
  ASSERT_TRUE(results.ok()) << results.status();
  // The genuine match survives. Expansion may add its symmetric twin, but
  // that twin contains noise-edge pairs and must be filtered unless it is
  // also genuine — compare against ground truth subset.
  for (size_t r = 0; r < results->NumMatches(); ++r) {
    bool in_truth = false;
    for (size_t t = 0; t < truth.NumMatches(); ++t) {
      if (std::ranges::equal(results->Get(r), truth.Get(t))) in_truth = true;
    }
    EXPECT_TRUE(in_truth);
  }
  EXPECT_GE(results->NumMatches(), 1u);
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_EQ(stats.results, results->NumMatches());
}

TEST(DataOwner, BaselineSkipsExpansion) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  EXPECT_TRUE(owner->IsBaselineUpload());

  const MatchSet truth = FindSubgraphMatches(ex.query, ex.graph);
  MatchSet response(ex.query.NumVertices());
  response.Append(truth.Get(0));
  DataOwner::ClientStats stats;
  auto results =
      owner->ProcessResponse(ex.query, response.Serialize(), &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(stats.candidates, 1u);  // No automorphic expansion.
  EXPECT_EQ(results->NumMatches(), 1u);
}

TEST(DataOwner, EndToEndAgainstCloudServer) {
  // Owner + cloud round trip without the facade.
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 3;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  auto cloud = CloudCluster::Host(owner->upload_bytes(), ClusterConfig{});
  ASSERT_TRUE(cloud.ok());

  const RunningExample ex = MakeRunningExample();
  (void)ex;
  // Use a one-edge query over the generated schema.
  GraphBuilder qb(g->schema());
  const VertexId a = qb.AddVertex(
      g->PrimaryType(0),
      std::vector<LabelId>(g->Labels(0).begin(), g->Labels(0).end()));
  const VertexId nb = g->Neighbors(0)[0];
  const VertexId b = qb.AddVertex(
      g->PrimaryType(nb),
      std::vector<LabelId>(g->Labels(nb).begin(), g->Labels(nb).end()));
  ASSERT_TRUE(qb.AddEdge(a, b).ok());
  const AttributedGraph query = qb.Build().value();

  auto request = owner->AnonymizeQueryToRequest(query);
  ASSERT_TRUE(request.ok());
  auto answer = cloud->Serve(*request);
  ASSERT_TRUE(answer.ok());
  auto results = owner->ProcessResponse(query, answer->response_payload);
  ASSERT_TRUE(results.ok());
  const MatchSet truth = FindSubgraphMatches(query, *g);
  EXPECT_TRUE(MatchSet::EquivalentUnordered(*results, truth));
}

}  // namespace
}  // namespace ppsm
