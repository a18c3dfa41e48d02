#include "graph/query_shapes.h"

#include <gtest/gtest.h>

#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "match/subgraph_matcher.h"

namespace ppsm {
namespace {

struct ShapeCase {
  QueryShape shape;
  size_t num_edges;
};

class ShapedQueries : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ShapedQueries, ExtractsAndMatches) {
  const auto [shape, num_edges] = GetParam();
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  Rng rng(1234);
  for (int i = 0; i < 5; ++i) {
    auto extracted = ExtractShapedQuery(*g, shape, num_edges, rng);
    ASSERT_TRUE(extracted.ok()) << QueryShapeName(shape) << ": "
                                << extracted.status();
    const AttributedGraph& q = extracted->query;
    EXPECT_EQ(q.NumEdges(), num_edges);
    EXPECT_TRUE(IsConnected(q));

    // Shape invariants.
    switch (shape) {
      case QueryShape::kPath: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);
        size_t ones = 0;
        for (VertexId v = 0; v < q.NumVertices(); ++v) {
          EXPECT_LE(q.Degree(v), 2u);
          if (q.Degree(v) == 1) ++ones;
        }
        EXPECT_EQ(ones, 2u);
        break;
      }
      case QueryShape::kStar: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);
        EXPECT_EQ(q.MaxDegree(), num_edges);
        break;
      }
      case QueryShape::kCycle: {
        EXPECT_EQ(q.NumVertices(), num_edges);
        for (VertexId v = 0; v < q.NumVertices(); ++v) {
          EXPECT_EQ(q.Degree(v), 2u);
        }
        break;
      }
      case QueryShape::kTree: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);  // Acyclic + connected.
        break;
      }
      case QueryShape::kRandomWalk:
        break;
    }

    // The planted occurrence guarantees at least one match.
    EXPECT_GE(FindSubgraphMatches(q, *g).NumMatches(), 1u);
  }
}

// gtest prints a ShapeCase as its raw bytes, and ctest's test name carries
// that print. The cases live in a static array so the padding after `shape`
// is zero rather than stack garbage, which varied with the environment and
// made the registered names differ from one build to the next.
constexpr ShapeCase kShapeCases[] = {
    {QueryShape::kPath, 1},  {QueryShape::kPath, 5},
    {QueryShape::kStar, 3},  {QueryShape::kStar, 6},
    {QueryShape::kCycle, 3}, {QueryShape::kCycle, 4},
    {QueryShape::kTree, 6},  {QueryShape::kRandomWalk, 6},
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapedQueries, ::testing::ValuesIn(kShapeCases),
    [](const auto& info) {
      std::string name = QueryShapeName(info.param.shape);
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be identifiers.
      }
      return name + "_" + std::to_string(info.param.num_edges);
    });

TEST(ShapedQueries, RejectsDegenerateRequests) {
  const auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  Rng rng(5);
  EXPECT_FALSE(ExtractShapedQuery(*g, QueryShape::kPath, 0, rng).ok());
  EXPECT_FALSE(ExtractShapedQuery(*g, QueryShape::kCycle, 2, rng).ok());
  // A star wider than the max degree can never be carved out.
  EXPECT_FALSE(
      ExtractShapedQuery(*g, QueryShape::kStar, g->MaxDegree() + 1, rng)
          .ok());
}

TEST(ShapedQueries, EndToEndExactnessPerShape) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 3;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  Rng rng(77);
  for (const QueryShape shape :
       {QueryShape::kPath, QueryShape::kStar, QueryShape::kCycle,
        QueryShape::kTree}) {
    auto extracted = ExtractShapedQuery(*g, shape, 3, rng);
    ASSERT_TRUE(extracted.ok()) << QueryShapeName(shape);
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << QueryShapeName(shape);
    const MatchSet truth = FindSubgraphMatches(extracted->query, *g);
    EXPECT_TRUE(MatchSet::EquivalentUnordered(outcome.matches, truth))
        << QueryShapeName(shape);
  }
}

}  // namespace
}  // namespace ppsm
