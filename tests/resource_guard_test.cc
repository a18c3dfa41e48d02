// Tests for the production-hardening additions on top of the paper's
// algorithms: the candidate-aware cardinality estimator, the row-cap
// resource guards in unit matching and the join, and the join's deadline
// cancellation.

#include <gtest/gtest.h>

#include <atomic>

#include "graph/generators.h"
#include "match/decomposition.h"
#include "match/result_join.h"
#include "match/statistics.h"
#include "match/unit_matcher.h"

namespace ppsm {
namespace {

/// A hub-and-spoke graph: vertex 0 has degree n-1, the spokes have degree 1
/// (plus a few spoke-spoke edges for non-degeneracy).
AttributedGraph HubGraph(size_t n) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(0, {0});
  for (size_t i = 1; i < n; ++i) {
    EXPECT_TRUE(b.AddEdge(0, static_cast<VertexId>(i)).ok());
  }
  for (size_t i = 1; i + 1 < std::min<size_t>(n, 8); ++i) {
    b.TryAddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return b.Build().value();
}

GkStatistics StatsFor(const AttributedGraph& g) {
  return ComputeGraphStatistics(g, 1, 1, {0});
}

TEST(CandidateAwareEstimator, ExactForZeroLeafStars) {
  const AttributedGraph g = HubGraph(50);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  const GkStatistics stats = StatsFor(g);
  GraphBuilder q;
  q.AddVertex(0, {0});
  const AttributedGraph qo = q.Build().value();
  // A star with no leaves matches exactly its candidate centers.
  EXPECT_NEAR(EstimateStarCardinalityCandidateAware(stats, g, index, qo, 0),
              static_cast<double>(g.NumVertices()), 1e-9);
}

TEST(CandidateAwareEstimator, ExactForOneUnconstrainedLeaf) {
  const AttributedGraph g = HubGraph(40);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  const GkStatistics stats = StatsFor(g);
  GraphBuilder q;
  q.AddVertex(0, {});
  q.AddVertex(0, {});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  const AttributedGraph qo = q.Build().value();
  // Exact |R(S)| = sum of degrees = 2|E|.
  const double exact = 2.0 * static_cast<double>(g.NumEdges());
  EXPECT_NEAR(EstimateStarCardinalityCandidateAware(stats, g, index, qo, 0),
              exact, 1e-6);
  // The paper's Expression 4 with the average degree cannot see the hub:
  // it predicts |V| * D, far below the true count's hub contribution.
  const double paper = EstimateStarCardinality(stats, qo, 0);
  EXPECT_NEAR(paper,
              static_cast<double>(g.NumVertices()) * stats.avg_degree, 1e-6);
}

TEST(CandidateAwareEstimator, SeesHubBlowupThatExpr4Misses) {
  const AttributedGraph g = HubGraph(200);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  const GkStatistics stats = StatsFor(g);
  // A 3-leaf star: rooted anywhere, the hub candidate dominates the true
  // cost with ~199*198*197 assignments.
  GraphBuilder q;
  for (int i = 0; i < 4; ++i) q.AddVertex(0, {});
  for (int i = 1; i < 4; ++i) ASSERT_TRUE(q.AddEdge(0, i).ok());
  const AttributedGraph qo = q.Build().value();
  const double aware =
      EstimateStarCardinalityCandidateAware(stats, g, index, qo, 0);
  const double paper = EstimateStarCardinality(stats, qo, 0);
  EXPECT_GT(aware, 1e6);          // Sees the hub.
  EXPECT_LT(paper, aware / 100);  // Expression 4 misses it by >= 100x.
}

TEST(CandidateAwareEstimator, DecompositionAvoidsHubStars) {
  // Query: hub-like center adjacent to 3 leaves, evaluated over the hub
  // graph. The candidate-aware ILP must cover the star's edges from the
  // leaf side, never rooting at the (explosive) center.
  const AttributedGraph g = HubGraph(200);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  const GkStatistics stats = StatsFor(g);
  GraphBuilder q;
  for (int i = 0; i < 4; ++i) q.AddVertex(0, {});
  for (int i = 1; i < 4; ++i) ASSERT_TRUE(q.AddEdge(0, i).ok());
  const AttributedGraph qo = q.Build().value();
  auto decomposition =
      DecomposeQueryUnits(qo, stats, g, index, /*max_depth=*/1);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_TRUE(IsValidUnitDecomposition(qo, decomposition->units));
  for (const QueryUnit& unit : decomposition->units) {
    EXPECT_NE(unit.root(), 0u) << "rooted a star at the explosive hub";
  }
}

TEST(StarMatcherGuard, TruncatesAtRowCap) {
  const AttributedGraph g = HubGraph(100);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  GraphBuilder q;
  for (int i = 0; i < 3; ++i) q.AddVertex(0, {});
  for (int i = 1; i < 3; ++i) ASSERT_TRUE(q.AddEdge(0, i).ok());
  const AttributedGraph qo = q.Build().value();
  const QueryUnit star = MakeStarUnit(qo, 0);
  const UnitMatches bounded = MatchUnit(g, index, qo, star, /*max_rows=*/50);
  EXPECT_TRUE(bounded.truncated);
  EXPECT_EQ(bounded.matches.NumMatches(), 50u);
  const UnitMatches unbounded = MatchUnit(g, index, qo, star);
  EXPECT_FALSE(unbounded.truncated);
  EXPECT_GT(unbounded.matches.NumMatches(), 50u);
}

TEST(StarMatcherGuard, CapAboveResultSizeIsHarmless) {
  const AttributedGraph g = HubGraph(30);
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  GraphBuilder q;
  q.AddVertex(0, {});
  q.AddVertex(0, {});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  const AttributedGraph qo = q.Build().value();
  const QueryUnit star = MakeStarUnit(qo, 0);
  const UnitMatches a = MatchUnit(g, index, qo, star);
  const UnitMatches b = MatchUnit(g, index, qo, star, 1u << 20);
  EXPECT_FALSE(b.truncated);
  EXPECT_TRUE(MatchSet::EquivalentUnordered(a.matches, b.matches));
}

TEST(JoinGuard, RejectsTruncatedStars) {
  Avt avt(1, 4);
  for (uint32_t r = 0; r < 4; ++r) avt.Place(r, 0, r);
  UnitMatches star;
  star.center = 0;
  star.columns = {0};
  star.matches = MatchSet(1);
  star.truncated = true;
  const auto result = JoinUnitMatches({star}, avt, 1, JoinOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// A single-vertex star binding query vertex `column` to each of 100 data
// vertices; two of them join as a 100 x 100 cross product.
UnitMatches HundredRowStar(VertexId column) {
  UnitMatches star;
  star.center = column;
  star.columns = {column};
  star.matches = MatchSet(1);
  for (VertexId v = 0; v < 100; ++v) {
    star.matches.Append(std::vector<VertexId>{v});
  }
  return star;
}

TEST(JoinGuard, RowCapStopsExplosiveJoin) {
  // Two disconnected single-vertex stars over 100 candidates each: the
  // cross product has 9900 rows; a 100-row cap must refuse.
  Avt avt(1, 100);
  for (uint32_t r = 0; r < 100; ++r) avt.Place(r, 0, r);
  const std::vector<UnitMatches> stars{HundredRowStar(0), HundredRowStar(1)};
  JoinOptions options;
  options.max_rows = 100;
  const auto capped = JoinUnitMatches(stars, avt, 2, options);
  EXPECT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  const auto uncapped = JoinUnitMatches(stars, avt, 2, JoinOptions{});
  ASSERT_TRUE(uncapped.ok());
  EXPECT_EQ(uncapped->NumMatches(), 9900u);  // Injectivity drops the diagonal.
}

TEST(JoinGuard, CancellationStopsTheJoin) {
  // The same cross product with a cancel hook that fires at its first poll
  // (the deadline a served query carries): the join must stop with
  // DeadlineExceeded before producing a single row.
  Avt avt(1, 100);
  for (uint32_t r = 0; r < 100; ++r) avt.Place(r, 0, r);
  const std::vector<UnitMatches> stars{HundredRowStar(0), HundredRowStar(1)};
  std::atomic<int> polls{0};
  JoinOptions options;
  options.cancelled = [&polls] {
    polls.fetch_add(1);
    return true;
  };
  JoinDiagnostics diagnostics;
  const auto cancelled = JoinUnitMatches(stars, avt, 2, options, &diagnostics);
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(polls.load(), 1);
  ASSERT_EQ(diagnostics.steps.size(), 2u);  // The anchor, then the step.
  EXPECT_EQ(diagnostics.steps.back().output_rows, 0u);
}

}  // namespace
}  // namespace ppsm
