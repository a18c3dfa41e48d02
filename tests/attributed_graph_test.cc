#include "graph/attributed_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>

#include "graph/example_graphs.h"
#include "graph/serialize.h"

namespace ppsm {
namespace {

AttributedGraph TrianglePlusTail() {
  GraphBuilder b;
  b.AddVertex(0, {0});
  b.AddVertex(0, {1});
  b.AddVertex(0, {0, 1});
  b.AddVertex(1, {});
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(0, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 3).ok());
  return b.Build().value();
}

TEST(GraphBuilder, BuildsAndCounts) {
  const AttributedGraph g = TrianglePlusTail();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.Degree(2), 3u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b;
  b.AddVertex(0, {});
  EXPECT_EQ(b.AddEdge(0, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(b.TryAddEdge(0, 0));
}

TEST(GraphBuilder, RejectsDuplicateEdge) {
  GraphBuilder b;
  b.AddVertex(0, {});
  b.AddVertex(0, {});
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_EQ(b.AddEdge(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(b.TryAddEdge(0, 1));
  EXPECT_EQ(b.NumEdges(), 1u);
}

TEST(GraphBuilder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b;
  b.AddVertex(0, {});
  EXPECT_EQ(b.AddEdge(0, 5).code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilder, RejectsVertexWithoutType) {
  GraphBuilder b;
  b.AddVertex(std::vector<VertexTypeId>{}, {});
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilder, SchemaValidationCatchesForeignLabel) {
  auto schema = std::make_shared<Schema>();
  const auto t0 = schema->AddType("A").value();
  const auto t1 = schema->AddType("B").value();
  const auto a0 = schema->AddAttribute(t0, "x").value();
  const auto l0 = schema->AddLabel(a0, "v").value();
  GraphBuilder good(schema);
  good.AddVertex(t0, {l0});
  EXPECT_TRUE(good.Build().ok());
  GraphBuilder bad(schema);
  bad.AddVertex(t1, {l0});  // Label belongs to type A, vertex is type B.
  EXPECT_FALSE(bad.Build().ok());
}

TEST(GraphBuilder, SortsAndDedupsVertexData) {
  GraphBuilder b;
  b.AddVertex(std::vector<VertexTypeId>{2, 0, 2}, {5, 1, 5, 3});
  const AttributedGraph g = b.Build().value();
  EXPECT_EQ(std::vector<VertexTypeId>(g.Types(0).begin(), g.Types(0).end()),
            (std::vector<VertexTypeId>{0, 2}));
  EXPECT_EQ(std::vector<LabelId>(g.Labels(0).begin(), g.Labels(0).end()),
            (std::vector<LabelId>{1, 3, 5}));
}

TEST(AttributedGraph, NeighborsSortedAndHasEdge) {
  const AttributedGraph g = TrianglePlusTail();
  const auto n2 = g.Neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n2.begin(), n2.end()),
            (std::vector<VertexId>{0, 1, 3}));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(AttributedGraph, ContainmentChecks) {
  const AttributedGraph g = TrianglePlusTail();
  EXPECT_TRUE(g.HasLabel(2, 0));
  EXPECT_TRUE(g.HasLabel(2, 1));
  EXPECT_FALSE(g.HasLabel(0, 1));
  const std::vector<LabelId> both{0, 1};
  EXPECT_TRUE(g.LabelsContainAll(2, both));
  EXPECT_FALSE(g.LabelsContainAll(0, both));
  const std::vector<LabelId> none;
  EXPECT_TRUE(g.LabelsContainAll(3, none));
  const std::vector<VertexTypeId> t1{1};
  EXPECT_TRUE(g.TypesContainAll(3, t1));
  EXPECT_FALSE(g.TypesContainAll(0, t1));
}

TEST(AttributedGraph, ForEachEdgeVisitsOncePerEdge) {
  const AttributedGraph g = TrianglePlusTail();
  size_t count = 0;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    EXPECT_LT(u, v);
    ++count;
  });
  EXPECT_EQ(count, g.NumEdges());
}

TEST(AttributedGraph, BuilderResetAfterBuild) {
  GraphBuilder b;
  b.AddVertex(0, {});
  ASSERT_TRUE(b.Build().ok());
  EXPECT_EQ(b.NumVertices(), 0u);
  EXPECT_EQ(b.NumEdges(), 0u);
}

TEST(GraphBuilder, HashDedupMatchesReferenceDedup) {
  // The builder's O(1) hash-probe dedup must accept/reject exactly the
  // same edge stream as an order-preserving reference dedup, and the
  // frozen graphs must be identical. Stream includes duplicates in both
  // orientations and repeated self-loop attempts.
  const size_t n = 50;
  std::mt19937_64 rng(123);
  std::vector<std::pair<VertexId, VertexId>> stream;
  for (int i = 0; i < 2000; ++i) {
    const auto u = static_cast<VertexId>(rng() % n);
    const auto v = static_cast<VertexId>(rng() % n);
    stream.emplace_back(u, v);
  }

  GraphBuilder fast;
  for (size_t v = 0; v < n; ++v) fast.AddVertex(0, {});
  std::set<std::pair<VertexId, VertexId>> reference;
  size_t reference_accepted = 0;
  for (const auto& [u, v] : stream) {
    const bool accepted = fast.TryAddEdge(u, v);
    const bool reference_accepts =
        u != v &&
        reference.insert({std::min(u, v), std::max(u, v)}).second;
    if (reference_accepts) ++reference_accepted;
    EXPECT_EQ(accepted, reference_accepts) << u << "-" << v;
    EXPECT_EQ(fast.HasEdge(u, v), u != v) << u << "-" << v;
  }
  EXPECT_EQ(fast.NumEdges(), reference_accepted);

  // Rebuild from the reference set alone; the two graphs must agree.
  GraphBuilder slow;
  for (size_t v = 0; v < n; ++v) slow.AddVertex(0, {});
  for (const auto& [u, v] : reference) slow.AddEdgeUnchecked(u, v);
  const AttributedGraph a = fast.Build().value();
  const AttributedGraph b = slow.Build().value();
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_TRUE(std::ranges::equal(a.Neighbors(v), b.Neighbors(v)))
        << "vertex " << v;
  }
}

TEST(Serialize, GraphRoundTrip) {
  const RunningExample ex = MakeRunningExample();
  const std::vector<uint8_t> bytes = SerializeGraph(ex.graph);
  auto restored = DeserializeGraph(bytes, ex.schema);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->NumVertices(), ex.graph.NumVertices());
  EXPECT_EQ(restored->NumEdges(), ex.graph.NumEdges());
  for (VertexId v = 0; v < ex.graph.NumVertices(); ++v) {
    EXPECT_EQ(std::vector<LabelId>(restored->Labels(v).begin(),
                                   restored->Labels(v).end()),
              std::vector<LabelId>(ex.graph.Labels(v).begin(),
                                   ex.graph.Labels(v).end()));
    EXPECT_EQ(std::vector<VertexId>(restored->Neighbors(v).begin(),
                                    restored->Neighbors(v).end()),
              std::vector<VertexId>(ex.graph.Neighbors(v).begin(),
                                    ex.graph.Neighbors(v).end()));
  }
}

TEST(Serialize, GraphBytesAreDeterministic) {
  const RunningExample ex = MakeRunningExample();
  EXPECT_EQ(SerializeGraph(ex.graph), SerializeGraph(ex.graph));
}

TEST(Serialize, RejectsGarbage) {
  const std::vector<uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_FALSE(DeserializeGraph(garbage, nullptr).ok());
  const std::vector<uint8_t> empty;
  EXPECT_FALSE(DeserializeGraph(empty, nullptr).ok());
}

TEST(Serialize, RejectsTruncation) {
  const RunningExample ex = MakeRunningExample();
  std::vector<uint8_t> bytes = SerializeGraph(ex.graph);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeGraph(bytes, nullptr).ok());
}

TEST(Serialize, SchemaRoundTrip) {
  const RunningExample ex = MakeRunningExample();
  const std::vector<uint8_t> bytes = SerializeSchema(*ex.schema);
  auto restored = DeserializeSchema(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->NumTypes(), ex.schema->NumTypes());
  EXPECT_EQ(restored->NumAttributes(), ex.schema->NumAttributes());
  EXPECT_EQ(restored->NumLabels(), ex.schema->NumLabels());
  for (LabelId l = 0; l < ex.schema->NumLabels(); ++l) {
    EXPECT_EQ(restored->LabelName(l), ex.schema->LabelName(l));
    EXPECT_EQ(restored->AttributeOfLabel(l), ex.schema->AttributeOfLabel(l));
  }
}

TEST(Serialize, VarintBoundaries) {
  BinaryWriter writer;
  const std::vector<uint64_t> values{0, 1, 127, 128, 16383, 16384,
                                     UINT32_MAX, UINT64_MAX};
  for (const uint64_t v : values) writer.PutVarint(v);
  BinaryReader reader(writer.bytes());
  for (const uint64_t v : values) {
    auto got = reader.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Serialize, EmptyStringEndsBuffer) {
  // The last field is an empty string, so the reader stands at the end of
  // the buffer when it reads it (a query request with an empty tag).
  BinaryWriter writer;
  writer.PutString("tag");
  writer.PutString("");
  BinaryReader reader(writer.bytes());
  auto first = reader.GetString();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "tag");
  auto last = reader.GetString();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), "");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_FALSE(reader.GetString().ok());
}

TEST(Serialize, SortedIdsRoundTrip) {
  BinaryWriter writer;
  const std::vector<uint32_t> ids{0, 3, 3, 10, 1000000};
  writer.PutSortedIds(ids);
  BinaryReader reader(writer.bytes());
  auto got = reader.GetSortedIds();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ids);
}

TEST(RunningExampleFixture, MatchesPaperFigure1) {
  const RunningExample ex = MakeRunningExample();
  EXPECT_EQ(ex.graph.NumVertices(), 8u);
  EXPECT_EQ(ex.graph.NumEdges(), 10u);
  EXPECT_EQ(ex.query.NumVertices(), 5u);
  EXPECT_EQ(ex.query.NumEdges(), 4u);
  EXPECT_TRUE(ex.graph.HasEdge(ex.p1, ex.p2));
  EXPECT_TRUE(ex.graph.HasEdge(ex.p3, ex.s1));
  EXPECT_FALSE(ex.graph.HasEdge(ex.p1, ex.p3));
  EXPECT_EQ(ex.graph.PrimaryType(ex.c1), ex.company_type);
}

}  // namespace
}  // namespace ppsm
