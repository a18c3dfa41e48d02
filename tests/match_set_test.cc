#include "match/match_set.h"

#include <gtest/gtest.h>

#include "graph/serialize.h"

namespace ppsm {
namespace {

TEST(MatchSet, AppendAndGet) {
  MatchSet set(3);
  set.Append(std::vector<VertexId>{1, 2, 3});
  set.Append(std::vector<VertexId>{4, 5, 6});
  EXPECT_EQ(set.arity(), 3u);
  EXPECT_EQ(set.NumMatches(), 2u);
  const auto row = set.Get(1);
  EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()),
            (std::vector<VertexId>{4, 5, 6}));
}

TEST(MatchSet, EmptyBehaviour) {
  MatchSet set(4);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.NumMatches(), 0u);
  set.SortDedup();  // No-op on empty.
  EXPECT_TRUE(set.empty());
  MatchSet zero;
  EXPECT_EQ(zero.NumMatches(), 0u);
}

TEST(MatchSet, SortDedupOrdersAndRemovesDuplicates) {
  MatchSet set(2);
  set.Append(std::vector<VertexId>{5, 1});
  set.Append(std::vector<VertexId>{1, 9});
  set.Append(std::vector<VertexId>{5, 1});
  set.Append(std::vector<VertexId>{1, 2});
  set.SortDedup();
  ASSERT_EQ(set.NumMatches(), 3u);
  EXPECT_EQ(set.Get(0)[0], 1u);
  EXPECT_EQ(set.Get(0)[1], 2u);
  EXPECT_EQ(set.Get(1)[1], 9u);
  EXPECT_EQ(set.Get(2)[0], 5u);
}

TEST(MatchSet, HasDuplicateVertices) {
  EXPECT_TRUE(
      MatchSet::HasDuplicateVertices(std::vector<VertexId>{1, 2, 1}));
  EXPECT_FALSE(
      MatchSet::HasDuplicateVertices(std::vector<VertexId>{1, 2, 3}));
  EXPECT_FALSE(MatchSet::HasDuplicateVertices(std::vector<VertexId>{}));
  EXPECT_FALSE(MatchSet::HasDuplicateVertices(std::vector<VertexId>{7}));
}

TEST(MatchSet, SerializeRoundTrip) {
  MatchSet set(3);
  set.Append(std::vector<VertexId>{10, 0, 99999});
  set.Append(std::vector<VertexId>{7, 7, 7});
  const auto bytes = set.Serialize();
  auto restored = MatchSet::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(set == *restored);
}

TEST(MatchSet, SerializeEmpty) {
  MatchSet set(5);
  auto restored = MatchSet::Deserialize(set.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->arity(), 5u);
  EXPECT_EQ(restored->NumMatches(), 0u);
}

TEST(MatchSet, DeserializeRejectsGarbage) {
  EXPECT_FALSE(MatchSet::Deserialize(std::vector<uint8_t>{1, 2, 3}).ok());
  MatchSet set(2);
  set.Append(std::vector<VertexId>{1, 2});
  auto bytes = set.Serialize();
  bytes.pop_back();
  EXPECT_FALSE(MatchSet::Deserialize(bytes).ok());
}

TEST(MatchSet, DeserializeRejectsAbsurdCounts) {
  // Header claims 2^40 rows with a 3-byte payload.
  MatchSet set(1);
  auto bytes = set.Serialize();
  // Rebuild header by serializing a set then tampering the row count is
  // format-dependent; instead construct a tiny valid prefix and check the
  // guard via an honest oversized header: arity=1, rows=huge.
  std::vector<uint8_t> crafted(bytes.begin(), bytes.begin() + 5);  // Magic+arity.
  // Varint for a huge row count.
  for (int i = 0; i < 5; ++i) crafted.push_back(0xff);
  crafted.push_back(0x0f);
  EXPECT_FALSE(MatchSet::Deserialize(crafted).ok());

  // Headers whose arity * rows wraps to 0 or is 0: arity 2^32 with 2^32
  // rows, and arity 0 with 2^40 rows. Neither may decode as an empty set.
  const auto header = [](uint64_t arity, uint64_t rows) {
    BinaryWriter writer;
    writer.PutU32(0x3153544d);  // "MTS1"
    writer.PutVarint(arity);
    writer.PutVarint(rows);
    return writer.TakeBytes();
  };
  EXPECT_FALSE(MatchSet::Deserialize(header(1ull << 32, 1ull << 32)).ok());
  EXPECT_FALSE(MatchSet::Deserialize(header(0, 1ull << 40)).ok());
  // The honest empty headers still decode.
  EXPECT_TRUE(MatchSet::Deserialize(header(0, 0)).ok());
  EXPECT_TRUE(MatchSet::Deserialize(header(3, 0)).ok());

  // A valid set followed by trailing bytes: every caller passes an exactly
  // sized span, so the extra bytes are corruption.
  MatchSet valid(2);
  valid.Append(std::vector<VertexId>{1, 2});
  std::vector<uint8_t> padded = valid.Serialize();
  padded.push_back(0x00);
  padded.push_back(0x00);
  EXPECT_FALSE(MatchSet::Deserialize(padded).ok());
}

TEST(MatchSet, EquivalentUnorderedIgnoresRowOrder) {
  MatchSet a(2), b(2);
  a.Append(std::vector<VertexId>{1, 2});
  a.Append(std::vector<VertexId>{3, 4});
  b.Append(std::vector<VertexId>{3, 4});
  b.Append(std::vector<VertexId>{1, 2});
  EXPECT_TRUE(MatchSet::EquivalentUnordered(a, b));
  b.Append(std::vector<VertexId>{9, 9});
  EXPECT_FALSE(MatchSet::EquivalentUnordered(a, b));
  MatchSet c(3);
  EXPECT_FALSE(MatchSet::EquivalentUnordered(a, c));  // Arity mismatch.
}

}  // namespace
}  // namespace ppsm
