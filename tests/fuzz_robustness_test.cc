// Robustness fuzzing (deterministic): every wire-format deserializer must
// survive arbitrary mutations of valid payloads — truncation, byte flips,
// random garbage — by returning an error, never by crashing or hanging.
// The cloud parses untrusted client bytes and the client parses cloud
// bytes, so this is a hard requirement.

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "cloud/messages.h"
#include "graph/example_graphs.h"
#include "graph/serialize.h"
#include "kauto/avt.h"
#include "match/match_set.h"
#include "net/wire.h"
#include "query/query_api.h"
#include "util/random.h"

namespace ppsm {
namespace {

using Decoder = std::function<bool(std::span<const uint8_t>)>;

/// Applies a battery of mutations to `payload`, feeding each mutant to
/// `decode` (which returns whether decoding claimed success). The decoder
/// must never crash; success on a mutant is fine (some mutations are
/// semantically harmless).
void FuzzDecoder(const std::vector<uint8_t>& payload, const Decoder& decode,
                 uint64_t seed) {
  Rng rng(seed);
  // Truncations at every prefix length (capped for big payloads).
  const size_t step = std::max<size_t>(1, payload.size() / 128);
  for (size_t len = 0; len < payload.size(); len += step) {
    std::vector<uint8_t> mutant(payload.begin(), payload.begin() + len);
    decode(mutant);
  }
  // Single-byte flips.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutant = payload;
    if (mutant.empty()) break;
    const size_t at = rng.Below(mutant.size());
    mutant[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
    decode(mutant);
  }
  // Multi-byte scrambles.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> mutant = payload;
    for (int i = 0; i < 8 && !mutant.empty(); ++i) {
      mutant[rng.Below(mutant.size())] =
          static_cast<uint8_t>(rng.Below(256));
    }
    decode(mutant);
  }
  // Pure garbage of assorted sizes.
  for (const size_t size : {1u, 7u, 64u, 1024u}) {
    std::vector<uint8_t> garbage(size);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Below(256));
    decode(garbage);
  }
  // Unmutated payload must still decode.
  EXPECT_TRUE(decode(payload));
}

TEST(FuzzRobustness, GraphDeserializer) {
  const RunningExample ex = MakeRunningExample();
  FuzzDecoder(SerializeGraph(ex.graph),
              [](std::span<const uint8_t> bytes) {
                return DeserializeGraph(bytes, nullptr).ok();
              },
              1001);
}

TEST(FuzzRobustness, SchemaDeserializer) {
  const RunningExample ex = MakeRunningExample();
  FuzzDecoder(SerializeSchema(*ex.schema),
              [](std::span<const uint8_t> bytes) {
                return DeserializeSchema(bytes).ok();
              },
              1002);
}

TEST(FuzzRobustness, AvtDeserializer) {
  Avt avt(3, 4);
  uint32_t v = 0;
  for (uint32_t b = 0; b < 3; ++b) {
    for (uint32_t r = 0; r < 4; ++r) avt.Place(r, b, v++);
  }
  FuzzDecoder(avt.Serialize(),
              [](std::span<const uint8_t> bytes) {
                return Avt::Deserialize(bytes).ok();
              },
              1003);
}

TEST(FuzzRobustness, MatchSetDeserializer) {
  MatchSet set(3);
  for (VertexId i = 0; i < 20; ++i) {
    set.Append(std::vector<VertexId>{i, i + 100, i + 10000});
  }
  FuzzDecoder(set.Serialize(),
              [](std::span<const uint8_t> bytes) {
                return MatchSet::Deserialize(bytes).ok();
              },
              1004);
}

TEST(FuzzRobustness, UploadPackageDeserializer) {
  const RunningExample ex = MakeRunningExample();
  for (const bool baseline : {false, true}) {
    DataOwnerOptions options;
    options.k = 2;
    options.baseline_upload = baseline;
    auto owner = DataOwner::Create(ex.graph, ex.schema, options);
    ASSERT_TRUE(owner.ok());
    FuzzDecoder(owner->upload_bytes(),
                [](std::span<const uint8_t> bytes) {
                  return UploadPackage::Deserialize(bytes).ok();
                },
                baseline ? 1006 : 1005);
  }
}

TEST(FuzzRobustness, LctDeserializer) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  const Schema& schema = *ex.schema;
  FuzzDecoder(owner->lct().Serialize(),
              [&schema](std::span<const uint8_t> bytes) {
                return Lct::Deserialize(bytes, schema).ok();
              },
              1007);
}

TEST(FuzzRobustness, CloudSurvivesMalformedQueries) {
  // End-to-end: the hosted cloud, at one shard and at two, fed mutated
  // query requests must return errors, never crash.
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto request = owner->AnonymizeQueryToRequest(ex.query);
  ASSERT_TRUE(request.ok());
  for (const uint32_t num_shards : {1u, 2u}) {
    ClusterConfig config;
    config.num_shards = num_shards;
    auto cloud = CloudCluster::Host(owner->upload_bytes(), config);
    ASSERT_TRUE(cloud.ok()) << cloud.status();
    FuzzDecoder(*request,
                [&cloud](std::span<const uint8_t> bytes) {
                  return cloud->Serve(bytes).ok();
                },
                1008);
  }
}

TEST(FuzzRobustness, OwnerSurvivesMalformedResponses) {
  // The owner decodes the cloud's Rin and maps every id through the AVT;
  // a mutated id outside Gk must come back as an error, for both uploads.
  const RunningExample ex = MakeRunningExample();
  for (const bool baseline : {false, true}) {
    DataOwnerOptions options;
    options.k = 2;
    options.baseline_upload = baseline;
    auto owner = DataOwner::Create(ex.graph, ex.schema, options);
    ASSERT_TRUE(owner.ok());
    auto cloud = CloudCluster::Host(owner->upload_bytes(), ClusterConfig{});
    ASSERT_TRUE(cloud.ok()) << cloud.status();
    auto request = owner->AnonymizeQueryToRequest(ex.query);
    ASSERT_TRUE(request.ok());
    auto answer = cloud->Serve(*request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_GT(answer->stats.result_rows, 0u);
    FuzzDecoder(answer->response_payload,
                [&](std::span<const uint8_t> bytes) {
                  return owner->ProcessResponse(ex.query, bytes).ok();
                },
                baseline ? 1021 : 1020);
  }
}

TEST(FuzzRobustness, QueryRequestDeserializer) {
  // The server decodes every client request; an empty tag is the last
  // field, so the reader also ends the buffer on a string.
  const RunningExample ex = MakeRunningExample();
  for (const std::string tag : {"", "replay-7"}) {
    QueryRequest request;
    request.pattern = ex.query;
    request.deadline_ms = 250;
    request.tag = tag;
    FuzzDecoder(SerializeQueryRequest(request),
                [&ex](std::span<const uint8_t> bytes) {
                  return DeserializeQueryRequest(bytes, ex.schema).ok();
                },
                tag.empty() ? 1022 : 1023);
  }
}

TEST(FuzzRobustness, QueryResponseDeserializer) {
  // The client decodes every reply: matches plus the binary stats block.
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto cloud = CloudCluster::Host(owner->upload_bytes(), ClusterConfig{});
  ASSERT_TRUE(cloud.ok()) << cloud.status();
  auto request = owner->AnonymizeQueryToRequest(ex.query);
  ASSERT_TRUE(request.ok());
  auto answer = cloud->Serve(*request);
  ASSERT_TRUE(answer.ok()) << answer.status();
  DataOwner::ClientStats client;
  auto matches =
      owner->ProcessResponse(ex.query, answer->response_payload, &client);
  ASSERT_TRUE(matches.ok()) << matches.status();
  QueryResponse response;
  response.matches = std::move(matches).value();
  response.cloud = answer->stats;
  response.client_ms = client.total_ms;
  response.client_candidates = client.candidates;
  response.request_bytes = request->size();
  response.response_bytes = answer->response_payload.size();
  response.tag = "replay-7";
  FuzzDecoder(SerializeQueryResponse(response),
              [](std::span<const uint8_t> bytes) {
                return DeserializeQueryResponse(bytes).ok();
              },
              1024);
}

TEST(FuzzRobustness, WireErrorPayloadDecoder) {
  // The client decodes every kError frame's payload. It has no failure
  // result of its own: an undecodable payload comes back as Internal, so
  // any other code counts as a decode. An empty message ends the buffer on
  // a string.
  for (const std::string message : {"", "admission queue full (6 waiting)"}) {
    FuzzDecoder(EncodeErrorPayload(Status::ResourceExhausted(message)),
                [](std::span<const uint8_t> bytes) {
                  return DecodeErrorPayload(bytes).code() !=
                         StatusCode::kInternal;
                },
                message.empty() ? 1025 : 1026);
  }
}

TEST(FuzzRobustness, WireVersionPayloadDecoder) {
  // The client decodes the snapshot version of every kReloadOk / kPong.
  FuzzDecoder(EncodeVersionPayload(0x0123456789abcdefull),
              [](std::span<const uint8_t> bytes) {
                return DecodeVersionPayload(bytes).ok();
              },
              1027);
}

TEST(FuzzRobustness, StarRowsDeserializer) {
  // The coordinator decodes every shard's exchange payload.
  std::vector<UnitMatches> units(2);
  units[0].center = 0;
  units[0].columns = {0, 1, 2};
  units[0].matches = MatchSet(3);
  units[1].center = 3;
  units[1].columns = {3, 1};
  units[1].matches = MatchSet(2);
  for (VertexId i = 0; i < 12; ++i) {
    units[0].matches.Append(std::vector<VertexId>{i, i + 40, i + 900});
    units[1].matches.Append(std::vector<VertexId>{i * 7, i + 40});
  }
  FuzzDecoder(SerializeStarRows(units),
              [](std::span<const uint8_t> bytes) {
                return DeserializeStarRows(bytes).ok();
              },
              1009);
}

TEST(FuzzRobustness, ShardUploadDeserializer) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto plan = owner->BuildShardUploads(/*num_shards=*/2, /*seed=*/7);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const ShardUpload& shard : plan->shards) {
    FuzzDecoder(shard.Serialize(),
                [](std::span<const uint8_t> bytes) {
                  return ShardUpload::Deserialize(bytes).ok();
                },
                1010 + shard.shard);
  }
}

}  // namespace
}  // namespace ppsm
