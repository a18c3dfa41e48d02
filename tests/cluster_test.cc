// Cluster tests: a CloudCluster answers byte-identically to the test-only
// reference pipeline (cloud_oracle.h) at every shard count — the DESIGN.md
// §13 guarantee — and hosts the BAS baseline as its one slice; shards plan
// with the global statistics, shard uploads round-trip through the owner
// store and re-host to the same answers, the exchange meters count real
// bytes, sharded baselines are rejected, and the PpsmSystem facade serves
// the sharded path end to end — including concurrently (run under TSan in
// CI).

#include "cloud/cluster.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/messages.h"
#include "cloud_oracle.h"
#include "cloud/owner_store.h"
#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ppsm_cluster_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct Fixture {
  AttributedGraph graph;
  DataOwner owner;
  std::vector<std::vector<uint8_t>> requests;  // Serialized Qo workload.
};

Fixture MakeFixture(uint32_t k, size_t num_queries, uint64_t seed = 11) {
  auto g = GenerateDataset(DbpediaLike(0.01));
  EXPECT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = k;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  EXPECT_TRUE(owner.ok());
  Fixture fx{*std::move(g), *std::move(owner), {}};
  Rng rng(seed);
  for (size_t i = 0; i < num_queries; ++i) {
    auto extracted = ExtractQuery(fx.graph, 3 + i % 5, rng);
    EXPECT_TRUE(extracted.ok());
    auto request = fx.owner.AnonymizeQueryToRequest(extracted->query);
    EXPECT_TRUE(request.ok());
    fx.requests.push_back(*std::move(request));
  }
  return fx;
}

// The reply must be the oracle's: payload byte for byte, and the global
// plan the oracle's plan, unit for unit.
void ExpectMatchesOracle(const WireAnswer& got, const OracleAnswer& want,
                         uint32_t num_shards) {
  EXPECT_EQ(got.response_payload, want.payload) << "shards=" << num_shards;
  EXPECT_EQ(got.stats.num_stars, want.plan.units.size());
  EXPECT_EQ(got.stats.result_rows, want.rin.NumMatches());
  ASSERT_EQ(got.stats.stars.size(), want.units.size());
  size_t rs_size = 0;
  for (size_t u = 0; u < want.units.size(); ++u) {
    const UnitProfile& unit = got.stats.stars[u];
    EXPECT_EQ(unit.center, want.units[u].center);
    EXPECT_EQ(unit.candidates, want.units[u].num_candidates);
    EXPECT_EQ(unit.rows, want.units[u].matches.NumMatches());
    EXPECT_EQ(unit.estimated_rows, want.plan.estimates[u]);
    EXPECT_EQ(unit.kind, UnitKindName(want.plan.units[u].kind));
    rs_size += want.units[u].matches.NumMatches();
  }
  EXPECT_EQ(got.stats.rs_size, rs_size);
  // One shard's slice is the whole upload: no per-shard accounting.
  EXPECT_EQ(got.stats.shards.size(), num_shards == 1 ? 0u : num_shards);
}

TEST(Cluster, ByteIdenticalToUnshardedAtEveryShardCount) {
  // The acceptance bar of the sharded design: not equivalent-up-to-order
  // but BYTE-identical response payloads, for k=8 and a mixed workload.
  Fixture fx = MakeFixture(/*k=*/8, /*num_queries=*/6);
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();

  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    ClusterConfig config;
    config.num_shards = num_shards;
    auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    ASSERT_EQ(cluster->num_shards(), num_shards);
    EXPECT_EQ(cluster->k(), 8u);

    for (const auto& request : fx.requests) {
      auto want = OracleServe(*server, request);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = cluster->Serve(request);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectMatchesOracle(*got, *want, num_shards);
    }
  }
}

TEST(Cluster, OneShardSliceIsTheUploadItself) {
  // Why one shard hosts the upload without re-slicing it: Go already holds
  // exactly the vertices within `hops` of B1 and the edges within hops - 1,
  // so the one slice BuildShardUploads cuts is Go, id for id.
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  for (const uint32_t hops : {1u, 2u}) {
    DataOwnerOptions options;
    options.k = 3;
    options.go_hops = hops;
    auto owner = DataOwner::Create(*g, g->schema(), options);
    ASSERT_TRUE(owner.ok()) << owner.status();
    auto package = UploadPackage::Deserialize(owner->upload_bytes());
    ASSERT_TRUE(package.ok());
    auto plan = BuildShardUploads(*package, /*num_shards=*/1, /*seed=*/7);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->shards.size(), 1u);
    const ShardUpload& slice = plan->shards[0];
    EXPECT_EQ(slice.package.go->Serialize(), package->go->Serialize())
        << "hops=" << hops;
    for (size_t l = 0; l < slice.to_global.size(); ++l) {
      ASSERT_EQ(slice.to_global[l], l);
      EXPECT_EQ(slice.owned[l] != 0, l < package->go->num_b1);
    }
  }
}

TEST(Cluster, ShardsPlanWithTheGlobalStatistics) {
  // Every slice is hosted with the statistics of the whole upload — the
  // table the coordinator plans with — not a summary of its own biased B1.
  Fixture fx = MakeFixture(/*k=*/3, /*num_queries=*/0);
  auto whole = CloudCluster::Host(fx.owner.upload_bytes(), ClusterConfig{});
  ASSERT_TRUE(whole.ok()) << whole.status();
  const std::vector<uint8_t> want =
      SerializeGkStatistics(whole->statistics());
  for (const uint32_t num_shards : {2u, 4u}) {
    ClusterConfig config;
    config.num_shards = num_shards;
    auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    EXPECT_EQ(SerializeGkStatistics(cluster->statistics()), want);
    for (uint32_t s = 0; s < num_shards; ++s) {
      EXPECT_EQ(SerializeGkStatistics(cluster->shard(s).statistics()), want)
          << "shards=" << num_shards << " shard=" << s;
    }
  }
}

TEST(Cluster, HostsTheBaselineAsOneSlice) {
  // BAS ships all of Gk; one shard hosts it under the identity AVT and
  // answers exactly what the oracle computes over the same Gk.
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok()) << owner.status();
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok()) << server.status();
  auto cluster = CloudCluster::Host(owner->upload_bytes(), ClusterConfig{});
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  ASSERT_EQ(cluster->num_shards(), 1u);
  EXPECT_TRUE(cluster->shard(0).IsBaseline());
  EXPECT_EQ(cluster->k(), 1u);  // The identity AVT.

  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    auto extracted = ExtractQuery(*g, 2 + i, rng);
    ASSERT_TRUE(extracted.ok());
    auto request = owner->AnonymizeQueryToRequest(extracted->query);
    ASSERT_TRUE(request.ok());
    auto want = OracleServe(*server, *request);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = cluster->Serve(*request);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectMatchesOracle(*got, *want, 1);
  }
}

TEST(Cluster, ShardUploadsRoundTripThroughTheStore) {
  Fixture fx = MakeFixture(/*k=*/3, /*num_queries=*/4);
  auto plan = fx.owner.BuildShardUploads(/*num_shards=*/4, /*seed=*/7);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->shards.size(), 4u);
  EXPECT_EQ(plan->partitioning.num_parts, 4u);

  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveShardUploads(*plan, dir).ok());
  auto reloaded = LoadShardUploads(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();

  // The partitioner assignment reloads exactly — a cluster re-hosted from
  // the snapshot slices Go the same way the original did.
  EXPECT_EQ(reloaded->partitioning, plan->partitioning);
  ASSERT_EQ(reloaded->shards.size(), plan->shards.size());
  for (size_t s = 0; s < plan->shards.size(); ++s) {
    EXPECT_EQ(reloaded->shards[s].Serialize(), plan->shards[s].Serialize());
  }

  // Re-hosting the reloaded shards merges to the unsharded answers.
  auto server = CloudServer::Host(fx.owner.upload_bytes());
  ASSERT_TRUE(server.ok());
  ClusterConfig config;
  config.num_shards = 4;
  auto cluster = CloudCluster::HostShards(std::move(reloaded->shards), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  for (const auto& request : fx.requests) {
    auto want = OracleServe(*server, request);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = cluster->Serve(request);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->response_payload, want->payload);
  }
}

TEST(Cluster, ExchangeMetersCountShardTraffic) {
  Fixture fx = MakeFixture(/*k=*/2, /*num_queries=*/3);
  ClusterConfig config;
  config.num_shards = 3;
  auto cluster = CloudCluster::Host(fx.owner.upload_bytes(), config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  EXPECT_EQ(cluster->ExchangedBytes(), 0u);
  size_t profiled_bytes = 0;
  for (const auto& request : fx.requests) {
    auto answer = cluster->Serve(request);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_EQ(answer->stats.shards.size(), 3u);
    for (const ShardProfile& shard : answer->stats.shards) {
      if (shard.shard == 0) {
        // The coordinator is colocated with shard 0: no wire hop.
        EXPECT_EQ(shard.exchanged_bytes, 0u);
      } else {
        EXPECT_GT(shard.exchanged_bytes, 0u);
      }
      profiled_bytes += shard.exchanged_bytes;
    }
  }
  // The cluster-lifetime meter agrees with the per-query profiles.
  EXPECT_EQ(cluster->ExchangedBytes(), profiled_bytes);
}

TEST(Cluster, SystemFacadeServesShardedBatchesConcurrently) {
  // End to end through PpsmSystem (owner + channel + service + cluster),
  // with a concurrent batch — the TSan job runs this binary, so the
  // coordinator's merge/exchange path gets checked for data races.
  auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  SystemConfig unsharded_config;
  unsharded_config.k = 2;
  auto unsharded = PpsmSystem::Setup(*g, g->schema(), unsharded_config);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status();

  SystemConfig config = unsharded_config;
  config.num_shards = 4;
  auto sharded = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(sharded->cluster().num_shards(), 4u);
  EXPECT_EQ(unsharded->cluster().num_shards(), 1u);

  std::vector<QueryRequest> workload;
  Rng rng(23);
  for (int i = 0; i < 8; ++i) {
    auto extracted = ExtractQuery(*g, 3 + i % 4, rng);
    ASSERT_TRUE(extracted.ok());
    QueryRequest request;
    request.pattern = extracted->query;
    request.tag = "q" + std::to_string(i);
    workload.push_back(std::move(request));
  }

  const BatchResult want = unsharded->ExecuteBatch(workload, 4);
  const BatchResult got = sharded->ExecuteBatch(workload, 4);
  ASSERT_EQ(want.summary.succeeded, workload.size());
  ASSERT_EQ(got.summary.succeeded, workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_TRUE(got.responses[i].matches == want.responses[i].matches)
        << "query " << i;
    EXPECT_EQ(got.responses[i].tag, workload[i].tag);
    EXPECT_EQ(got.responses[i].cloud.shards.size(), 4u);
  }
}

TEST(Cluster, FacadeRejectsShardedBaseline) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 2;
  config.method = Method::kBas;
  config.num_shards = 2;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  EXPECT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kInvalidArgument);
}

TEST(Cluster, BaselineUploadsAreRejected) {
  auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());

  auto plan = owner->BuildShardUploads(/*num_shards=*/2, /*seed=*/7);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);

  ClusterConfig config;
  config.num_shards = 2;
  auto cluster = CloudCluster::Host(owner->upload_bytes(), config);
  EXPECT_FALSE(cluster.ok());
}

}  // namespace
}  // namespace ppsm
