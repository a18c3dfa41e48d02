#include "cloud/owner_store.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "cloud/cluster.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ppsm_owner_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(OwnerStore, SaveLoadRoundTripsUploadBytes) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 3;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());

  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveDataOwner(*owner, dir).ok());
  auto restored = LoadDataOwner(dir);
  ASSERT_TRUE(restored.ok()) << restored.status();

  // The restored owner publishes byte-identical uploads — critical: a
  // different re-anonymization would weaken the privacy guarantee.
  EXPECT_EQ(restored->upload_bytes(), owner->upload_bytes());
  EXPECT_EQ(restored->k(), owner->k());
  EXPECT_FALSE(restored->IsBaselineUpload());
  EXPECT_EQ(restored->kag().NumNoiseEdges(), owner->kag().NumNoiseEdges());
}

TEST(OwnerStore, RestoredOwnerAnswersQueriesIdentically) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  const std::string dir = TempDir("queries");
  ASSERT_TRUE(SaveDataOwner(*owner, dir).ok());
  auto restored = LoadDataOwner(dir);
  ASSERT_TRUE(restored.ok());

  auto cloud = CloudCluster::Host(restored->upload_bytes(), ClusterConfig{});
  ASSERT_TRUE(cloud.ok());
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    auto extracted = ExtractQuery(*g, 4, rng);
    ASSERT_TRUE(extracted.ok());
    auto request_a = owner->AnonymizeQueryToRequest(extracted->query);
    auto request_b = restored->AnonymizeQueryToRequest(extracted->query);
    ASSERT_TRUE(request_a.ok());
    ASSERT_TRUE(request_b.ok());
    EXPECT_EQ(*request_a, *request_b);  // Same LCT -> same Qo.
    auto answer = cloud->Serve(*request_b);
    ASSERT_TRUE(answer.ok());
    auto results_a =
        owner->ProcessResponse(extracted->query, answer->response_payload);
    auto results_b = restored->ProcessResponse(extracted->query,
                                               answer->response_payload);
    ASSERT_TRUE(results_a.ok());
    ASSERT_TRUE(results_b.ok());
    EXPECT_TRUE(*results_a == *results_b);
  }
}

TEST(OwnerStore, BaselineFlagPersisted) {
  const auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  options.baseline_upload = true;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  const std::string dir = TempDir("baseline");
  ASSERT_TRUE(SaveDataOwner(*owner, dir).ok());
  auto restored = LoadDataOwner(dir);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->IsBaselineUpload());
  EXPECT_EQ(restored->upload_bytes(), owner->upload_bytes());
}

TEST(OwnerStore, LoadRejectsMissingOrTamperedFiles) {
  EXPECT_FALSE(LoadDataOwner("/definitely/not/a/dir").ok());

  const auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(*g, g->schema(), options);
  ASSERT_TRUE(owner.ok());
  const std::string dir = TempDir("tampered");
  ASSERT_TRUE(SaveDataOwner(*owner, dir).ok());

  // Remove one artifact.
  std::filesystem::remove(dir + "/lct.bin");
  EXPECT_FALSE(LoadDataOwner(dir).ok());
}

TEST(OwnerStore, RestoreRejectsInconsistentParts) {
  const auto g1 = GenerateDataset(DbpediaLike(0.005));
  const auto g2 = GenerateDataset(NotreDameLike(0.005));
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(*g1, g1->schema(), options);
  ASSERT_TRUE(owner.ok());
  // Mix g2 (wrong graph) with g1's artifacts.
  auto mixed = DataOwner::Restore(*g2, g1->schema(), owner->lct(),
                                  owner->kag(), false);
  EXPECT_FALSE(mixed.ok());
}

}  // namespace
}  // namespace ppsm
