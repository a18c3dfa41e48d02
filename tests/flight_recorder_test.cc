// Flight-recorder unit tests: ring wraparound (including under concurrent
// writers — the TSan CI job runs this binary), slow/failed-query capture
// triggers, query-id uniqueness, the QueryProfile JSONL writer's golden
// lines, and the cost-model calibration summary.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "obs/query_profile.h"

namespace ppsm {
namespace {

QueryProfile MakeProfile(uint64_t id, double cloud_ms = 1.0) {
  QueryProfile profile;
  profile.query_id = id;
  profile.cloud_ms = cloud_ms;
  return profile;
}

TEST(FlightRecorder, RingKeepsNewestAndCountsLifetime) {
  FlightRecorder recorder(/*capacity=*/4, /*slow_capacity=*/4);
  for (uint64_t id = 1; id <= 10; ++id) recorder.Record(MakeProfile(id));
  EXPECT_EQ(recorder.NumRecorded(), 10u);
  const std::vector<QueryProfile> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first, and the four newest survived the wrap.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].query_id, 7u + i);
  }
}

TEST(FlightRecorder, SetCapacityKeepsNewest) {
  FlightRecorder recorder(/*capacity=*/8, /*slow_capacity=*/4);
  for (uint64_t id = 1; id <= 8; ++id) recorder.Record(MakeProfile(id));
  recorder.SetCapacity(3);
  const std::vector<QueryProfile> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().query_id, 6u);
  EXPECT_EQ(recent.back().query_id, 8u);
}

TEST(FlightRecorder, SlowCaptureTriggers) {
  FlightRecorder recorder(/*capacity=*/16, /*slow_capacity=*/16);
  recorder.SetSlowThresholdMs(50.0);

  recorder.Record(MakeProfile(1, /*cloud_ms=*/1.0));  // Fast and ok: ring only.
  recorder.Record(MakeProfile(2, /*cloud_ms=*/80.0));  // Over the threshold.
  QueryProfile failed = MakeProfile(3, /*cloud_ms=*/1.0);
  failed.status = "deadline_exceeded";
  failed.timed_out_phase = "during star matching";
  recorder.Record(failed);  // Failed status: always captured.
  QueryProfile overflowed = MakeProfile(4, /*cloud_ms=*/1.0);
  overflowed.overflowed = true;
  overflowed.status = "resource_exhausted";
  recorder.Record(overflowed);  // Row cap: always captured.

  EXPECT_EQ(recorder.NumRecorded(), 4u);
  EXPECT_EQ(recorder.NumSlow(), 3u);
  const std::vector<QueryProfile> slow = recorder.SlowQueries();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].query_id, 2u);
  EXPECT_EQ(slow[1].query_id, 3u);
  EXPECT_EQ(slow[1].timed_out_phase, "during star matching");
  EXPECT_EQ(slow[2].query_id, 4u);
  EXPECT_TRUE(slow[2].overflowed);
  // The ring holds everything regardless.
  EXPECT_EQ(recorder.Recent().size(), 4u);
}

TEST(FlightRecorder, LatencyTriggerOffByDefault) {
  FlightRecorder recorder(/*capacity=*/8, /*slow_capacity=*/8);
  recorder.Record(MakeProfile(1, /*cloud_ms=*/1e6));  // Slow but ok.
  EXPECT_EQ(recorder.NumSlow(), 0u);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder recorder(/*capacity=*/8, /*slow_capacity=*/8);
  recorder.SetEnabled(false);
  recorder.Record(MakeProfile(1));
  EXPECT_EQ(recorder.NumRecorded(), 0u);
  EXPECT_TRUE(recorder.Recent().empty());
  recorder.SetEnabled(true);
  recorder.Record(MakeProfile(2));
  EXPECT_EQ(recorder.NumRecorded(), 1u);
}

TEST(FlightRecorder, AnnotateUpdatesRingAndSlowLog) {
  FlightRecorder recorder(/*capacity=*/8, /*slow_capacity=*/8);
  QueryProfile failed = MakeProfile(5);
  failed.status = "resource_exhausted";
  recorder.Record(failed);
  ASSERT_TRUE(recorder.Annotate(5, [](QueryProfile& profile) {
    profile.network_ms = 12.5;
    profile.total_ms = 20.0;
  }));
  EXPECT_EQ(recorder.Recent().back().network_ms, 12.5);
  EXPECT_EQ(recorder.SlowQueries().back().network_ms, 12.5);
  EXPECT_FALSE(recorder.Annotate(999, [](QueryProfile&) {}));
}

TEST(FlightRecorder, NextQueryIdIsUniqueAcrossThreads) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 500;
  std::vector<std::vector<uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      minted[t].reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        minted[t].push_back(FlightRecorder::NextQueryId());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<uint64_t> unique;
  for (const auto& ids : minted) {
    for (const uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(), kThreads * kPerThread);
}

// The TSan acceptance test: many writers wrapping a small ring while readers
// copy it. Correctness bar: no lost records in the lifetime counters and the
// ring always holds exactly `capacity` well-formed entries.
TEST(FlightRecorder, ConcurrentWraparoundKeepsCountsExact) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 400;
  FlightRecorder recorder(/*capacity=*/16, /*slow_capacity=*/8);
  recorder.SetSlowThresholdMs(0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        QueryProfile profile = MakeProfile(t * kPerThread + i + 1);
        if (i % 97 == 0) profile.status = "resource_exhausted";
        recorder.Record(std::move(profile));
        if (i % 64 == 0) {
          // Concurrent readers and annotators race the writers.
          const std::vector<QueryProfile> snapshot = recorder.Recent();
          EXPECT_LE(snapshot.size(), 16u);
          recorder.Annotate(t * kPerThread + i + 1,
                            [](QueryProfile& p) { p.total_ms += 1.0; });
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.NumRecorded(), kThreads * kPerThread);
  EXPECT_EQ(recorder.Recent().size(), 16u);
  // ceil(400/97) = 5 slow captures per thread.
  EXPECT_EQ(recorder.NumSlow(), kThreads * 5u);
  EXPECT_EQ(recorder.SlowQueries().size(), 8u);
}

QueryProfile FullProfile() {
  QueryProfile profile;
  profile.query_id = 42;
  profile.status = "resource_exhausted";
  profile.timed_out_phase = "before join";
  profile.queue_wait_ms = 0.25;
  profile.decomposition_ms = 1.5;
  profile.star_matching_ms = 2.75;
  profile.join_ms = 3.125;
  profile.cloud_ms = 7.625;
  profile.network_ms = 1.0625;
  profile.client_ms = 0.5;
  profile.total_ms = 9.1875;
  profile.aux_build_ms = 0.375;
  profile.aux_bytes = 2048;
  profile.intersect_scalar = 5;
  profile.intersect_galloping = 6;
  profile.intersect_simd = 8;
  profile.plan_cache_hit = true;
  profile.overflowed = true;
  profile.num_stars = 3;
  profile.rs_size = 1234;
  profile.result_rows = 99;
  profile.peak_join_rows = 512;
  profile.request_bytes = 321;
  profile.response_bytes = 4567;
  profile.stars = {{/*center=*/0, /*candidates=*/10, /*rows=*/7,
                    /*estimated_rows=*/8.5, /*truncated=*/false},
                   {/*center=*/2, /*candidates=*/20, /*rows=*/14,
                    /*estimated_rows=*/0.0, /*truncated=*/true,
                    /*skipped=*/true, /*kind=*/"path"}};
  profile.join_steps = {{/*step=*/1, /*star_index=*/0, /*star_center=*/2,
                         /*build_rows=*/14, /*output_rows=*/90,
                         /*injectivity_drops=*/3, /*estimated_rows=*/100.0,
                         /*overflow=*/true, /*kind=*/"tree"}};
  profile.shards = {{/*shard=*/1, /*candidates=*/4, /*rows=*/11,
                     /*match_ms=*/0.125, /*exchange_ms=*/0.0625,
                     /*exchanged_bytes=*/96}};
  return profile;
}

// The JSONL query log is write-only, so golden lines pin its format: every
// key of the profile and of its unit, join-step and shard records, in order.
TEST(QueryProfileJson, WritesEveryKeyInOrder) {
  EXPECT_EQ(QueryProfileToJson(FullProfile()),
            "{\"query_id\": 42, \"status\": \"resource_exhausted\", "
            "\"timed_out_phase\": \"before join\", "
            "\"queue_wait_ms\": 0.25, \"decomposition_ms\": 1.5, "
            "\"star_matching_ms\": 2.75, \"join_ms\": 3.125, "
            "\"cloud_ms\": 7.625, \"network_ms\": 1.0625, "
            "\"client_ms\": 0.5, \"total_ms\": 9.1875, "
            "\"aux_build_ms\": 0.375, \"aux_bytes\": 2048, "
            "\"intersect_scalar\": 5, \"intersect_galloping\": 6, "
            "\"intersect_simd\": 8, \"plan_cache_hit\": true, "
            "\"overflowed\": true, \"num_stars\": 3, \"rs_size\": 1234, "
            "\"result_rows\": 99, \"peak_join_rows\": 512, "
            "\"request_bytes\": 321, \"response_bytes\": 4567, "
            "\"stars\": ["
            "{\"center\": 0, \"kind\": \"star\", \"candidates\": 10, "
            "\"rows\": 7, \"estimated_rows\": 8.5, \"truncated\": false, "
            "\"skipped\": false}, "
            "{\"center\": 2, \"kind\": \"path\", \"candidates\": 20, "
            "\"rows\": 14, \"estimated_rows\": 0, \"truncated\": true, "
            "\"skipped\": true}], "
            "\"join_steps\": ["
            "{\"step\": 1, \"star_index\": 0, \"star_center\": 2, "
            "\"build_rows\": 14, \"output_rows\": 90, "
            "\"injectivity_drops\": 3, \"estimated_rows\": 100, "
            "\"overflow\": true, \"kind\": \"tree\"}], "
            "\"shards\": ["
            "{\"shard\": 1, \"candidates\": 4, \"rows\": 11, "
            "\"match_ms\": 0.125, \"exchange_ms\": 0.0625, "
            "\"exchanged_bytes\": 96}]}");
}

// A default profile: zeros, empty arrays, and no "shards" key without a
// sharded cluster.
TEST(QueryProfileJson, WritesDefaultProfile) {
  EXPECT_EQ(QueryProfileToJson(QueryProfile{}),
            "{\"query_id\": 0, \"status\": \"ok\", "
            "\"timed_out_phase\": \"\", \"queue_wait_ms\": 0, "
            "\"decomposition_ms\": 0, \"star_matching_ms\": 0, "
            "\"join_ms\": 0, \"cloud_ms\": 0, \"network_ms\": 0, "
            "\"client_ms\": 0, \"total_ms\": 0, \"aux_build_ms\": 0, "
            "\"aux_bytes\": 0, \"intersect_scalar\": 0, "
            "\"intersect_galloping\": 0, \"intersect_simd\": 0, "
            "\"plan_cache_hit\": false, \"overflowed\": false, "
            "\"num_stars\": 0, \"rs_size\": 0, \"result_rows\": 0, "
            "\"peak_join_rows\": 0, \"request_bytes\": 0, "
            "\"response_bytes\": 0, \"stars\": [], \"join_steps\": []}");
}

TEST(QueryProfileJson, EscapesStrings) {
  QueryProfile profile;
  profile.status = "weird \"quoted\"\nstatus\\";
  const std::string json = QueryProfileToJson(profile);
  EXPECT_NE(json.find("\"status\": \"weird \\\"quoted\\\"\\nstatus\\\\\", "),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "one record per line";
}

TEST(StatusCodeLabelTest, SnakeCasesCodes) {
  EXPECT_EQ(StatusCodeLabel(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeLabel(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(StatusCodeLabel(StatusCode::kResourceExhausted),
            "resource_exhausted");
  EXPECT_EQ(StatusCodeLabel(StatusCode::kInvalidArgument),
            "invalid_argument");
}

TEST(ExportQueryLog, JsonlLinesAreTaggedWriterRecords) {
  FlightRecorder recorder(/*capacity=*/8, /*slow_capacity=*/8);
  recorder.Record(FullProfile());  // Failed: lands in ring AND slow log.
  recorder.Record(MakeProfile(43));
  // The slow log first, then the ring, oldest first; each line is the
  // writer's record with its capture tag as the first key.
  const auto line = [](const std::string& capture,
                       const QueryProfile& profile) {
    return "{\"capture\": \"" + capture + "\", " +
           QueryProfileToJson(profile).substr(1) + "\n";
  };
  EXPECT_EQ(ExportQueryLogJsonl(recorder),
            line("slow", FullProfile()) + line("ring", FullProfile()) +
                line("ring", MakeProfile(43)));
}

TEST(Calibration, PercentilesFromKnownRatios) {
  // Stars with (estimate+1)/(actual+1) = 2.0 and joins with ratio 0.5.
  std::vector<QueryProfile> profiles;
  QueryProfile profile;
  for (int i = 0; i < 4; ++i) {
    UnitProfile star;
    star.rows = 9;
    star.estimated_rows = 19.0;  // (19+1)/(9+1) = 2.
    profile.stars.push_back(star);
    JoinStepProfile step;
    step.output_rows = 19;
    step.estimated_rows = 9.0;  // (9+1)/(19+1) = 0.5.
    profile.join_steps.push_back(step);
  }
  // Excluded samples: no estimate, truncated star, overflowed step.
  UnitProfile no_estimate;
  no_estimate.rows = 5;
  profile.stars.push_back(no_estimate);
  UnitProfile truncated;
  truncated.rows = 1;
  truncated.estimated_rows = 100.0;
  truncated.truncated = true;
  profile.stars.push_back(truncated);
  JoinStepProfile overflowed;
  overflowed.output_rows = 1;
  overflowed.estimated_rows = 100.0;
  overflowed.overflow = true;
  profile.join_steps.push_back(overflowed);
  profiles.push_back(profile);

  const CostModelCalibration calibration =
      SummarizeCostModelCalibration(profiles);
  EXPECT_EQ(calibration.star_samples, 4u);
  EXPECT_DOUBLE_EQ(calibration.star_ratio_p50, 2.0);
  EXPECT_DOUBLE_EQ(calibration.star_ratio_p99, 2.0);
  EXPECT_DOUBLE_EQ(calibration.star_mean_abs_log2, 1.0);
  EXPECT_EQ(calibration.join_samples, 4u);
  EXPECT_DOUBLE_EQ(calibration.join_ratio_p50, 0.5);
  EXPECT_DOUBLE_EQ(calibration.join_mean_abs_log2, 1.0);
}

TEST(Calibration, EmptyInputIsZeroed) {
  const CostModelCalibration calibration = SummarizeCostModelCalibration({});
  EXPECT_EQ(calibration.star_samples, 0u);
  EXPECT_EQ(calibration.join_samples, 0u);
  EXPECT_EQ(calibration.star_ratio_p50, 0.0);
  EXPECT_TRUE(calibration.per_kind.empty());
}

TEST(Calibration, PerKindBreakdownSplitsFamilies) {
  // Two star units at ratio 2.0, one path unit at ratio 4.0, plus a
  // truncated path that must not pollute the path family's percentiles.
  std::vector<QueryProfile> profiles;
  QueryProfile profile;
  for (int i = 0; i < 2; ++i) {
    UnitProfile star;
    star.rows = 9;
    star.estimated_rows = 19.0;  // (19+1)/(9+1) = 2.
    star.kind = "star";
    profile.stars.push_back(star);
  }
  UnitProfile path;
  path.rows = 4;
  path.estimated_rows = 19.0;  // (19+1)/(4+1) = 4.
  path.kind = "path";
  profile.stars.push_back(path);
  UnitProfile truncated_path;
  truncated_path.rows = 0;
  truncated_path.estimated_rows = 1000.0;
  truncated_path.truncated = true;
  truncated_path.kind = "path";
  profile.stars.push_back(truncated_path);
  profiles.push_back(profile);

  const CostModelCalibration calibration =
      SummarizeCostModelCalibration(profiles);
  // Aggregate covers every kind (truncated excluded).
  EXPECT_EQ(calibration.star_samples, 3u);
  ASSERT_EQ(calibration.per_kind.size(), 2u);
  const UnitKindCalibration& stars = calibration.per_kind[0];
  const UnitKindCalibration& paths = calibration.per_kind[1];
  EXPECT_EQ(stars.kind, "star");
  EXPECT_EQ(stars.samples, 2u);
  EXPECT_DOUBLE_EQ(stars.ratio_p50, 2.0);
  EXPECT_DOUBLE_EQ(stars.mean_abs_log2, 1.0);
  EXPECT_EQ(paths.kind, "path");
  EXPECT_EQ(paths.samples, 1u);
  EXPECT_DOUBLE_EQ(paths.ratio_p50, 4.0);
  EXPECT_DOUBLE_EQ(paths.ratio_p99, 4.0);
  EXPECT_DOUBLE_EQ(paths.mean_abs_log2, 2.0);
}

}  // namespace
}  // namespace ppsm
