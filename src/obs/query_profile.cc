#include "obs/query_profile.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "obs/json_util.h"

namespace ppsm {

namespace {

void AppendField(std::string* out, const char* key, double value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(JsonNumber(value));
}

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(std::to_string(value));
}

void AppendField(std::string* out, const char* key, bool value, bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(value ? "true" : "false");
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) out->append(", ");
  *first = false;
  out->push_back('"');
  out->append(key);
  out->append("\": ");
  out->append(JsonString(value));
}

}  // namespace

std::string StatusCodeLabel(StatusCode code) {
  std::string label;
  bool prev_lower = false;
  for (const char c : std::string_view(StatusCodeToString(code))) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      // Word boundary only after a lowercase run, so "OK" stays "ok".
      if (prev_lower) label.push_back('_');
      label.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      prev_lower = false;
    } else {
      label.push_back(c);
      prev_lower = true;
    }
  }
  return label;
}

namespace {

std::string StarToJson(const UnitProfile& star) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "center", static_cast<uint64_t>(star.center), &first);
  AppendField(&out, "kind", star.kind, &first);
  AppendField(&out, "candidates", star.candidates, &first);
  AppendField(&out, "rows", star.rows, &first);
  AppendField(&out, "estimated_rows", star.estimated_rows, &first);
  AppendField(&out, "truncated", star.truncated, &first);
  AppendField(&out, "skipped", star.skipped, &first);
  out.push_back('}');
  return out;
}

std::string JoinStepToJson(const JoinStepProfile& step) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "step", static_cast<uint64_t>(step.step), &first);
  AppendField(&out, "star_index", static_cast<uint64_t>(step.star_index),
              &first);
  AppendField(&out, "star_center", static_cast<uint64_t>(step.star_center),
              &first);
  AppendField(&out, "build_rows", step.build_rows, &first);
  AppendField(&out, "output_rows", step.output_rows, &first);
  AppendField(&out, "injectivity_drops", step.injectivity_drops, &first);
  AppendField(&out, "estimated_rows", step.estimated_rows, &first);
  AppendField(&out, "overflow", step.overflow, &first);
  AppendField(&out, "kind", step.kind, &first);
  out.push_back('}');
  return out;
}

std::string ShardToJson(const ShardProfile& shard) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "shard", static_cast<uint64_t>(shard.shard), &first);
  AppendField(&out, "candidates", shard.candidates, &first);
  AppendField(&out, "rows", shard.rows, &first);
  AppendField(&out, "match_ms", shard.match_ms, &first);
  AppendField(&out, "exchange_ms", shard.exchange_ms, &first);
  AppendField(&out, "exchanged_bytes", shard.exchanged_bytes, &first);
  out.push_back('}');
  return out;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::string QueryProfileToJson(const QueryProfile& profile) {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "query_id", profile.query_id, &first);
  AppendField(&out, "status", profile.status, &first);
  AppendField(&out, "timed_out_phase", profile.timed_out_phase, &first);
  AppendField(&out, "queue_wait_ms", profile.queue_wait_ms, &first);
  AppendField(&out, "decomposition_ms", profile.decomposition_ms, &first);
  AppendField(&out, "star_matching_ms", profile.star_matching_ms, &first);
  AppendField(&out, "join_ms", profile.join_ms, &first);
  AppendField(&out, "cloud_ms", profile.cloud_ms, &first);
  AppendField(&out, "network_ms", profile.network_ms, &first);
  AppendField(&out, "client_ms", profile.client_ms, &first);
  AppendField(&out, "total_ms", profile.total_ms, &first);
  AppendField(&out, "aux_build_ms", profile.aux_build_ms, &first);
  AppendField(&out, "aux_bytes", profile.aux_bytes, &first);
  AppendField(&out, "intersect_scalar", profile.intersect_scalar, &first);
  AppendField(&out, "intersect_galloping", profile.intersect_galloping,
              &first);
  AppendField(&out, "intersect_simd", profile.intersect_simd, &first);
  AppendField(&out, "plan_cache_hit", profile.plan_cache_hit, &first);
  AppendField(&out, "overflowed", profile.overflowed, &first);
  AppendField(&out, "num_stars", profile.num_stars, &first);
  AppendField(&out, "rs_size", profile.rs_size, &first);
  AppendField(&out, "result_rows", profile.result_rows, &first);
  AppendField(&out, "peak_join_rows", profile.peak_join_rows, &first);
  AppendField(&out, "request_bytes", profile.request_bytes, &first);
  AppendField(&out, "response_bytes", profile.response_bytes, &first);
  out.append(", \"stars\": [");
  for (size_t i = 0; i < profile.stars.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(StarToJson(profile.stars[i]));
  }
  out.append("], \"join_steps\": [");
  for (size_t i = 0; i < profile.join_steps.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(JoinStepToJson(profile.join_steps[i]));
  }
  out.push_back(']');
  // Omitted when empty (the one-shard common case) so the JSONL record
  // doesn't grow for deployments without a sharded cluster.
  if (!profile.shards.empty()) {
    out.append(", \"shards\": [");
    for (size_t i = 0; i < profile.shards.size(); ++i) {
      if (i > 0) out.append(", ");
      out.append(ShardToJson(profile.shards[i]));
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

CostModelCalibration SummarizeCostModelCalibration(
    std::span<const QueryProfile> profiles) {
  CostModelCalibration calibration;
  std::vector<double> star_ratios;
  std::vector<double> join_ratios;
  // Per-kind sample buckets in reporting order; unknown kind strings fold
  // into a trailing bucket so a forward-compatible log never drops samples.
  const char* kKinds[] = {"star", "path", "tree", "unknown"};
  std::vector<double> kind_ratios[4];
  for (const QueryProfile& profile : profiles) {
    for (const UnitProfile& star : profile.stars) {
      // Truncated units have max_rows-clipped actuals: excluded — the cap,
      // not the model, decided the row count.
      if (star.truncated || star.estimated_rows <= 0.0) continue;
      const double ratio = (star.estimated_rows + 1.0) /
                           (static_cast<double>(star.rows) + 1.0);
      star_ratios.push_back(ratio);
      size_t bucket = 3;
      for (size_t i = 0; i < 3; ++i) {
        if (star.kind == kKinds[i]) bucket = i;
      }
      kind_ratios[bucket].push_back(ratio);
    }
    for (const JoinStepProfile& step : profile.join_steps) {
      if (step.overflow || step.estimated_rows <= 0.0) continue;
      join_ratios.push_back((step.estimated_rows + 1.0) /
                            (static_cast<double>(step.output_rows) + 1.0));
    }
  }
  std::sort(star_ratios.begin(), star_ratios.end());
  std::sort(join_ratios.begin(), join_ratios.end());
  calibration.star_samples = star_ratios.size();
  calibration.join_samples = join_ratios.size();
  calibration.star_ratio_p50 = Percentile(star_ratios, 50.0);
  calibration.star_ratio_p90 = Percentile(star_ratios, 90.0);
  calibration.star_ratio_p99 = Percentile(star_ratios, 99.0);
  calibration.join_ratio_p50 = Percentile(join_ratios, 50.0);
  calibration.join_ratio_p90 = Percentile(join_ratios, 90.0);
  calibration.join_ratio_p99 = Percentile(join_ratios, 99.0);
  for (const double r : star_ratios) {
    calibration.star_mean_abs_log2 += std::abs(std::log2(r));
  }
  for (const double r : join_ratios) {
    calibration.join_mean_abs_log2 += std::abs(std::log2(r));
  }
  if (!star_ratios.empty()) {
    calibration.star_mean_abs_log2 /=
        static_cast<double>(star_ratios.size());
  }
  if (!join_ratios.empty()) {
    calibration.join_mean_abs_log2 /=
        static_cast<double>(join_ratios.size());
  }
  for (size_t b = 0; b < 4; ++b) {
    std::vector<double>& ratios = kind_ratios[b];
    if (ratios.empty()) continue;
    std::sort(ratios.begin(), ratios.end());
    UnitKindCalibration kind;
    kind.kind = kKinds[b];
    kind.samples = ratios.size();
    kind.ratio_p50 = Percentile(ratios, 50.0);
    kind.ratio_p90 = Percentile(ratios, 90.0);
    kind.ratio_p99 = Percentile(ratios, 99.0);
    for (const double r : ratios) kind.mean_abs_log2 += std::abs(std::log2(r));
    kind.mean_abs_log2 /= static_cast<double>(ratios.size());
    calibration.per_kind.push_back(std::move(kind));
  }
  return calibration;
}

}  // namespace ppsm
