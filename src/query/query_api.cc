#include "query/query_api.h"

#include <bit>
#include <utility>

#include "graph/serialize.h"

namespace ppsm {

namespace {

// Version byte of the request/response payload codecs (bumped on any layout
// change; decoders reject versions they do not know — the frames carrying
// these payloads already pin the outer wire version, this guards the inner
// layout independently so a same-frame-version peer with a stale payload
// codec still fails typed instead of mis-decoding).
constexpr uint8_t kRequestCodecVersion = 2;
constexpr uint8_t kResponseCodecVersion = 3;

// Flag bits of the stats block's last byte; any other bit is refused.
constexpr uint8_t kPlanCacheHitFlag = 1;
constexpr uint8_t kOverflowedFlag = 2;

void PutDouble(BinaryWriter& writer, double value) {
  writer.PutU64(std::bit_cast<uint64_t>(value));
}

Result<double> GetDouble(BinaryReader& reader) {
  PPSM_ASSIGN_OR_RETURN(const uint64_t bits, reader.GetU64());
  return std::bit_cast<double>(bits);
}

// The reply's stats block: CloudQueryStats' scalar fields in a fixed order.
// The per-unit, per-step and per-shard arrays stay on the server.
void PutStatsBlock(BinaryWriter& writer, const CloudQueryStats& stats) {
  writer.PutVarint(stats.query_id);
  writer.PutString(stats.timed_out_phase);
  for (const double ms : {stats.queue_wait_ms, stats.decomposition_ms,
                          stats.star_matching_ms, stats.join_ms,
                          stats.total_ms, stats.aux_build_ms}) {
    PutDouble(writer, ms);
  }
  writer.PutVarint(stats.aux_bytes);
  writer.PutVarint(stats.intersect_scalar);
  writer.PutVarint(stats.intersect_galloping);
  writer.PutVarint(stats.intersect_simd);
  writer.PutVarint(stats.num_stars);
  writer.PutVarint(stats.rs_size);
  writer.PutVarint(stats.result_rows);
  writer.PutVarint(stats.peak_join_rows);
  writer.PutU8((stats.plan_cache_hit ? kPlanCacheHitFlag : 0) |
               (stats.overflowed ? kOverflowedFlag : 0));
}

Result<CloudQueryStats> GetStatsBlock(BinaryReader& reader) {
  CloudQueryStats stats;
  PPSM_ASSIGN_OR_RETURN(stats.query_id, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.timed_out_phase, reader.GetString());
  for (double* ms : {&stats.queue_wait_ms, &stats.decomposition_ms,
                     &stats.star_matching_ms, &stats.join_ms,
                     &stats.total_ms, &stats.aux_build_ms}) {
    PPSM_ASSIGN_OR_RETURN(*ms, GetDouble(reader));
  }
  PPSM_ASSIGN_OR_RETURN(stats.aux_bytes, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.intersect_scalar, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.intersect_galloping, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.intersect_simd, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.num_stars, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.rs_size, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.result_rows, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(stats.peak_join_rows, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const uint8_t flags, reader.GetU8());
  if ((flags & ~(kPlanCacheHitFlag | kOverflowedFlag)) != 0) {
    return Status::InvalidArgument("unknown stats flag bits " +
                                   std::to_string(flags));
  }
  stats.plan_cache_hit = (flags & kPlanCacheHitFlag) != 0;
  stats.overflowed = (flags & kOverflowedFlag) != 0;
  return stats;
}

}  // namespace

QueryProfile ToQueryProfile(const CloudQueryStats& stats) {
  QueryProfile profile;
  profile.query_id = stats.query_id;
  profile.timed_out_phase = stats.timed_out_phase;
  profile.queue_wait_ms = stats.queue_wait_ms;
  profile.decomposition_ms = stats.decomposition_ms;
  profile.star_matching_ms = stats.star_matching_ms;
  profile.join_ms = stats.join_ms;
  profile.cloud_ms = stats.total_ms;
  profile.aux_build_ms = stats.aux_build_ms;
  profile.aux_bytes = stats.aux_bytes;
  profile.intersect_scalar = stats.intersect_scalar;
  profile.intersect_galloping = stats.intersect_galloping;
  profile.intersect_simd = stats.intersect_simd;
  profile.plan_cache_hit = stats.plan_cache_hit;
  profile.overflowed = stats.overflowed;
  profile.num_stars = stats.num_stars;
  profile.rs_size = stats.rs_size;
  profile.result_rows = stats.result_rows;
  profile.peak_join_rows = stats.peak_join_rows;
  profile.stars = stats.stars;
  profile.join_steps = stats.join_steps;
  profile.shards = stats.shards;
  return profile;
}

std::vector<uint8_t> SerializeQueryRequest(const QueryRequest& request) {
  BinaryWriter writer;
  writer.PutU8(kRequestCodecVersion);
  const std::vector<uint8_t> pattern = SerializeGraph(request.pattern);
  writer.PutVarint(pattern.size());
  writer.PutBytes(pattern);
  writer.PutVarint(request.deadline_ms);
  writer.PutString(request.tag);
  return writer.TakeBytes();
}

Result<QueryRequest> DeserializeQueryRequest(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kRequestCodecVersion) {
    return Status::InvalidArgument("unknown query-request codec version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t pattern_size, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const std::span<const uint8_t> pattern_bytes,
                        reader.GetBytes(pattern_size));
  QueryRequest request;
  PPSM_ASSIGN_OR_RETURN(request.pattern,
                        DeserializeGraph(pattern_bytes, std::move(schema)));
  PPSM_ASSIGN_OR_RETURN(request.deadline_ms, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(request.tag, reader.GetString());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query request");
  }
  return request;
}

std::vector<uint8_t> SerializeQueryResponse(const QueryResponse& response) {
  BinaryWriter writer;
  writer.PutU8(kResponseCodecVersion);
  writer.PutU8(static_cast<uint8_t>(response.status.code()));
  writer.PutString(response.status.message());
  writer.PutString(response.tag);
  const std::vector<uint8_t> matches = response.matches.Serialize();
  writer.PutVarint(matches.size());
  writer.PutBytes(matches);
  PutDouble(writer, response.network_ms);
  PutDouble(writer, response.client_ms);
  writer.PutVarint(response.client_candidates);
  PutDouble(writer, response.total_ms);
  writer.PutVarint(response.request_bytes);
  writer.PutVarint(response.response_bytes);
  PutStatsBlock(writer, response.cloud);
  return writer.TakeBytes();
}

Result<QueryResponse> DeserializeQueryResponse(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kResponseCodecVersion) {
    return Status::InvalidArgument("unknown query-response codec version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint8_t code, reader.GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(code));
  }
  PPSM_ASSIGN_OR_RETURN(const std::string message, reader.GetString());
  QueryResponse response;
  if (static_cast<StatusCode>(code) != StatusCode::kOk) {
    response.status = Status(static_cast<StatusCode>(code), message);
  }
  PPSM_ASSIGN_OR_RETURN(response.tag, reader.GetString());
  PPSM_ASSIGN_OR_RETURN(const uint64_t matches_size, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const std::span<const uint8_t> matches_bytes,
                        reader.GetBytes(matches_size));
  PPSM_ASSIGN_OR_RETURN(response.matches,
                        MatchSet::Deserialize(matches_bytes));
  PPSM_ASSIGN_OR_RETURN(response.network_ms, GetDouble(reader));
  PPSM_ASSIGN_OR_RETURN(response.client_ms, GetDouble(reader));
  PPSM_ASSIGN_OR_RETURN(response.client_candidates, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(response.total_ms, GetDouble(reader));
  PPSM_ASSIGN_OR_RETURN(response.request_bytes, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(response.response_bytes, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(response.cloud, GetStatsBlock(reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query response");
  }
  return response;
}

size_t EncodedErrorResponseBytes(const Status& status,
                                 const CloudQueryStats& stats) {
  QueryResponse reply;
  reply.status = status;
  reply.cloud = stats;
  return SerializeQueryResponse(reply).size();
}

}  // namespace ppsm
