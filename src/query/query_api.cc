#include "query/query_api.h"

#include <bit>
#include <utility>

#include "graph/serialize.h"
#include "obs/query_profile.h"

namespace ppsm {

namespace {

// Version byte of the request/response payload codecs (bumped on any layout
// change; decoders reject versions they do not know — the frames carrying
// these payloads already pin the outer wire version, this guards the inner
// layout independently so a same-frame-version peer with a stale payload
// codec still fails typed instead of mis-decoding).
constexpr uint8_t kRequestCodecVersion = 2;
constexpr uint8_t kResponseCodecVersion = 2;

void PutDouble(BinaryWriter& writer, double value) {
  writer.PutU64(std::bit_cast<uint64_t>(value));
}

Result<double> GetDouble(BinaryReader& reader) {
  PPSM_ASSIGN_OR_RETURN(const uint64_t bits, reader.GetU64());
  return std::bit_cast<double>(bits);
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

CloudQueryStats FromQueryProfile(const QueryProfile& profile) {
  CloudQueryStats stats;
  stats.query_id = profile.query_id;
  stats.timed_out_phase = profile.timed_out_phase;
  stats.queue_wait_ms = profile.queue_wait_ms;
  stats.decomposition_ms = profile.decomposition_ms;
  stats.star_matching_ms = profile.star_matching_ms;
  stats.join_ms = profile.join_ms;
  stats.total_ms = profile.cloud_ms;
  stats.aux_build_ms = profile.aux_build_ms;
  stats.aux_bytes = profile.aux_bytes;
  stats.intersect_scalar = profile.intersect_scalar;
  stats.intersect_galloping = profile.intersect_galloping;
  stats.intersect_simd = profile.intersect_simd;
  stats.plan_cache_hit = profile.plan_cache_hit;
  stats.overflowed = profile.overflowed;
  stats.num_stars = profile.num_stars;
  stats.rs_size = profile.rs_size;
  stats.result_rows = profile.result_rows;
  stats.peak_join_rows = profile.peak_join_rows;
  stats.stars = profile.stars;
  stats.join_steps = profile.join_steps;
  stats.shards = profile.shards;
  return stats;
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
  // The stats block rides as a QueryProfile JSON record — the exact schema
  // the flight recorder files and QueryProfileFromJson round-trips, so the
  // wire format never forks from the observability format.
  writer.PutString(QueryProfileToJson(ToQueryProfile(response.cloud)));
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
  PPSM_ASSIGN_OR_RETURN(const std::string profile_json, reader.GetString());
  PPSM_ASSIGN_OR_RETURN(const QueryProfile profile,
                        QueryProfileFromJson(profile_json));
  response.cloud = FromQueryProfile(profile);
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
