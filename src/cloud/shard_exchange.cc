#include "cloud/shard_exchange.h"

#include <algorithm>
#include <utility>

namespace ppsm {

Result<std::vector<UnitMatches>> ShipStarRows(
    const std::vector<UnitMatches>& stars, const SimulatedChannel& channel,
    const std::string& description, ExchangeStats* stats) {
  const std::vector<uint8_t> payload = SerializeStarRows(stars);
  const double transfer_ms = channel.Transfer(payload.size(), description);
  if (stats != nullptr) {
    stats->bytes = payload.size();
    stats->transfer_ms = transfer_ms;
  }
  return DeserializeStarRows(payload);
}

Result<std::vector<UnitMatches>> MergeShardStarMatches(
    std::vector<std::vector<UnitMatches>> shard_rows) {
  if (shard_rows.empty()) {
    return Status::InvalidArgument("merge needs at least one shard stream");
  }
  if (shard_rows.size() == 1) return std::move(shard_rows.front());
  const size_t num_stars = shard_rows.front().size();
  for (const std::vector<UnitMatches>& rows : shard_rows) {
    if (rows.size() != num_stars) {
      return Status::InvalidArgument(
          "shard streams disagree on the star count");
    }
  }

  std::vector<UnitMatches> merged;
  merged.reserve(num_stars);
  for (size_t star = 0; star < num_stars; ++star) {
    UnitMatches out;
    out.center = shard_rows.front()[star].center;
    out.columns = shard_rows.front()[star].columns;
    out.matches = MatchSet(out.columns.size());
    size_t total_rows = 0;
    for (const std::vector<UnitMatches>& rows : shard_rows) {
      const UnitMatches& part = rows[star];
      if (part.center != out.center || part.columns != out.columns) {
        return Status::InvalidArgument(
            "shard streams disagree on star layout");
      }
      out.num_candidates += part.num_candidates;
      out.truncated = out.truncated || part.truncated;
      total_rows += part.matches.NumMatches();
    }
    if (out.truncated) {
      // Incomplete inputs cannot be merged into an exact stream; the caller
      // refuses the query at the same boundary the unsharded server would.
      merged.push_back(std::move(out));
      continue;
    }

    // Run-copying k-way merge on match column 0 (the candidate center).
    // Shards own disjoint candidates, so the smallest front value always
    // belongs to exactly one stream; copying its whole run keeps that
    // candidate's rows in the shard's (= the global) enumeration order.
    out.matches.ReserveAdditional(total_rows);
    std::vector<size_t> cursor(shard_rows.size(), 0);
    for (;;) {
      size_t best = SIZE_MAX;
      VertexId best_center = 0;
      for (size_t s = 0; s < shard_rows.size(); ++s) {
        const MatchSet& rows = shard_rows[s][star].matches;
        if (cursor[s] >= rows.NumMatches()) continue;
        const VertexId center = rows.Get(cursor[s])[0];
        if (best == SIZE_MAX || center < best_center) {
          best = s;
          best_center = center;
        }
      }
      if (best == SIZE_MAX) break;
      const MatchSet& rows = shard_rows[best][star].matches;
      while (cursor[best] < rows.NumMatches() &&
             rows.Get(cursor[best])[0] == best_center) {
        out.matches.Append(rows.Get(cursor[best]));
        ++cursor[best];
      }
    }
    merged.push_back(std::move(out));
  }
  return merged;
}

}  // namespace ppsm
