// Test-only reference evaluation of the cloud's query pipeline (paper
// §4.2.1): the four library stages run back to back over one hosted
// CloudServer — no plan cache, shards, exchange, deadline, row cap or
// metrics. CloudCluster::Serve must return its payload byte for byte at
// every shard count (DESIGN.md §13); the tests and bench_sharding compare
// against it.

#ifndef PPSM_TESTS_CLOUD_ORACLE_H_
#define PPSM_TESTS_CLOUD_ORACLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cloud/cloud_server.h"
#include "cloud/messages.h"
#include "match/decomposition.h"
#include "match/result_join.h"
#include "match/unit_matcher.h"

namespace ppsm {

/// What the reference evaluation produced, stage by stage.
struct OracleAnswer {
  UnitDecomposition plan;
  /// Per-unit matches, translated to Gk ids.
  std::vector<UnitMatches> units;
  /// Rin (R(Qo,Gk) for the BAS baseline) and its wire payload.
  MatchSet rin;
  std::vector<uint8_t> payload;
};

/// DecomposeQueryUnits -> MatchUnits -> to_gk -> JoinUnitMatches over the
/// whole upload `server` hosts, serially.
inline Result<OracleAnswer> OracleServe(const CloudServer& server,
                                        std::span<const uint8_t> qo_bytes) {
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph qo,
                        DeserializeQueryRequest(qo_bytes));
  OracleAnswer answer;
  PPSM_ASSIGN_OR_RETURN(
      answer.plan,
      DecomposeQueryUnits(qo, server.statistics(), server.data(),
                          server.index(), server.EffectiveUnitDepth()));
  answer.units =
      MatchUnits(server.data(), server.index(), qo, answer.plan.units);
  for (UnitMatches& unit : answer.units) {
    MatchSet translated(unit.matches.arity());
    std::vector<VertexId> row(unit.matches.arity());
    for (size_t r = 0; r < unit.matches.NumMatches(); ++r) {
      const auto local = unit.matches.Get(r);
      for (size_t i = 0; i < local.size(); ++i) {
        row[i] = server.to_gk()[local[i]];
      }
      translated.Append(row);
    }
    unit.matches = std::move(translated);
  }
  JoinOptions join_options;
  join_options.star_cost_estimates = answer.plan.estimates;
  PPSM_ASSIGN_OR_RETURN(answer.rin,
                        JoinUnitMatches(answer.units, server.avt(),
                                        qo.NumVertices(), join_options));
  answer.payload = answer.rin.Serialize();
  return answer;
}

}  // namespace ppsm

#endif  // PPSM_TESTS_CLOUD_ORACLE_H_
