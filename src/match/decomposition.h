#ifndef PPSM_MATCH_DECOMPOSITION_H_
#define PPSM_MATCH_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/query_unit.h"
#include "match/statistics.h"
#include "util/status.h"

namespace ppsm {

/// A decomposition of the outsourced query Qo into mixed star/path/tree
/// units (paper §4.2.1, generalized): a minimum-estimated-cost set of
/// candidate units whose tree edges cover every edge of Qo (isolated
/// vertices get singleton coverage), chosen by the cover ILP over the
/// estimated unit match counts (Def. 6). With max_depth <= 1 only stars are
/// enumerable and the ILP is the paper's weighted vertex cover
///   minimize sum est|R(S(v))| x_v  s.t.  x_u + x_v >= 1 per edge uv,
/// with the selected stars in ascending root order.
struct UnitDecomposition {
  /// Selected units, in candidate enumeration order (stars by root id first,
  /// then deeper BFS trees by root id).
  std::vector<QueryUnit> units;
  /// Estimated |R(U)| per selected unit (aligned with `units`).
  std::vector<double> estimates;
  /// Sum of estimates — the generalized Def. 6 decomposition cost.
  double total_cost = 0.0;
  /// Branch-and-bound nodes the ILP explored (diagnostics).
  size_t ilp_nodes = 0;
};

/// Decomposition with §5.1 statistics-only unit estimates. `max_depth` caps
/// the BFS depth of enumerated units (<= 1: stars only).
Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              uint32_t max_depth);

/// Decomposition with candidate-aware unit estimates evaluated against the
/// hosted graph and its index — the planner of a one-shard cluster. On
/// power-law graphs it reliably steers the cover away from hub-rooted units
/// whose materialized match sets would be astronomically large.
Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              const AttributedGraph& data,
                                              const CloudIndex& index,
                                              uint32_t max_depth);

/// Decomposition over an explicit candidate-unit list with caller-supplied
/// costs (`costs[i]` = estimated |R(units[i])|, size must equal
/// units.size(); every cost finite and >= 0 or the call fails with
/// InvalidArgument). The sharded coordinator plans with this: it evaluates
/// the candidate-aware estimator itself over the shard-merged global
/// candidate lists, then asks for the cover — making the decomposition
/// identical to the unsharded one without any shard owning the full hosted
/// graph.
Result<UnitDecomposition> DecomposeQueryUnitsWithCosts(
    const AttributedGraph& qo, std::vector<QueryUnit> units,
    std::vector<double> costs);

/// Checks that the units' tree edges cover every edge of `qo` and every
/// isolated vertex appears in some unit (tests / invariants).
bool IsValidUnitDecomposition(const AttributedGraph& qo,
                              const std::vector<QueryUnit>& units);

/// Canonical signature of an outsourced query, the cloud's plan-cache key.
/// Two queries share a signature iff they have identical vertex ids, type
/// sets, label(-group) sets and adjacency — exactly the inputs
/// DecomposeQueryUnits reads from `qo` (the remaining inputs, statistics,
/// the hosted index and the depth cap, are fixed for the lifetime of a
/// CloudCluster), so equal signatures imply equal decompositions and the ILP
/// solve can be skipped. The encoding is a compact byte string: |V|, then
/// per vertex its sorted types, labels and neighbors, each length-prefixed;
/// every field is serialized little-endian-u32 so the signature is
/// deterministic across platforms.
std::string QoSignature(const AttributedGraph& qo);

}  // namespace ppsm

#endif  // PPSM_MATCH_DECOMPOSITION_H_
