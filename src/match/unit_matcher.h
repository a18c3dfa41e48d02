#ifndef PPSM_MATCH_UNIT_MATCHER_H_
#define PPSM_MATCH_UNIT_MATCHER_H_

#include <atomic>
#include <functional>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/index.h"
#include "match/match_set.h"
#include "match/query_unit.h"
#include "util/intersect.h"

namespace ppsm {

/// Matches of one unit of the query decomposition. `columns[i]` names the
/// query vertex each match column binds: columns[0] is the unit's root (for
/// a star, its center), the rest its remaining vertices. The rows are
/// un-expanded R(U, Go); match vertex ids are in whatever id space `data`
/// uses (Go-local in the cloud; the caller translates to Gk ids before
/// joining).
struct UnitMatches {
  /// The unit's root query vertex (== columns[0]).
  VertexId center = kInvalidVertex;
  /// Shape of the producing unit; purely informational (profiling,
  /// cost-model calibration) — join semantics depend only on `columns`.
  UnitKind kind = UnitKind::kStar;
  std::vector<VertexId> columns;
  MatchSet matches;
  /// Candidate roots the VBV/LBV index shortlisted for this unit — the size
  /// of the loop MatchUnit enumerated (query profiles report it next to the
  /// materialized row count).
  size_t num_candidates = 0;
  /// True when enumeration stopped early — at the row cap, or because the
  /// run was cancelled. The match set is then incomplete and must not be
  /// used for exact answering.
  bool truncated = false;
  /// True when this unit was never matched at all: a sibling truncated (or
  /// the run was cancelled) before its turn, so MatchUnits skipped it.
  /// Skipped units are always also `truncated`; the distinction lets
  /// profiles separate "abandoned, candidates unknown" from "the index
  /// shortlisted nothing" (num_candidates is 0 in both cases).
  bool skipped = false;
};

/// Mutable per-phase instrumentation sink, shared by every unit/chunk/thread
/// of one MatchUnits call (hence the atomics — the counters merge once per
/// chunk, never from the inner loop). Wire one in via
/// UnitMatchOptions::phase_stats to surface aux-graph build cost and kernel
/// choices in query profiles.
struct MatchPhaseStats {
  /// Wall time spent building the QueryAuxGraph (0 when aux is off).
  double aux_build_ms = 0;
  /// QueryAuxGraph::MemoryBytes() of the phase's aux graph.
  size_t aux_bytes = 0;
  /// Distinct (types, labels) compatibility classes in the aux graph.
  size_t aux_classes = 0;
  /// Per-kernel dispatch counts from util/intersect.h (aux path only).
  std::atomic<uint64_t> intersect_scalar{0};
  std::atomic<uint64_t> intersect_galloping{0};
  std::atomic<uint64_t> intersect_simd{0};

  /// Folds one chunk's local counters in (relaxed; these are statistics).
  void Merge(const IntersectCounters& c) {
    if (c.scalar) intersect_scalar.fetch_add(c.scalar, std::memory_order_relaxed);
    if (c.galloping) {
      intersect_galloping.fetch_add(c.galloping, std::memory_order_relaxed);
    }
    if (c.simd) intersect_simd.fetch_add(c.simd, std::memory_order_relaxed);
  }
};

/// Knobs for the unit-matching phase.
struct UnitMatchOptions {
  /// Caps the materialized match count per unit (0 = unlimited). Hitting it
  /// sets UnitMatches::truncated — the cloud turns that into a
  /// ResourceExhausted error instead of exhausting memory on pathological
  /// queries.
  size_t max_rows = 0;
  /// Workers drawn from the shared pool: MatchUnits spreads units across
  /// them, and MatchUnit additionally splits its candidate-root loop into
  /// chunks (the inner split only engages when the call is not already
  /// inside a pool task — see util/parallel.h — so a one-unit decomposition
  /// still uses the whole budget).
  size_t num_threads = 1;
  /// Polled between units and candidate chunks; returning true abandons the
  /// remaining work with the affected units marked truncated. The cloud
  /// wires its query deadline here. Must be thread-safe; empty = never.
  std::function<bool()> cancelled;
  /// Restricts the index's candidate shortlist to roots for which this
  /// predicate holds; empty = keep all. A sharded cloud passes its owned-set
  /// bitmap here: halo vertices carry incomplete adjacency in a slice, so
  /// their understated bit vectors could qualify them falsely, and their
  /// matches belong to the owning shard anyway. Filtered-out candidates do
  /// not count towards UnitMatches::num_candidates. Must be thread-safe.
  std::function<bool(VertexId)> candidate_filter;
  /// Enumerate slots by set intersection against a per-query auxiliary
  /// graph (match/aux_graph.h) instead of filter-while-walking raw
  /// adjacency. Both paths produce byte-identical rows at any thread count
  /// (DESIGN.md §15); the off switch exists for A/B comparison and as a
  /// fallback.
  bool use_aux_graph = true;
  /// Intersection kernel for the aux path. kAuto applies the extended §5.1
  /// cost model per step; a concrete kernel pins every step (A/B and
  /// calibration runs). Kernel choice never affects output, only speed.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
  /// Optional instrumentation sink (aux build time/bytes, kernel-choice
  /// counts). Must outlive the call; may be shared across phases.
  MatchPhaseStats* phase_stats = nullptr;
};

/// Algorithm 1, generalized to any decomposition unit: finds all matches of
/// `unit` over `data`. Root candidates come from the VBV/LBV shortlist; the
/// remaining slots extend the partial row along data adjacency with
/// injectivity enforced per row. Slot compatibility is type-set +
/// label-group containment only — a vertex's extra query edges are the
/// join's concern, and non-root degrees in Go understate their Gk degrees,
/// so no degree pruning there.
///
/// Star units (depth <= 1, the paper's §4.2.1 family) bind the center first
/// and then its query neighbors most-constrained-first (more labels, then
/// ascending id); each candidate center costs one intersection per distinct
/// leaf class. Path/tree units bind unit.vertices in BFS slot order
/// (parent[i] < i guarantees the parent is bound before slot i). Either way
/// the candidate loop is chunked across workers: per-chunk row sets
/// concatenate in chunk order under a shared atomic row budget, so the
/// output is independent of thread count and max_rows is exact under
/// concurrency.
UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      const UnitMatchOptions& options);

/// Serial convenience overload (tests, cost-model probes).
UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      size_t max_rows = 0);

/// Runs MatchUnit for every unit of a decomposition (the algorithm's S*
/// loop), spreading units across options.num_threads pool workers — the
/// units are independent, so this is the embarrassingly parallel axis of
/// the paper's §4.2.1 hot path. One aux graph serves the whole phase.
/// Output order follows `units` regardless of thread count. When one unit
/// truncates (or the run is cancelled), units not yet matched are skipped
/// and marked truncated — no caller may use a partial phase for exact
/// answering, so finishing it is waste.
std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    const UnitMatchOptions& options);

/// Serial convenience overload.
std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    size_t max_rows = 0);

}  // namespace ppsm

#endif  // PPSM_MATCH_UNIT_MATCHER_H_
