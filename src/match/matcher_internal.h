#ifndef PPSM_MATCH_MATCHER_INTERNAL_H_
#define PPSM_MATCH_MATCHER_INTERNAL_H_

#include <algorithm>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/query_unit.h"

namespace ppsm::matcher_internal {

/// Versioned-epoch vertex marks of the unit matcher:
/// Begin() invalidates every mark in O(1) by bumping the epoch, so the
/// per-unit O(|V|) zeroing of a plain std::vector<bool> — which dwarfed
/// matching time on large fixtures under the serving workload — happens only
/// on first use per thread (and on the ~never epoch wraparound).
/// Thread-local via ThreadMarks(): pool workers are persistent, so the
/// buffer is reused across units, queries and servers.
///
/// Invariant: **0 is never an active epoch.** Unmark writes the sentinel 0,
/// so a slot holding 0 must always read as "unmarked". This holds at every
/// point in the lifecycle: epoch_ starts at 0 and Begin() pre-increments, so
/// the first active epoch is 1; and when the increment wraps (++epoch_ ==
/// 0), Begin() zero-fills the whole buffer AND restarts at epoch 1 — both
/// halves are required. Skipping the fill would let a slot last written at
/// the old epoch 1 (4 billion Begins ago) read as marked again; restarting
/// at 0 would make Unmark's sentinel equal the active epoch, turning every
/// Unmark into a Mark. epoch_marks_test.cc pins the wraparound behavior.
class EpochMarks {
 public:
  void Begin(size_t num_vertices) {
    if (marks_.size() < num_vertices) marks_.resize(num_vertices, 0);
    if (++epoch_ == 0) {
      std::fill(marks_.begin(), marks_.end(), 0);
      epoch_ = 1;
    }
  }
  bool Marked(VertexId v) const { return marks_[v] == epoch_; }
  void Mark(VertexId v) { marks_[v] = epoch_; }
  void Unmark(VertexId v) { marks_[v] = 0; }

  /// Current epoch (0 = Begin never called). Test-only observability.
  uint32_t epoch() const { return epoch_; }
  /// Test hook: jump the counter so the next Begin() exercises wraparound
  /// without 2^32 - 2 warm-up calls.
  void SetEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint32_t> marks_;
  uint32_t epoch_ = 0;
};

inline EpochMarks& ThreadMarks() {
  thread_local EpochMarks marks;
  return marks;
}

/// Non-root-vertex compatibility: type sets and label groups only (Def. 2's
/// containment conditions; deliberately no degree check — non-root degrees
/// in Go understate their Gk degrees, and extra query edges are the join's
/// concern). The aux-graph path precomputes exactly this relation per query
/// vertex (match/aux_graph.h); this inline form remains the aux-off
/// reference implementation.
inline bool LeafCompatible(const AttributedGraph& qo, VertexId leaf,
                           const AttributedGraph& data, VertexId v) {
  return data.TypesContainAll(v, qo.Types(leaf)) &&
         data.LabelsContainAll(v, qo.Labels(leaf));
}

/// Column layout MatchUnit produces for `unit`: star units (depth <= 1)
/// bind the center, then its query neighbors most-constrained-first (more
/// labels, then ascending id); deeper units bind unit.vertices in BFS slot
/// order. The skip path of MatchUnits gives its placeholders these columns
/// (and MatchSet arity) too.
std::vector<VertexId> UnitColumns(const AttributedGraph& qo,
                                  const QueryUnit& unit);

}  // namespace ppsm::matcher_internal

#endif  // PPSM_MATCH_MATCHER_INTERNAL_H_
