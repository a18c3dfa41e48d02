#include "match/unit_matcher.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "match/aux_graph.h"
#include "match/matcher_internal.h"
#include "obs/trace.h"
#include "util/intersect.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ppsm {

using matcher_internal::EpochMarks;
using matcher_internal::LeafCompatible;
using matcher_internal::ThreadMarks;
using matcher_internal::UnitColumns;

namespace {

/// Candidate chunks below this size are not worth a pool task.
constexpr size_t kMinCandidateChunk = 32;

/// List-vs-walk crossover of SlotCandidates: the kernel path is taken only
/// when the materialized class list is at least this many times smaller than
/// the adjacency. At the crossover, galloping costs ~|list|·log|adjacency|
/// probes and the SIMD merge ~(|list|+|adjacency|)/lanes comparisons — both
/// comfortably under the walk's |adjacency| bitmap tests; above it the walk
/// is already optimal at one O(1) test per neighbor.
constexpr size_t kListWalkCrossover = 4;

/// Fills `out` with the intersection of `adjacency` (a data vertex's
/// neighbor list) and compatibility class `cls` of `aux` — the slot-candidate
/// primitive of the aux path. Two strategies, one output:
///  * the set-intersection kernels (util/intersect.h) when the class has a
///    materialized list small enough to beat an O(degree) scan, and
///  * a filter-walk of the adjacency testing the class bitmap (O(1) per
///    neighbor) otherwise.
/// Both enumerate the ascending common subsequence of two ascending inputs,
/// so the choice never changes bytes — only speed. A forced (non-auto)
/// kernel takes the kernel path whenever the list exists, so kernel A/B
/// tests measure the kernel they asked for; only the kernel path bumps the
/// intersect counters.
void SlotCandidates(std::span<const VertexId> adjacency,
                    const QueryAuxGraph& aux, size_t cls,
                    IntersectKernel kernel, IntersectCounters* counters,
                    std::vector<uint32_t>* out) {
  if (aux.ClassMaterialized(cls)) {
    const std::span<const VertexId> list = aux.ClassCandidates(cls);
    if (kernel != IntersectKernel::kAuto ||
        list.size() * kListWalkCrossover <= adjacency.size()) {
      IntersectInto(adjacency, list, out, kernel, counters);
      return;
    }
  }
  const BitVector& bits = aux.ClassBits(cls);
  out->clear();
  for (const VertexId v : adjacency) {
    if (bits.Test(v)) out->push_back(v);
  }
}

/// One worker's state while it enumerates a chunk of candidate roots: the
/// partial row (row[0] is the root), the injectivity marks, the
/// enumerator's reusable candidate lists and the chunk's share of the output.
struct Chunk {
  std::vector<VertexId> row;
  EpochMarks* marks = nullptr;
  std::vector<std::vector<uint32_t>> lists;
  IntersectCounters counters;
  /// Row budget shared by every chunk of the unit; null when uncapped.
  std::atomic<size_t>* budget = nullptr;
  size_t max_rows = 0;
  MatchSet* out = nullptr;

  /// Appends the complete row. A slot of the budget is claimed before the
  /// append, and a claim at or past max_rows aborts, so the cap holds
  /// exactly across concurrent chunks. Returns false once the cap is hit.
  bool Emit() {
    if (budget != nullptr &&
        budget->fetch_add(1, std::memory_order_relaxed) >= max_rows) {
      return false;
    }
    out->Append(row);
    return true;
  }
};

/// Aux-off reference enumerator for every unit shape: candidates for slot s
/// are the data neighbors of the bound parent slot, filtered by type/label
/// containment and row injectivity while walking the adjacency. The aux
/// enumerators below produce the same rows in the same order (DESIGN.md
/// §15).
class WalkEnumerator {
 public:
  WalkEnumerator(const AttributedGraph& data, const AttributedGraph& qo,
                 std::span<const VertexId> slots,
                 std::span<const uint32_t> parent)
      : data_(data), qo_(qo), slots_(slots), parent_(parent) {}

  size_t num_lists() const { return 0; }
  bool operator()(VertexId /*root*/, Chunk* chunk) const {
    return Extend(1, chunk);
  }

 private:
  bool Extend(size_t slot, Chunk* chunk) const {
    if (slot == slots_.size()) return chunk->Emit();
    const VertexId query_vertex = slots_[slot];
    for (const VertexId v : data_.Neighbors(chunk->row[parent_[slot]])) {
      if (chunk->marks->Marked(v)) continue;
      if (!LeafCompatible(qo_, query_vertex, data_, v)) continue;
      chunk->marks->Mark(v);
      chunk->row[slot] = v;
      const bool ok = Extend(slot + 1, chunk);
      chunk->marks->Unmark(v);
      if (!ok) return false;
    }
    return true;
  }

  const AttributedGraph& data_;
  const AttributedGraph& qo_;
  std::span<const VertexId> slots_;
  std::span<const uint32_t> parent_;
};

/// Star units on the aux path. Every leaf hangs off the center, so leaves
/// sharing a compatibility class share one list per center:
/// intersect(adjacency(center), class candidates). A center with an empty
/// list yields no row, so its enumeration is skipped; otherwise the only
/// per-vertex check left is injectivity.
class StarAuxEnumerator {
 public:
  StarAuxEnumerator(const AttributedGraph& data, const QueryAuxGraph& aux,
                    IntersectKernel kernel, std::span<const VertexId> columns)
      : data_(data), aux_(aux), kernel_(kernel) {
    leaf_list_.reserve(columns.size() - 1);
    for (size_t i = 1; i < columns.size(); ++i) {
      const size_t cls = aux.ClassOf(columns[i]);
      const size_t list =
          std::find(list_class_.begin(), list_class_.end(), cls) -
          list_class_.begin();
      if (list == list_class_.size()) list_class_.push_back(cls);
      leaf_list_.push_back(list);
    }
  }

  size_t num_lists() const { return list_class_.size(); }
  bool operator()(VertexId center, Chunk* chunk) const {
    for (size_t u = 0; u < list_class_.size(); ++u) {
      SlotCandidates(data_.Neighbors(center), aux_, list_class_[u], kernel_,
                     &chunk->counters, &chunk->lists[u]);
      if (chunk->lists[u].empty()) return true;
    }
    return Assign(0, chunk);
  }

 private:
  bool Assign(size_t leaf, Chunk* chunk) const {
    if (leaf == leaf_list_.size()) return chunk->Emit();
    for (const VertexId v : chunk->lists[leaf_list_[leaf]]) {
      if (chunk->marks->Marked(v)) continue;
      chunk->marks->Mark(v);
      chunk->row[leaf + 1] = v;
      const bool ok = Assign(leaf + 1, chunk);
      chunk->marks->Unmark(v);
      if (!ok) return false;
    }
    return true;
  }

  const AttributedGraph& data_;
  const QueryAuxGraph& aux_;
  IntersectKernel kernel_;
  std::vector<size_t> list_class_;  // List -> aux class.
  std::vector<size_t> leaf_list_;   // Leaf (column - 1) -> list.
};

/// Path/tree units on the aux path: candidates for slot s are
/// intersect(adjacency of the bound parent, aux class of the slot), written
/// to the slot's own list — recursion only writes deeper slots, so the list
/// being iterated is never invalidated.
class TreeAuxEnumerator {
 public:
  TreeAuxEnumerator(const AttributedGraph& data, const QueryAuxGraph& aux,
                    IntersectKernel kernel, const QueryUnit& unit)
      : data_(data), aux_(aux), kernel_(kernel), unit_(unit) {
    slot_class_.reserve(unit.size());
    for (const VertexId v : unit.vertices) {
      slot_class_.push_back(aux.ClassOf(v));
    }
  }

  size_t num_lists() const { return slot_class_.size(); }
  bool operator()(VertexId /*root*/, Chunk* chunk) const {
    return Extend(1, chunk);
  }

 private:
  bool Extend(size_t slot, Chunk* chunk) const {
    if (slot == slot_class_.size()) return chunk->Emit();
    std::vector<uint32_t>& list = chunk->lists[slot];
    SlotCandidates(data_.Neighbors(chunk->row[unit_.parent[slot]]), aux_,
                   slot_class_[slot], kernel_, &chunk->counters, &list);
    for (const VertexId v : list) {
      if (chunk->marks->Marked(v)) continue;
      chunk->marks->Mark(v);
      chunk->row[slot] = v;
      const bool ok = Extend(slot + 1, chunk);
      chunk->marks->Unmark(v);
      if (!ok) return false;
    }
    return true;
  }

  const AttributedGraph& data_;
  const QueryAuxGraph& aux_;
  IntersectKernel kernel_;
  const QueryUnit& unit_;
  std::vector<size_t> slot_class_;  // Slot -> aux class.
};

/// The candidate-root loop every unit shape shares. The VBV/LBV index
/// shortlists roots (a unit root's depth-1 children are exactly its query
/// neighbors, so the star shortlist applies to every shape), then
/// options.candidate_filter prunes them and options.cancelled is polled.
/// The candidates are split into chunks across workers; each chunk binds a
/// root, lets `enumerate` append that root's rows to its own MatchSet, and
/// all chunks share one row budget. The per-chunk sets concatenate in chunk
/// order, so thread count never changes which rows exist (only, under
/// truncation, which prefix of the enumeration survived).
template <typename Enumerator>
void MatchRoots(const AttributedGraph& data, const CloudIndex& index,
                const AttributedGraph& qo, const UnitMatchOptions& options,
                const Enumerator& enumerate, UnitMatches* result) {
  std::vector<VertexId> candidates =
      index.CandidateCenters(qo, result->center);
  if (options.candidate_filter) {
    std::erase_if(candidates, [&options](VertexId v) {
      return !options.candidate_filter(v);
    });
  }
  result->num_candidates = candidates.size();
  if (candidates.empty()) return;
  if (options.cancelled && options.cancelled()) {
    result->truncated = true;
    return;
  }

  const size_t arity = result->columns.size();
  const auto chunks = SplitIntoChunks(candidates.size(), options.num_threads,
                                      kMinCandidateChunk);
  std::vector<MatchSet> chunk_matches(chunks.size(), MatchSet(arity));
  std::atomic<size_t> budget{0};
  std::atomic<bool> truncated{false};
  ParallelFor(options.num_threads, chunks.size(), [&](size_t c) {
    if (truncated.load(std::memory_order_relaxed)) return;
    if (options.cancelled && options.cancelled()) {
      truncated.store(true, std::memory_order_relaxed);
      return;
    }
    Chunk chunk;
    chunk.row.resize(arity);
    chunk.marks = &ThreadMarks();
    chunk.marks->Begin(data.NumVertices());
    chunk.lists.resize(enumerate.num_lists());
    chunk.budget = options.max_rows == 0 ? nullptr : &budget;
    chunk.max_rows = options.max_rows;
    chunk.out = &chunk_matches[c];
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      const VertexId root = candidates[i];
      chunk.row[0] = root;
      chunk.marks->Mark(root);  // The root cannot bind another slot too.
      const bool ok = enumerate(root, &chunk);
      chunk.marks->Unmark(root);
      if (!ok) {
        truncated.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (options.phase_stats != nullptr) {
      options.phase_stats->Merge(chunk.counters);
    }
  });
  result->truncated = truncated.load(std::memory_order_relaxed);

  size_t total_rows = 0;
  for (const MatchSet& part : chunk_matches) total_rows += part.NumMatches();
  result->matches.ReserveAdditional(total_rows);
  for (const MatchSet& part : chunk_matches) result->matches.AppendAll(part);
}

/// MatchUnit against a phase-shared aux graph (nullptr = aux off).
UnitMatches MatchUnitWithAux(const AttributedGraph& data,
                             const CloudIndex& index,
                             const AttributedGraph& qo, const QueryUnit& unit,
                             const UnitMatchOptions& options,
                             const QueryAuxGraph* aux) {
  UnitMatches result;
  result.center = unit.root();
  result.kind = unit.kind;
  result.columns = UnitColumns(qo, unit);
  result.matches = MatchSet(result.columns.size());
  if (unit.depth > 1) {
    if (aux != nullptr) {
      MatchRoots(data, index, qo, options,
                 TreeAuxEnumerator(data, *aux, options.intersect_kernel, unit),
                 &result);
    } else {
      MatchRoots(data, index, qo, options,
                 WalkEnumerator(data, qo, unit.vertices, unit.parent),
                 &result);
    }
  } else if (aux != nullptr) {
    MatchRoots(data, index, qo, options,
               StarAuxEnumerator(data, *aux, options.intersect_kernel,
                                 result.columns),
               &result);
  } else {
    const std::vector<uint32_t> center_parent(result.columns.size(), 0);
    MatchRoots(data, index, qo, options,
               WalkEnumerator(data, qo, result.columns, center_parent),
               &result);
  }
  return result;
}

/// Builds a phase aux graph and records its cost in the options' stats sink.
/// The hosted index's leaf VBVs turn the build into word-level ANDs.
QueryAuxGraph BuildPhaseAux(const AttributedGraph& data,
                            const CloudIndex& index,
                            const AttributedGraph& qo,
                            const UnitMatchOptions& options) {
  WallTimer timer;
  QueryAuxGraph aux =
      QueryAuxGraph::Build(data, qo, options.num_threads, &index);
  if (options.phase_stats != nullptr) {
    // Accumulating (not assigning) lets a sharded cluster sum its per-slice
    // aux builds into one phase record. aux_classes is a property of the
    // query alone, identical across slices, so assignment is correct.
    options.phase_stats->aux_build_ms += timer.ElapsedMillis();
    options.phase_stats->aux_bytes += aux.MemoryBytes();
    options.phase_stats->aux_classes = aux.NumClasses();
  }
  return aux;
}

}  // namespace

namespace matcher_internal {

std::vector<VertexId> UnitColumns(const AttributedGraph& qo,
                                  const QueryUnit& unit) {
  if (unit.depth > 1) return unit.vertices;
  // Star: the center, then its leaves most-constrained first (more labels,
  // then rarer placement).
  const VertexId center = unit.root();
  std::vector<VertexId> columns{center};
  columns.insert(columns.end(), qo.Neighbors(center).begin(),
                 qo.Neighbors(center).end());
  std::sort(columns.begin() + 1, columns.end(),
            [&qo](VertexId a, VertexId b) {
              if (qo.Labels(a).size() != qo.Labels(b).size()) {
                return qo.Labels(a).size() > qo.Labels(b).size();
              }
              return a < b;
            });
  return columns;
}

}  // namespace matcher_internal

UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      const UnitMatchOptions& options) {
  if (!options.use_aux_graph) {
    return MatchUnitWithAux(data, index, qo, unit, options, nullptr);
  }
  const QueryAuxGraph aux = BuildPhaseAux(data, index, qo, options);
  return MatchUnitWithAux(data, index, qo, unit, options, &aux);
}

UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      size_t max_rows) {
  UnitMatchOptions options;
  options.max_rows = max_rows;
  return MatchUnit(data, index, qo, unit, options);
}

std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    const UnitMatchOptions& options) {
  std::vector<UnitMatches> all(units.size());
  // One aux graph serves the whole phase: compatibility classes are per
  // query vertex, shared by every unit that binds the vertex, so the build
  // cost amortizes across the whole decomposition.
  QueryAuxGraph aux;
  const QueryAuxGraph* aux_ptr = nullptr;
  if (options.use_aux_graph && !units.empty()) {
    aux = BuildPhaseAux(data, index, qo, options);
    aux_ptr = &aux;
  }
  std::atomic<bool> abort{false};
  ParallelFor(options.num_threads, units.size(), [&](size_t i) {
    if (abort.load(std::memory_order_relaxed)) {
      // A sibling unit truncated (or the run was cancelled): the phase can
      // no longer answer exactly, so skip the remaining units. The
      // placeholder carries the columns (and MatchSet arity) a real match
      // would have, plus the skipped flag so profiles can tell "abandoned"
      // from "the index shortlisted nothing".
      all[i].center = units[i].root();
      all[i].kind = units[i].kind;
      all[i].columns = UnitColumns(qo, units[i]);
      all[i].matches = MatchSet(all[i].columns.size());
      all[i].truncated = true;
      all[i].skipped = true;
      return;
    }
    PPSM_TRACE_SPAN_CAT("cloud.unit_match.unit", "query");
    all[i] = MatchUnitWithAux(data, index, qo, units[i], options, aux_ptr);
    if (all[i].truncated) abort.store(true, std::memory_order_relaxed);
  });
  return all;
}

std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    size_t max_rows) {
  UnitMatchOptions options;
  options.max_rows = max_rows;
  return MatchUnits(data, index, qo, units, options);
}

}  // namespace ppsm
