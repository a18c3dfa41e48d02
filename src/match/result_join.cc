#include "match/result_join.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "util/hash.h"
#include "util/parallel.h"

namespace ppsm {

namespace {

/// Probe-side chunks below this size are not worth a pool task.
constexpr size_t kMinProbeChunk = 128;

/// Working state of the incremental join: a column list (query vertex ids)
/// plus rows over those columns.
struct Intermediate {
  std::vector<VertexId> columns;
  MatchSet rows;
};

/// How a JoinStep ended: with its full output, or abandoned.
enum class StepEnd { kComplete, kOverflow, kCancelled };

uint64_t KeyOf(std::span<const VertexId> row,
               const std::vector<size_t>& positions) {
  uint64_t key = 0x9ae16a3b2f90404fULL;
  for (const size_t p : positions) key = HashCombine(key, row[p]);
  return key;
}

uint64_t KeyOfValues(std::span<const VertexId> values) {
  uint64_t key = 0x9ae16a3b2f90404fULL;
  for (const VertexId v : values) key = HashCombine(key, v);
  return key;
}

/// Joins `current` with one unit's matches on their shared query vertices.
///
/// The unit side logically contributes its Gk closure ∪_m F_m(unit_rows)
/// for m = 0..k-1, but the closure is never materialized: the un-expanded
/// rows are hashed once on the shared key, and every current row probes
/// under each F_m by mapping its shared values through F_m^{-1} (F_m is a
/// bijection, so `F_m(unit_row) agrees with current_row` iff `unit_row
/// agrees with F_m^{-1}(current_row)`). New columns of a hit are shifted
/// forward with F_m on the fly. The baseline's identity AVT (k = 1) skips
/// every Avt lookup.
///
/// The probe side is partitioned into contiguous chunks across
/// options.num_threads workers; each chunk appends into its own buffer and
/// the buffers concatenate in chunk order, so the output row order — and
/// therefore the result — is independent of the thread count. All chunks
/// share one atomic row budget; exceeding options.max_rows (non-zero) ends
/// the step with kOverflow after folding the partial row counts into
/// `diagnostics`. Each chunk polls options.cancelled before it probes; a
/// true poll ends the step with kCancelled. `step` (nullable, like
/// `diagnostics`) receives this invocation's own build/output/drop counts;
/// the caller stamps the unit identity on it.
Intermediate JoinStep(const Intermediate& current,
                      const std::vector<VertexId>& unit_columns,
                      const MatchSet& unit_rows, const Avt& avt,
                      const JoinOptions& options,
                      JoinDiagnostics* diagnostics, JoinStepProfile* step,
                      StepEnd* end) {
  const uint32_t probe_k = std::max<uint32_t>(avt.k(), 1);
  // Column bookkeeping: positions of shared columns on both sides, and the
  // unit columns that are new.
  std::vector<size_t> shared_current;  // Positions in current.columns.
  std::vector<size_t> shared_unit;     // Positions in unit_columns.
  std::vector<size_t> new_unit;        // Unit positions appended to output.
  for (size_t sp = 0; sp < unit_columns.size(); ++sp) {
    const auto it = std::find(current.columns.begin(), current.columns.end(),
                              unit_columns[sp]);
    if (it != current.columns.end()) {
      shared_current.push_back(
          static_cast<size_t>(it - current.columns.begin()));
      shared_unit.push_back(sp);
    } else {
      new_unit.push_back(sp);
    }
  }

  Intermediate next;
  next.columns = current.columns;
  for (const size_t sp : new_unit) next.columns.push_back(unit_columns[sp]);
  next.rows = MatchSet(next.columns.size());

  // Hash the unit side on the shared key (empty key = cross product).
  std::unordered_map<uint64_t, std::vector<uint32_t>> unit_index;
  unit_index.reserve(unit_rows.NumMatches() * 2);
  for (size_t r = 0; r < unit_rows.NumMatches(); ++r) {
    unit_index[KeyOf(unit_rows.Get(r), shared_unit)].push_back(
        static_cast<uint32_t>(r));
  }
  if (diagnostics != nullptr) {
    ++diagnostics->join_steps;
    diagnostics->indexed_rows += unit_rows.NumMatches();
  }
  if (step != nullptr) step->build_rows = unit_rows.NumMatches();

  // Build-side duplicate suppression (probe_k > 1 only). Expanded rows can
  // coincide: F_m(r) == F_m'(r') iff r' == F_{m-m'}(r), because the AVT's
  // functions compose cyclically (shift by m, then by m', is shift by
  // m + m'). So F_m(r) repeats an earlier function's output iff some
  // F_d(r), d in [1, m], is itself a unit row — min_dup_shift[r] is the
  // smallest such d (probe_k when none), making the probe-time check O(1).
  // Scanning the output buffer instead would be quadratic in the join
  // fanout per probe row.
  std::vector<uint32_t> min_dup_shift;
  if (probe_k > 1 && unit_rows.NumMatches() > 0) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> row_index;
    row_index.reserve(unit_rows.NumMatches() * 2);
    for (size_t r = 0; r < unit_rows.NumMatches(); ++r) {
      row_index[KeyOfValues(unit_rows.Get(r))].push_back(
          static_cast<uint32_t>(r));
    }
    min_dup_shift.assign(unit_rows.NumMatches(), probe_k);
    const size_t arity = unit_columns.size();
    ParallelForChunks(
        options.num_threads, unit_rows.NumMatches(), kMinProbeChunk,
        [&](size_t /*chunk*/, size_t begin, size_t end) {
          std::vector<VertexId> shifted(arity);
          for (size_t r = begin; r < end; ++r) {
            const auto row = unit_rows.Get(r);
            std::copy(row.begin(), row.end(), shifted.begin());
            for (uint32_t d = 1; d < probe_k; ++d) {
              for (size_t i = 0; i < arity; ++i) {
                shifted[i] = avt.Apply(shifted[i], 1);
              }
              const auto it = row_index.find(KeyOfValues(shifted));
              if (it == row_index.end()) continue;
              bool found = false;
              for (const uint32_t cand : it->second) {
                const auto cand_row = unit_rows.Get(cand);
                if (std::equal(shifted.begin(), shifted.end(),
                               cand_row.begin())) {
                  found = true;
                  break;
                }
              }
              if (found) {
                min_dup_shift[r] = d;
                break;
              }
            }
          }
        });
  }

  const size_t num_current = current.columns.size();
  const auto chunks = SplitIntoChunks(current.rows.NumMatches(),
                                      options.num_threads, kMinProbeChunk);
  std::vector<MatchSet> chunk_rows(chunks.size(),
                                   MatchSet(next.columns.size()));
  std::vector<size_t> chunk_drops(chunks.size(), 0);
  std::atomic<size_t> budget{0};
  std::atomic<bool> overflowed{false};
  std::atomic<bool> cancelled{false};

  ParallelFor(options.num_threads, chunks.size(), [&](size_t c) {
    if (overflowed.load(std::memory_order_relaxed) ||
        cancelled.load(std::memory_order_relaxed)) {
      return;
    }
    if (options.cancelled && options.cancelled()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    MatchSet& out = chunk_rows[c];
    std::vector<VertexId> probe(shared_unit.size());
    std::vector<VertexId> combined(next.columns.size());
    size_t drops = 0;
    for (size_t cr = chunks[c].first; cr < chunks[c].second; ++cr) {
      const auto current_row = current.rows.Get(cr);
      for (uint32_t m = 0; m < probe_k; ++m) {
        if (m == 0) {
          for (size_t i = 0; i < shared_current.size(); ++i) {
            probe[i] = current_row[shared_current[i]];
          }
        } else {
          const uint32_t inv = avt.InverseShift(m);
          for (size_t i = 0; i < shared_current.size(); ++i) {
            probe[i] = avt.Apply(current_row[shared_current[i]], inv);
          }
        }
        const auto it = unit_index.find(KeyOfValues(probe));
        if (it == unit_index.end()) continue;
        for (const uint32_t sr : it->second) {
          const auto unit_row = unit_rows.Get(sr);
          // Verify shared equality (hash collisions must not fabricate
          // rows).
          bool consistent = true;
          for (size_t i = 0; i < shared_unit.size(); ++i) {
            if (unit_row[shared_unit[i]] != probe[i]) {
              consistent = false;
              break;
            }
          }
          if (!consistent) continue;
          // All hits for one current row agree on the shared columns, so an
          // expanded row repeating an earlier function's output is exactly
          // the min_dup_shift condition: each distinct row of the closure
          // joins in once.
          if (m > 0 && min_dup_shift[sr] <= m) continue;
          std::copy(current_row.begin(), current_row.end(),
                    combined.begin());
          if (m == 0) {
            for (size_t i = 0; i < new_unit.size(); ++i) {
              combined[num_current + i] = unit_row[new_unit[i]];
            }
          } else {
            for (size_t i = 0; i < new_unit.size(); ++i) {
              combined[num_current + i] =
                  avt.Apply(unit_row[new_unit[i]], m);
            }
          }
          if (MatchSet::HasDuplicateVertices(combined)) {
            ++drops;
            continue;
          }
          if (options.max_rows != 0 &&
              budget.fetch_add(1, std::memory_order_relaxed) >=
                  options.max_rows) {
            overflowed.store(true, std::memory_order_relaxed);
            chunk_drops[c] = drops;
            return;
          }
          out.Append(combined);
        }
      }
    }
    chunk_drops[c] = drops;
  });

  size_t total_rows = 0;
  for (const MatchSet& part : chunk_rows) total_rows += part.NumMatches();
  size_t total_drops = 0;
  for (const size_t drops : chunk_drops) total_drops += drops;
  if (diagnostics != nullptr) {
    diagnostics->injectivity_drops += total_drops;
    // Recorded before the overflow early-return below: the runs that hit
    // the row cap are exactly the ones whose peak must not be
    // under-reported.
    diagnostics->peak_rows = std::max(diagnostics->peak_rows, total_rows);
  }
  if (step != nullptr) {
    step->injectivity_drops = total_drops;
    step->output_rows = total_rows;
  }
  if (overflowed.load(std::memory_order_relaxed)) {
    if (step != nullptr) step->overflow = true;
    *end = StepEnd::kOverflow;
    return next;
  }
  if (cancelled.load(std::memory_order_relaxed)) {
    *end = StepEnd::kCancelled;
    return next;
  }
  next.rows.ReserveAdditional(total_rows);
  for (const MatchSet& part : chunk_rows) next.rows.AppendAll(part);
  return next;
}

}  // namespace

MatchSet ExpandByAutomorphisms(const MatchSet& matches, const Avt& avt) {
  MatchSet expanded(matches.arity());
  for (uint32_t m = 0; m < avt.k(); ++m) {
    for (size_t r = 0; r < matches.NumMatches(); ++r) {
      expanded.Append(avt.ApplyToMatch(matches.Get(r), m));
    }
  }
  expanded.SortDedup();
  return expanded;
}

Result<MatchSet> JoinUnitMatches(const std::vector<UnitMatches>& units,
                                 const Avt& avt, size_t num_query_vertices,
                                 const JoinOptions& options,
                                 JoinDiagnostics* diagnostics) {
  if (units.empty()) {
    return Status::InvalidArgument("join needs at least one unit");
  }
  for (const UnitMatches& unit : units) {
    if (unit.truncated) {
      return Status::ResourceExhausted(
          "unit match set was truncated; join would be incomplete");
    }
  }
  const bool use_estimates =
      options.star_cost_estimates.size() == units.size();
  const auto cost_of = [&](size_t i) {
    return use_estimates
               ? options.star_cost_estimates[i]
               : static_cast<double>(units[i].matches.NumMatches());
  };

  // Anchor: the unit with the fewest matches (Algorithm 2 line 1) — by
  // actual count, which is exact and free, never by estimate. Its rows are
  // NOT expanded; the anchor root staying in B1 is what defines Rin.
  size_t anchor = 0;
  for (size_t i = 1; i < units.size(); ++i) {
    if (units[i].matches.NumMatches() <
        units[anchor].matches.NumMatches()) {
      anchor = i;
    }
  }
  // Step 0 is the anchor itself — no JoinStep runs for it, but recording it
  // keeps the anchor's provenance (which unit, how many rows seeded the
  // intermediate) in the flight-recorder trace. Crucially this also covers
  // the zero-match short-circuit below: without it a served query could log
  // an empty `steps` array, hiding which unit emptied the result.
  // estimated_rows stays 0.0 so the anchor never feeds the estimate/actual
  // join-calibration metrics (its "output" is a unit cardinality, not a
  // join-step output).
  if (diagnostics != nullptr) {
    diagnostics->anchor_index = anchor;
    diagnostics->anchor_rows = units[anchor].matches.NumMatches();
    JoinStepProfile anchor_profile;
    anchor_profile.step = 0;
    anchor_profile.star_index = static_cast<uint32_t>(anchor);
    anchor_profile.star_center = static_cast<uint32_t>(units[anchor].center);
    anchor_profile.output_rows = units[anchor].matches.NumMatches();
    anchor_profile.kind = UnitKindName(units[anchor].kind);
    diagnostics->steps.push_back(anchor_profile);
  }
  // An empty anchor empties every join down the line: return before any
  // other unit gets hash-indexed.
  if (units[anchor].matches.NumMatches() == 0) {
    return MatchSet(num_query_vertices);
  }

  Intermediate current{units[anchor].columns, units[anchor].matches};
  if (diagnostics != nullptr) {
    diagnostics->peak_rows =
        std::max(diagnostics->peak_rows, current.rows.NumMatches());
  }

  std::vector<bool> joined(units.size(), false);
  joined[anchor] = true;
  for (size_t step = 1; step < units.size(); ++step) {
    // Next unit: overlapping with the current columns, cheapest by the
    // cost model (Algorithm 2 line 4, with estimated instead of raw
    // cardinalities when the decomposition supplied them); fall back to
    // cheapest overall (cross product) for disconnected queries.
    size_t next = SIZE_MAX;
    bool next_overlaps = false;
    for (size_t i = 0; i < units.size(); ++i) {
      if (joined[i]) continue;
      bool overlaps = false;
      for (const VertexId column : units[i].columns) {
        if (std::find(current.columns.begin(), current.columns.end(),
                      column) != current.columns.end()) {
          overlaps = true;
          break;
        }
      }
      const bool better =
          next == SIZE_MAX || (overlaps && !next_overlaps) ||
          (overlaps == next_overlaps && cost_of(i) < cost_of(next));
      if (better) {
        next = i;
        next_overlaps = overlaps;
      }
    }
    joined[next] = true;
    JoinStepProfile profile;
    profile.step = static_cast<uint32_t>(step);
    profile.star_index = static_cast<uint32_t>(next);
    profile.star_center = static_cast<uint32_t>(units[next].center);
    profile.estimated_rows = use_estimates ? cost_of(next) : 0.0;
    profile.kind = UnitKindName(units[next].kind);
    StepEnd end = StepEnd::kComplete;
    current = JoinStep(current, units[next].columns, units[next].matches,
                       avt, options, diagnostics, &profile, &end);
    if (diagnostics != nullptr) diagnostics->steps.push_back(profile);
    if (end == StepEnd::kOverflow) {
      return Status::ResourceExhausted(
          "join intermediate exceeded the row cap");
    }
    if (end == StepEnd::kCancelled) {
      return Status::DeadlineExceeded("join cancelled");
    }
    if (current.rows.NumMatches() == 0) {
      return MatchSet(num_query_vertices);  // Rin is empty.
    }
  }

  // Canonicalize columns to query order 0..m-1.
  if (current.columns.size() != num_query_vertices) {
    return Status::Internal(
        "unit decomposition did not cover every query vertex");
  }
  std::vector<size_t> position(num_query_vertices, SIZE_MAX);
  for (size_t p = 0; p < current.columns.size(); ++p) {
    if (current.columns[p] >= num_query_vertices ||
        position[current.columns[p]] != SIZE_MAX) {
      return Status::Internal("join produced malformed columns");
    }
    position[current.columns[p]] = p;
  }
  // The reorder scales with |Rin|, which can dwarf the join loop itself on
  // high-fanout queries — run it chunked as well.
  const auto chunks = SplitIntoChunks(current.rows.NumMatches(),
                                      options.num_threads, kMinProbeChunk);
  std::vector<MatchSet> parts(chunks.size(), MatchSet(num_query_vertices));
  ParallelFor(options.num_threads, chunks.size(), [&](size_t c) {
    MatchSet& part = parts[c];
    part.ReserveAdditional(chunks[c].second - chunks[c].first);
    std::vector<VertexId> row(num_query_vertices);
    for (size_t r = chunks[c].first; r < chunks[c].second; ++r) {
      const auto source = current.rows.Get(r);
      for (size_t q = 0; q < num_query_vertices; ++q) {
        row[q] = source[position[q]];
      }
      part.Append(row);
    }
  });
  MatchSet canonical(num_query_vertices);
  canonical.ReserveAdditional(current.rows.NumMatches());
  for (const MatchSet& part : parts) canonical.AppendAll(part);
  // No dedup pass: every row is distinct by construction. The anchor rows
  // are distinct, and each JoinStep preserves that — a joined row pins down
  // its probe row (the current columns) and the expanded unit row F_m(s)
  // (overlap + new columns), and the min-shift check already keeps exactly
  // one (s, m) per expanded row. Sorting ~|Rin| distinct rows would be the
  // single most expensive phase of large joins, for presentation only.
  return canonical;
}

}  // namespace ppsm
