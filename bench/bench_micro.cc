// google-benchmark microbenchmarks for the hot paths: bit-vector ops, index
// construction, candidate shortlisting, star matching, result join,
// automorphic expansion, client filtering, and serialization.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "anonymize/grouping.h"
#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "graph/query_shapes.h"
#include "graph/serialize.h"
#include "kauto/outsourced_graph.h"
#include "match/aux_graph.h"
#include "match/decomposition.h"
#include "match/index.h"
#include "match/query_unit.h"
#include "match/result_join.h"
#include "match/subgraph_matcher.h"
#include "match/unit_matcher.h"
#include "util/bitvector.h"
#include "util/intersect.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ppsm {
namespace {

void BM_BitVectorAnd(benchmark::State& state) {
  const size_t bits = state.range(0);
  Rng rng(1);
  BitVector a(bits), b(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Chance(0.3)) a.Set(i);
    if (rng.Chance(0.3)) b.Set(i);
  }
  for (auto _ : state) {
    BitVector c = a;
    c &= b;
    benchmark::DoNotOptimize(c.Count());
  }
  state.SetItemsProcessed(state.iterations() * bits);
}
BENCHMARK(BM_BitVectorAnd)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_BitVectorContains(benchmark::State& state) {
  const size_t bits = state.range(0);
  Rng rng(2);
  BitVector big(bits), small(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Chance(0.4)) big.Set(i);
  }
  for (size_t i = 0; i < bits; ++i) {
    if (big.Test(i) && rng.Chance(0.5)) small.Set(i);
  }
  for (auto _ : state) benchmark::DoNotOptimize(big.Contains(small));
}
BENCHMARK(BM_BitVectorContains)->Arg(1024)->Arg(262144);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(state.range(0), 1.0);
  Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10000);

/// Shared fixture pieces built once per benchmark binary run. Owner and
/// cloud are factory-built, so hold them behind pointers.
struct Fixture {
  AttributedGraph g;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<CloudCluster> cloud;
  std::vector<AttributedGraph> queries;

  static Fixture& Get() {
    static Fixture* fixture = [] {
      auto* f = new Fixture();
      DatasetConfig config = DbpediaLike(0.05);
      auto g = GenerateDataset(config);
      PPSM_CHECK_OK(g);
      f->g = std::move(g).value();
      DataOwnerOptions options;
      options.k = 3;
      auto owner = DataOwner::Create(f->g, f->g.schema(), options);
      PPSM_CHECK_OK(owner);
      f->owner = std::make_unique<DataOwner>(std::move(owner).value());
      auto cloud = CloudCluster::Host(f->owner->upload_bytes(), {});
      PPSM_CHECK_OK(cloud);
      f->cloud = std::make_unique<CloudCluster>(std::move(cloud).value());
      Rng rng(11);
      for (int i = 0; i < 16; ++i) {
        auto extracted = ExtractQuery(f->g, 6, rng);
        PPSM_CHECK_OK(extracted);
        f->queries.push_back(std::move(extracted->query));
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_GraphSerialize(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeGraph(f.g).size());
  }
}
BENCHMARK(BM_GraphSerialize);

void BM_GraphDeserialize(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const auto bytes = SerializeGraph(f.g);
  for (auto _ : state) {
    auto g = DeserializeGraph(bytes, nullptr);
    benchmark::DoNotOptimize(g.ok());
  }
}
BENCHMARK(BM_GraphDeserialize);

void BM_SnapshotSerialize(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeGraphSnapshot(f.g).size());
  }
  state.counters["bytes"] =
      static_cast<double>(SerializeGraphSnapshot(f.g).size());
}
BENCHMARK(BM_SnapshotSerialize);

void BM_SnapshotDeserialize(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const auto bytes = SerializeGraphSnapshot(f.g);
  for (auto _ : state) {
    auto g = DeserializeGraphSnapshot(bytes, nullptr);
    benchmark::DoNotOptimize(g.ok());
  }
}
BENCHMARK(BM_SnapshotDeserialize);

void BM_CloudServe(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const auto request =
        f.owner->AnonymizeQueryToRequest(f.queries[i % f.queries.size()]);
    auto answer = f.cloud->Serve(*request);
    benchmark::DoNotOptimize(answer.ok());
    ++i;
  }
}
BENCHMARK(BM_CloudServe);

void BM_ClientProcessResponse(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const AttributedGraph& query = f.queries.front();
  const auto request = f.owner->AnonymizeQueryToRequest(query);
  const auto answer = f.cloud->Serve(*request);
  for (auto _ : state) {
    auto results = f.owner->ProcessResponse(query, answer->response_payload);
    benchmark::DoNotOptimize(results.ok());
  }
}
BENCHMARK(BM_ClientProcessResponse);

void BM_GenericMatcher(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  const AttributedGraph& query = f.queries.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FindSubgraphMatches(query, f.g).NumMatches());
  }
}
BENCHMARK(BM_GenericMatcher);

// --- Graph-core microbenchmarks (bench_results/BENCH_graph_core.json) ---
// Traversal-bound loops over the storage layout: these are the numbers the
// CSR freeze is accountable to.

void BM_AdjacencyTraversal(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId v = 0; v < f.g.NumVertices(); ++v) {
      for (const VertexId u : f.g.Neighbors(v)) sum += u;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(f.g.NumEdges()));
}
BENCHMARK(BM_AdjacencyTraversal);

void BM_ForEachEdgeTraversal(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    size_t count = 0;
    f.g.ForEachEdge([&](VertexId, VertexId) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.g.NumEdges()));
}
BENCHMARK(BM_ForEachEdgeTraversal);

void BM_VertexDataScan(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (VertexId v = 0; v < f.g.NumVertices(); ++v) {
      for (const VertexTypeId t : f.g.Types(v)) sum += t;
      for (const LabelId l : f.g.Labels(v)) sum += l;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_VertexDataScan);

void BM_IndexBuild(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  const size_t num_types = f.g.schema()->NumTypes();
  const size_t num_groups = f.g.schema()->NumLabels();
  for (auto _ : state) {
    CloudIndex index =
        CloudIndex::Build(f.g, f.g.NumVertices(), num_types, num_groups)
            .value();
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
}
BENCHMARK(BM_IndexBuild);

void BM_BuilderBulkLoad(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    GraphBuilder b;
    b.ReserveVertices(f.g.NumVertices());
    b.ReserveEdges(f.g.NumEdges());
    for (VertexId v = 0; v < f.g.NumVertices(); ++v) {
      b.AddVertex(f.g.PrimaryType(v), {});
    }
    f.g.ForEachEdge([&](VertexId u, VertexId v) { b.TryAddEdge(u, v); });
    auto built = b.Build();
    benchmark::DoNotOptimize(built.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.g.NumEdges()));
}
BENCHMARK(BM_BuilderBulkLoad);

// The dedup probe on a hub-heavy edge stream (every edge touches vertex 0,
// fed twice). The builder's hash probe is O(1) per edge; the seed's
// sorted-vector scan — kept here as the reference — is O(degree), which
// made hub loads quadratic. Arg = hub degree.
void BM_BuilderHubDedup(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    GraphBuilder b;
    b.ReserveVertices(n + 1u);
    b.ReserveEdges(n);
    for (VertexId v = 0; v <= n; ++v) b.AddVertex(0, {});
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 1; v <= n; ++v) b.TryAddEdge(0, v);
    }
    benchmark::DoNotOptimize(b.NumEdges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_BuilderHubDedup)->Arg(1 << 10)->Arg(1 << 14);

void BM_LinearProbeHubDedup(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    std::vector<std::vector<VertexId>> adjacency(n + 1u);
    auto try_add = [&](VertexId u, VertexId v) {
      const auto& list = adjacency[u];
      if (std::find(list.begin(), list.end(), v) != list.end()) return false;
      adjacency[u].push_back(v);
      adjacency[v].push_back(u);
      return true;
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (VertexId v = 1; v <= n; ++v) try_add(0, v);
    }
    benchmark::DoNotOptimize(adjacency[0].size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          state.range(0));
}
BENCHMARK(BM_LinearProbeHubDedup)->Arg(1 << 10)->Arg(1 << 14);

void BM_GraphMemoryBytes(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) benchmark::DoNotOptimize(f.g.MemoryBytes());
  state.counters["graph_bytes"] = static_cast<double>(f.g.MemoryBytes());
}
BENCHMARK(BM_GraphMemoryBytes);

// --- Query hot-path benchmarks ---
// Unit matching and the automorphism-aware probe join, isolated from the
// request/response plumbing. The A/B axes: thread count (the ParallelFor
// chunking), aux graph on/off, and k (the probe's k-independent memory —
// watch the indexed_rows counter).

struct JoinWorkload {
  AttributedGraph g;
  Lct lct;
  KAutomorphicGraph kag;
  OutsourcedGraph go;
  CloudIndex index;
  GkStatistics stats;
  std::vector<AttributedGraph> qos;
  std::vector<std::vector<QueryUnit>> plans;        // Depth-1: stars only.
  std::vector<std::vector<UnitMatches>> star_sets;  // Gk vertex ids.

  /// One workload per k, built lazily and cached for the binary's lifetime.
  static JoinWorkload& Get(uint32_t k) {
    static auto* cache = new std::map<uint32_t, std::unique_ptr<JoinWorkload>>;
    auto it = cache->find(k);
    if (it != cache->end()) return *it->second;
    auto w = std::make_unique<JoinWorkload>();
    DatasetConfig config = DbpediaLike(0.05);
    auto g = GenerateDataset(config);
    PPSM_CHECK_OK(g);
    w->g = std::move(g).value();
    GroupingOptions gopts;
    gopts.theta = 2;
    auto lct =
        BuildLct(GroupingStrategy::kCostModel, *w->g.schema(), w->g, gopts);
    PPSM_CHECK_OK(lct);
    w->lct = std::move(lct).value();
    auto anonymized = w->lct.AnonymizeGraph(w->g);
    PPSM_CHECK_OK(anonymized);
    KAutomorphismOptions kopts;
    kopts.k = k;
    auto kag = BuildKAutomorphicGraph(*anonymized, kopts);
    PPSM_CHECK_OK(kag);
    w->kag = std::move(kag).value();
    auto go = BuildOutsourcedGraph(w->kag);
    PPSM_CHECK_OK(go);
    w->go = std::move(go).value();
    std::vector<VertexTypeId> type_of_group;
    for (GroupId gid = 0; gid < w->lct.NumGroups(); ++gid) {
      type_of_group.push_back(w->lct.TypeOfGroup(gid));
    }
    w->stats =
        ComputeGkStatistics(w->go, w->g.schema()->NumTypes(), type_of_group);
    w->index = CloudIndex::Build(w->go.graph, w->go.num_b1,
                                 w->g.schema()->NumTypes(),
                                 w->lct.NumGroups())
                  .value();

    // Multi-star queries with non-empty joins, keeping the heaviest by
    // intermediate size: the join benches must measure join work, not
    // empty-anchor short-circuits or trivial two-row intermediates.
    struct Candidate {
      size_t peak_rows;
      AttributedGraph qo;
      std::vector<QueryUnit> plan;
      std::vector<UnitMatches> stars;
    };
    std::vector<Candidate> candidates;
    Rng rng(17);
    for (int attempt = 0; attempt < 80; ++attempt) {
      auto extracted = ExtractQuery(w->g, 7, rng);
      PPSM_CHECK_OK(extracted);
      auto qo = w->lct.AnonymizeGraph(extracted->query);
      PPSM_CHECK_OK(qo);
      auto decomposition = DecomposeQueryUnits(*qo, w->stats, 1);
      PPSM_CHECK_OK(decomposition);
      if (decomposition->units.size() < 2) continue;
      std::vector<UnitMatches> stars =
          MatchUnits(w->go.graph, w->index, *qo, decomposition->units);
      for (UnitMatches& star : stars) {
        MatchSet translated(star.matches.arity());
        std::vector<VertexId> row(star.matches.arity());
        for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
          const auto local = star.matches.Get(r);
          for (size_t i = 0; i < local.size(); ++i) {
            row[i] = w->go.ToGk(local[i]);
          }
          translated.Append(row);
        }
        star.matches = std::move(translated);
      }
      JoinDiagnostics diagnostics;
      JoinOptions probe_options;
      auto rin = JoinUnitMatches(stars, w->kag.avt, qo->NumVertices(),
                                 probe_options, &diagnostics);
      if (!rin.ok() || rin->NumMatches() == 0) continue;
      candidates.push_back(Candidate{diagnostics.peak_rows, std::move(*qo),
                                     std::move(decomposition->units),
                                     std::move(stars)});
    }
    PPSM_CHECK(!candidates.empty());
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.peak_rows > b.peak_rows;
              });
    for (size_t i = 0; i < std::min<size_t>(candidates.size(), 6); ++i) {
      w->qos.push_back(std::move(candidates[i].qo));
      w->plans.push_back(std::move(candidates[i].plan));
      w->star_sets.push_back(std::move(candidates[i].stars));
    }
    auto& slot = (*cache)[k];
    slot = std::move(w);
    return *slot;
  }
};

// Args: {threads, use_aux_graph}. Star plans (depth-1 units). The {t, 0}
// rows are the filter-while-walking inner loop, the {t, 1} rows the
// aux-graph + intersection-kernel path — same rows byte for byte, so the
// delta is pure inner-loop speedup.
void BM_MatchStarsThreads(benchmark::State& state) {
  JoinWorkload& w = JoinWorkload::Get(3);
  UnitMatchOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.use_aux_graph = state.range(1) != 0;
  for (auto _ : state) {
    size_t rows = 0;
    for (size_t q = 0; q < w.qos.size(); ++q) {
      const auto stars =
          MatchUnits(w.go.graph, w.index, w.qos[q], w.plans[q], options);
      for (const UnitMatches& star : stars) rows += star.matches.NumMatches();
    }
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_MatchStarsThreads)
    ->ArgsProduct({{1, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// --- Set-intersection kernels (the aux matcher's inner primitive) ---

std::vector<uint32_t> SortedUniverseSample(Rng& rng, size_t n,
                                           uint64_t universe) {
  std::vector<uint32_t> out;
  out.reserve(n);
  uint32_t v = 0;
  // Sorted-by-construction sampling: strictly increasing gaps drawn so the
  // expected max stays inside `universe`.
  const uint64_t gap = std::max<uint64_t>(1, universe / (n + 1));
  for (size_t i = 0; i < n; ++i) {
    v += 1 + static_cast<uint32_t>(rng.Below(2 * gap - 1));
    out.push_back(v);
  }
  return out;
}

// Args: {kernel, smaller size, size ratio}. Ratio 1 is the balanced regime
// (SIMD's home), 64 the skewed regime (galloping's home); kAuto should
// track the best kernel in both.
void BM_IntersectKernel(benchmark::State& state) {
  const auto kernel = static_cast<IntersectKernel>(state.range(0));
  const size_t small_n = static_cast<size_t>(state.range(1));
  const size_t large_n = small_n * static_cast<size_t>(state.range(2));
  Rng rng(91);
  const auto a = SortedUniverseSample(rng, small_n, large_n * 4);
  const auto b = SortedUniverseSample(rng, large_n, large_n * 4);
  std::vector<uint32_t> out(small_n + kIntersectSlack);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectSorted(a, b, out.data(), kernel));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(small_n + large_n));
  state.SetLabel(IntersectKernelName(kernel));
}
BENCHMARK(BM_IntersectKernel)
    ->ArgsProduct({{0, 1, 2, 3}, {64, 1024}, {1, 64}});

// Args: {threads, use_index}. use_index = 1 is the serving path: the hosted
// index's leaf VBVs turn each class into a handful of word-level ANDs.
// use_index = 0 is the index-less fallback (one pass over the CSR pools).
void BM_AuxGraphBuild(benchmark::State& state) {
  JoinWorkload& w = JoinWorkload::Get(3);
  const size_t threads = static_cast<size_t>(state.range(0));
  const CloudIndex* index = state.range(1) != 0 ? &w.index : nullptr;
  for (auto _ : state) {
    size_t bytes = 0;
    for (const AttributedGraph& qo : w.qos) {
      bytes +=
          QueryAuxGraph::Build(w.go.graph, qo, threads, index).MemoryBytes();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.qos.size()));
}
BENCHMARK(BM_AuxGraphBuild)
    ->ArgsProduct({{1, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Args: {shape (0 = long path, 1 = deep tree), use_aux_graph}. Depth-2
// candidate units over shaped queries — the unit matcher's recursive slot
// loop, where every slot pays a full adjacency filter on the aux-off path.
void BM_MatchUnitsShaped(benchmark::State& state) {
  JoinWorkload& w = JoinWorkload::Get(3);
  const QueryShape shape =
      state.range(0) == 0 ? QueryShape::kPath : QueryShape::kTree;
  const size_t query_edges = state.range(0) == 0 ? 6 : 8;
  Rng rng(11 + state.range(0));
  std::vector<AttributedGraph> qos;
  std::vector<std::vector<QueryUnit>> unit_sets;
  for (int attempt = 0; attempt < 40 && qos.size() < 4; ++attempt) {
    auto extracted = ExtractShapedQuery(w.g, shape, query_edges, rng);
    if (!extracted.ok()) continue;
    auto qo = w.lct.AnonymizeGraph(extracted->query);
    PPSM_CHECK_OK(qo);
    auto units = EnumerateCandidateUnits(*qo, /*max_depth=*/2);
    if (units.empty()) continue;
    qos.push_back(std::move(*qo));
    unit_sets.push_back(std::move(units));
  }
  PPSM_CHECK(!qos.empty());
  UnitMatchOptions options;
  options.use_aux_graph = state.range(1) != 0;
  for (auto _ : state) {
    size_t rows = 0;
    for (size_t q = 0; q < qos.size(); ++q) {
      const auto matched =
          MatchUnits(w.go.graph, w.index, qos[q], unit_sets[q], options);
      for (const UnitMatches& unit : matched) {
        rows += unit.matches.NumMatches();
      }
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel(state.range(0) == 0 ? "long_path" : "deep_tree");
}
BENCHMARK(BM_MatchUnitsShaped)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Args: {k, threads}.
void BM_JoinProbe(benchmark::State& state) {
  JoinWorkload& w = JoinWorkload::Get(static_cast<uint32_t>(state.range(0)));
  JoinOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  size_t indexed_rows = 0;
  size_t peak_rows = 0;
  for (auto _ : state) {
    JoinDiagnostics diagnostics;
    size_t rows = 0;
    for (size_t q = 0; q < w.qos.size(); ++q) {
      auto rin = JoinUnitMatches(w.star_sets[q], w.kag.avt,
                                 w.qos[q].NumVertices(), options,
                                 &diagnostics);
      PPSM_CHECK_OK(rin);
      rows += rin->NumMatches();
    }
    benchmark::DoNotOptimize(rows);
    indexed_rows = diagnostics.indexed_rows;
    peak_rows = diagnostics.peak_rows;
  }
  // The memory story: the probe hash-indexes each unit once, un-expanded —
  // indexed_rows is what the join materializes beyond its output, and it
  // does not grow with k.
  state.counters["indexed_rows"] = static_cast<double>(indexed_rows);
  state.counters["peak_rows"] = static_cast<double>(peak_rows);
}
BENCHMARK(BM_JoinProbe)
    ->ArgsProduct({{2, 4, 8}, {1, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_LctBuildEff(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  GroupingOptions options;
  options.theta = 2;
  for (auto _ : state) {
    auto lct = BuildLct(GroupingStrategy::kCostModel, *f.g.schema(), f.g,
                        options);
    benchmark::DoNotOptimize(lct.ok());
  }
}
BENCHMARK(BM_LctBuildEff);

}  // namespace
}  // namespace ppsm

BENCHMARK_MAIN();
