#include "cloud/cluster.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "cloud/shard_exchange.h"
#include "match/result_join.h"
#include "match/unit_matcher.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/lru_cache.h"
#include "util/timer.h"

namespace ppsm {

namespace {

/// Per-phase intermediate-row budget. A unit or join state larger than this
/// means the (anonymized) query is degenerate for exact answering; the cloud
/// refuses with ResourceExhausted rather than exhausting memory. Each shard
/// enforces it during unit matching and the coordinator re-checks the merged
/// totals, so the refusal boundary is the same at every shard count: a unit
/// that would truncate on the whole upload either truncates on some shard or
/// overflows the merged stream.
constexpr size_t kMaxRows = 2'000'000;

using SteadyClock = std::chrono::steady_clock;

/// Per-query evaluation metrics in the global registry, resolved once.
/// CloudQueryStats stays the per-query view returned to callers; these
/// accumulate across queries for export (DESIGN.md "Observability").
struct CloudMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter stars;
  MetricsRegistry::Counter rs_rows;
  MetricsRegistry::Counter result_rows;
  MetricsRegistry::Counter plan_cache_hits;
  MetricsRegistry::Counter plan_cache_misses;
  MetricsRegistry::Counter deadline_exceeded;
  MetricsRegistry::Histogram decomposition_ms;
  MetricsRegistry::Histogram star_matching_ms;
  MetricsRegistry::Histogram join_ms;
  MetricsRegistry::Histogram query_ms;
  MetricsRegistry::Histogram star_rows;
  MetricsRegistry::Histogram join_estimate_ratio;
  MetricsRegistry::Gauge plan_cache_entries;

  static const CloudMetrics& Get() {
    static const CloudMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      CloudMetrics metrics;
      metrics.queries =
          r.counter("ppsm_cloud_queries_total", "Queries answered");
      metrics.stars = r.counter("ppsm_cloud_stars_total",
                                "Stars across all decompositions");
      metrics.rs_rows =
          r.counter("ppsm_cloud_rs_rows_total", "Star matches |RS|");
      metrics.result_rows =
          r.counter("ppsm_cloud_result_rows_total", "Joined rows returned");
      metrics.plan_cache_hits =
          r.counter("ppsm_cloud_plan_cache_hits_total",
                    "Decompositions served from the plan cache");
      metrics.plan_cache_misses =
          r.counter("ppsm_cloud_plan_cache_misses_total",
                    "Decompositions that ran the ILP solver");
      metrics.deadline_exceeded =
          r.counter("ppsm_cloud_deadline_exceeded_total",
                    "Queries abandoned at their deadline");
      metrics.decomposition_ms =
          r.histogram("ppsm_cloud_decomposition_ms", DefaultLatencyBucketsMs(),
                      "Query decomposition time");
      metrics.star_matching_ms =
          r.histogram("ppsm_cloud_star_matching_ms", DefaultLatencyBucketsMs(),
                      "Star matching phase time");
      metrics.join_ms = r.histogram("ppsm_cloud_join_ms",
                                    DefaultLatencyBucketsMs(),
                                    "Result join time");
      metrics.query_ms = r.histogram("ppsm_cloud_query_ms",
                                     DefaultLatencyBucketsMs(),
                                     "Cloud query evaluation time");
      metrics.star_rows =
          r.histogram("ppsm_cloud_star_match_rows", DefaultCountBuckets(),
                      "Matches per star");
      // Estimate/actual join-step ratio buckets: powers of two around 1.0
      // (1.0 = perfectly calibrated cost model; the tails are the
      // mis-ordered joins worth staring at).
      metrics.join_estimate_ratio = r.histogram(
          "ppsm_cloud_join_step_estimate_ratio",
          {0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0},
          "Cost-model (estimate+1)/(actual+1) per join step");
      metrics.plan_cache_entries =
          r.gauge("ppsm_cloud_plan_cache_entries",
                  "Plan-cache occupancy (last hosted cluster)");
      return metrics;
    }();
    return m;
  }
};

/// Shard-exchange metrics; only sharded deployments record them.
struct ClusterMetrics {
  MetricsRegistry::Counter exchanged_bytes;
  MetricsRegistry::Histogram exchange_ms;
  MetricsRegistry::Histogram shard_rows;
  MetricsRegistry::Gauge shards;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ClusterMetrics metrics;
      metrics.exchanged_bytes =
          r.counter("ppsm_cluster_exchanged_bytes_total",
                    "Star-row bytes shipped shard -> coordinator");
      metrics.exchange_ms =
          r.histogram("ppsm_cluster_exchange_ms", DefaultLatencyBucketsMs(),
                      "Per-shard exchange transfer time");
      metrics.shard_rows =
          r.histogram("ppsm_cluster_shard_rows", DefaultCountBuckets(),
                      "Un-expanded rows contributed per shard per query");
      metrics.shards =
          r.gauge("ppsm_cluster_shards", "Shards of the last hosted cluster");
      return metrics;
    }();
    return m;
  }
};

Status MakeDeadlineExceeded(const char* phase) {
  CloudMetrics::Get().deadline_exceeded.Increment();
  return Status::DeadlineExceeded(std::string("query deadline exceeded (") +
                                  phase + ")");
}

/// Rewrites every row of `units` through `map` (source id -> target id).
void TranslateRows(std::vector<UnitMatches>& units,
                   const std::vector<VertexId>& map) {
  for (UnitMatches& unit : units) {
    MatchSet translated(unit.matches.arity());
    translated.ReserveAdditional(unit.matches.NumMatches());
    std::vector<VertexId> row(unit.matches.arity());
    for (size_t r = 0; r < unit.matches.NumMatches(); ++r) {
      const auto from = unit.matches.Get(r);
      for (size_t i = 0; i < from.size(); ++i) row[i] = map[from[i]];
      translated.Append(row);
    }
    unit.matches = std::move(translated);
  }
}

}  // namespace

Result<ShardingPlan> BuildShardUploads(const UploadPackage& package,
                                       uint32_t num_shards, uint64_t seed) {
  if (package.IsBaseline()) {
    return Status::InvalidArgument(
        "sharding requires the optimized upload shape; the BAS baseline "
        "ships all of Gk and has no partitionable B1 block");
  }
  if (!package.go.has_value() || !package.avt.has_value()) {
    return Status::InvalidArgument("optimized upload lacks Go or AVT");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const OutsourcedGraph& go = *package.go;
  const size_t num_b1 = go.num_b1;
  const size_t num_vertices = go.graph.NumVertices();
  if (num_b1 == 0) {
    return Status::InvalidArgument("cannot shard an empty B1 block");
  }

  // Partition the B1-induced subgraph only: N1 halo vertices follow their
  // B1 neighbors into whichever slices need them, so assigning them own
  // parts would just distort the balance objective.
  GraphBuilder b1_builder;
  b1_builder.ReserveVertices(num_b1);
  for (VertexId v = 0; v < num_b1; ++v) {
    b1_builder.AddVertex(
        std::vector<VertexTypeId>(go.graph.Types(v).begin(),
                                  go.graph.Types(v).end()),
        std::vector<LabelId>(go.graph.Labels(v).begin(),
                             go.graph.Labels(v).end()));
  }
  go.graph.ForEachEdge([&](VertexId u, VertexId v) {
    if (v < num_b1) b1_builder.AddEdgeUnchecked(u, v);  // u < v always.
  });
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph b1_graph, b1_builder.Build());

  PartitionOptions part_options;
  part_options.num_parts = num_shards;
  part_options.seed = seed;
  ShardingPlan plan;
  PPSM_ASSIGN_OR_RETURN(plan.partitioning,
                        PartitionGraph(b1_graph, part_options));
  const std::vector<uint32_t>& part = plan.partitioning.part;

  // Global statistics, computed once and replicated: every shard must plan
  // against the SAME distribution (a slice's B1 subset is a biased sample).
  const GkStatistics stats = ComputeGkStatistics(
      go, package.num_types,
      std::vector<VertexTypeId>(package.type_of_group));

  const uint32_t hops = std::max<uint32_t>(go.hops, 1);
  plan.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    // Slice vertex set: owned B1 vertices plus everything within `hops` of
    // them (the one-hop halo at the paper's radius), in ascending global id
    // order — so slice-local ids are monotone in global ids (adjacency
    // order preserved) and the slice's B1 vertices form a local prefix (B1
    // globals precede every deeper ring by Go's layout). The distance-
    // bounded halo is exactly what owned-rooted units of depth <= hops
    // touch, mirroring the h-hop Go extraction around B1.
    std::vector<uint32_t> dist(num_vertices, UINT32_MAX);
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < num_b1; ++v) {
      if (part[v] != s) continue;
      dist[v] = 0;
      frontier.push_back(v);
    }
    for (uint32_t d = 1; d <= hops && !frontier.empty(); ++d) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId n : go.graph.Neighbors(u)) {
          if (dist[n] == UINT32_MAX) {
            dist[n] = d;
            next.push_back(n);
          }
        }
      }
      frontier = std::move(next);
    }
    ShardUpload upload;
    upload.shard = s;
    upload.num_shards = num_shards;
    upload.global_vertices = num_vertices;
    upload.global_b1 = num_b1;
    std::vector<VertexId> to_local(num_vertices, kInvalidVertex);
    for (VertexId g = 0; g < num_vertices; ++g) {
      if (dist[g] == UINT32_MAX) continue;
      to_local[g] = static_cast<VertexId>(upload.to_global.size());
      upload.to_global.push_back(g);
    }

    GraphBuilder slice_builder;
    slice_builder.ReserveVertices(upload.to_global.size());
    OutsourcedGraph slice;
    slice.k = package.k;
    slice.hops = hops;
    for (const VertexId g : upload.to_global) {
      slice_builder.AddVertex(
          std::vector<VertexTypeId>(go.graph.Types(g).begin(),
                                    go.graph.Types(g).end()),
          std::vector<LabelId>(go.graph.Labels(g).begin(),
                               go.graph.Labels(g).end()));
      slice.to_gk.push_back(go.to_gk[g]);
      const bool owned = g < num_b1 && part[g] == s;
      upload.owned.push_back(owned ? 1 : 0);
      if (g < num_b1) ++slice.num_b1;
    }
    // Slice edges: every Go edge with an endpoint within hops - 1 of the
    // owned set (at radius 1: an owned endpoint; both endpoints are then in
    // the slice by construction). Canonical rule — when both endpoints
    // qualify, the smaller global id emits — adds each edge exactly once.
    // This is the full edge set an owned-rooted unit of depth <= hops can
    // traverse: its depth-j parent vertices sit within j <= hops - 1 of an
    // owned root.
    for (VertexId u = 0; u < num_vertices; ++u) {
      if (dist[u] >= hops) continue;  // Outside the emitting prefix.
      for (const VertexId v : go.graph.Neighbors(u)) {
        const bool v_emits = dist[v] < hops;
        if (v_emits && v < u) continue;  // Emitted from v's side.
        slice_builder.AddEdgeUnchecked(to_local[u], to_local[v]);
      }
    }
    PPSM_ASSIGN_OR_RETURN(slice.graph, slice_builder.Build());

    upload.package.k = package.k;
    upload.package.num_types = package.num_types;
    upload.package.type_of_group = package.type_of_group;
    upload.package.go = std::move(slice);
    upload.package.avt = *package.avt;  // Full table on every shard.
    upload.stats = stats;
    plan.shards.push_back(std::move(upload));
  }
  return plan;
}

/// The decomposition memo: ILP plans keyed by canonical Qo signature. The
/// only mutable state of a hosted cluster, guarded by `mu` so Serve stays
/// const and thread-safe. Heap-allocated because std::mutex pins the
/// address and CloudCluster is moved out of Host().
struct CloudCluster::PlanCache {
  explicit PlanCache(size_t capacity) : plans(capacity) {}

  std::mutex mu;
  LruCache<std::string, UnitDecomposition> plans;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

CloudCluster::~CloudCluster() = default;
CloudCluster::CloudCluster(CloudCluster&&) noexcept = default;
CloudCluster& CloudCluster::operator=(CloudCluster&&) noexcept = default;

Result<CloudCluster> CloudCluster::Host(
    std::span<const uint8_t> package_bytes, const ClusterConfig& config,
    const ShardConfig& shard_config, const ChannelConfig& channel_config) {
  PPSM_ASSIGN_OR_RETURN(UploadPackage package,
                        UploadPackage::Deserialize(package_bytes));
  return Host(std::move(package), config, shard_config, channel_config);
}

Result<CloudCluster> CloudCluster::Host(UploadPackage package,
                                        const ClusterConfig& config,
                                        const ShardConfig& shard_config,
                                        const ChannelConfig& channel_config) {
  if (config.num_shards > 1) {
    PPSM_ASSIGN_OR_RETURN(
        ShardingPlan plan,
        BuildShardUploads(package, config.num_shards, config.partition_seed));
    return HostShards(std::move(plan.shards), config, shard_config,
                      channel_config);
  }
  // One shard hosts the upload itself — no re-slicing. Go already is the
  // one slice BuildShardUploads would cut: it holds exactly the vertices
  // within `hops` of B1 and the edges within hops - 1 of B1. The baseline's
  // slice is all of Gk under the identity AVT.
  CloudCluster cluster;
  PPSM_ASSIGN_OR_RETURN(
      CloudServer server,
      CloudServer::Host(std::move(package),
                        ToCloudConfig(shard_config, config)));
  cluster.shards_.push_back(std::move(server));
  PPSM_RETURN_IF_ERROR(cluster.Init(config, shard_config, channel_config));
  return cluster;
}

Result<CloudCluster> CloudCluster::HostShards(
    std::vector<ShardUpload> shard_uploads, const ClusterConfig& config,
    const ShardConfig& shard_config, const ChannelConfig& channel_config) {
  if (shard_uploads.empty()) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  const uint32_t num_shards = static_cast<uint32_t>(shard_uploads.size());
  const uint64_t global_vertices = shard_uploads[0].global_vertices;
  const uint64_t global_b1 = shard_uploads[0].global_b1;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const ShardUpload& upload = shard_uploads[s];
    if (upload.shard != s || upload.num_shards != num_shards) {
      return Status::InvalidArgument("shard uploads out of order");
    }
    if (upload.package.IsBaseline() || !upload.package.go.has_value() ||
        !upload.package.avt.has_value()) {
      return Status::InvalidArgument("shard upload is not a slice package");
    }
    if (upload.global_vertices != global_vertices ||
        upload.global_b1 != global_b1 ||
        upload.package.k != shard_uploads[0].package.k) {
      return Status::InvalidArgument("shard uploads disagree on the graph");
    }
    if (upload.to_global.size() != upload.package.go->graph.NumVertices() ||
        upload.owned.size() != upload.to_global.size()) {
      return Status::InvalidArgument("shard id maps disagree with the slice");
    }
  }

  // Reassemble the global id maps from the slices, validating that halo
  // overlaps agree and that ownership covers every B1 vertex exactly once.
  CloudCluster cluster;
  cluster.to_gk_.assign(global_vertices, kInvalidVertex);
  cluster.go_degree_.assign(global_b1, SIZE_MAX);
  for (const ShardUpload& upload : shard_uploads) {
    const OutsourcedGraph& slice = *upload.package.go;
    for (size_t l = 0; l < upload.to_global.size(); ++l) {
      const VertexId g = upload.to_global[l];
      if (g >= global_vertices) {
        return Status::InvalidArgument("shard id map out of range");
      }
      if (cluster.to_gk_[g] != kInvalidVertex &&
          cluster.to_gk_[g] != slice.to_gk[l]) {
        return Status::InvalidArgument("shards disagree on a Gk id");
      }
      cluster.to_gk_[g] = slice.to_gk[l];
      if (upload.owned[l] != 0) {
        if (g >= global_b1) {
          return Status::InvalidArgument("owned vertex outside B1");
        }
        if (cluster.go_degree_[g] != SIZE_MAX) {
          return Status::InvalidArgument("B1 vertex owned by two shards");
        }
        cluster.go_degree_[g] = slice.graph.Degree(
            static_cast<VertexId>(l));
      }
    }
  }
  for (VertexId g = 0; g < global_b1; ++g) {
    if (cluster.go_degree_[g] == SIZE_MAX) {
      return Status::InvalidArgument("B1 vertex owned by no shard");
    }
  }
  // N1 vertices of the unsharded Go all neighbor some B1 vertex, so every
  // global id referenced by any slice is covered; ids no slice mentions
  // (possible only for N1 vertices that neighbor no owned vertex — which
  // cannot happen, as ownership covers B1) would be caught at query time.

  cluster.shards_.reserve(num_shards);
  cluster.to_global_.reserve(num_shards);
  cluster.owned_.reserve(num_shards);
  for (ShardUpload& upload : shard_uploads) {
    cluster.to_global_.push_back(std::move(upload.to_global));
    cluster.owned_.push_back(std::move(upload.owned));
    PPSM_ASSIGN_OR_RETURN(
        CloudServer server,
        CloudServer::HostSlice(std::move(upload.package),
                               std::move(upload.stats), shard_config));
    cluster.shards_.push_back(std::move(server));
  }
  PPSM_RETURN_IF_ERROR(cluster.Init(config, shard_config, channel_config));
  return cluster;
}

Status CloudCluster::Init(const ClusterConfig& config,
                          const ShardConfig& shard_config,
                          const ChannelConfig& channel_config) {
  config_ = config;
  config_.num_shards = num_shards();
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  shard_config_ = shard_config;
  if (shard_config_.num_threads == 0) shard_config_.num_threads = 1;
  if (shard_config.plan_cache_entries > 0) {
    plan_cache_ = std::make_unique<PlanCache>(shard_config.plan_cache_entries);
  }
  channels_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    PPSM_ASSIGN_OR_RETURN(SimulatedChannel channel,
                          SimulatedChannel::Create(channel_config));
    channels_.push_back(std::move(channel));
  }
  CloudMetrics::Get().plan_cache_entries.Set(0.0);
  ClusterMetrics::Get().shards.Set(static_cast<double>(shards_.size()));
  return Status::OK();
}

PlanCacheStats CloudCluster::plan_cache_stats() const {
  PlanCacheStats stats;
  if (plan_cache_ == nullptr) return stats;
  std::lock_guard<std::mutex> lock(plan_cache_->mu);
  stats.hits = plan_cache_->hits;
  stats.misses = plan_cache_->misses;
  stats.entries = plan_cache_->plans.size();
  stats.capacity = plan_cache_->plans.capacity();
  return stats;
}

size_t CloudCluster::ExchangedBytes() const {
  size_t total = 0;
  for (size_t s = 1; s < channels_.size(); ++s) {
    total += channels_[s].total_bytes();
  }
  return total;
}

Result<UnitDecomposition> CloudCluster::Plan(const AttributedGraph& qo) const {
  const CloudServer& first = shards_[0];
  if (shards_.size() == 1) {
    // The only shard owns every center under global ids: its own index and
    // degrees are the global ones.
    return DecomposeQueryUnits(qo, first.statistics(), first.data(),
                               first.index(), first.EffectiveUnitDepth());
  }
  // Each shard shortlists its owned root candidates (their slice verdicts
  // equal the global ones — an owned vertex's adjacency is complete in its
  // slice); the coordinator merges the disjoint lists into ascending global
  // order and evaluates the candidate-aware estimator itself, reproducing
  // the unsharded cost sums bit for bit.
  std::vector<QueryUnit> units =
      EnumerateCandidateUnits(qo, first.EffectiveUnitDepth());
  // Merged owned candidates (ascending global id) and their full Go
  // degrees, once per query vertex — shared by every unit rooted there.
  std::vector<std::vector<VertexId>> merged(qo.NumVertices());
  std::vector<std::vector<size_t>> degrees(qo.NumVertices());
  for (VertexId v = 0; v < qo.NumVertices(); ++v) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<VertexId> local =
          shards_[s].index().CandidateCenters(qo, v);
      for (const VertexId l : local) {
        if (owned_[s][l] != 0) merged[v].push_back(to_global_[s][l]);
      }
    }
    std::sort(merged[v].begin(), merged[v].end());
    degrees[v].reserve(merged[v].size());
    for (const VertexId g : merged[v]) {
      degrees[v].push_back(go_degree_[g]);
    }
  }
  std::vector<double> costs;
  costs.reserve(units.size());
  for (const QueryUnit& unit : units) {
    costs.push_back(EstimateUnitCardinalityForCandidates(
        first.statistics(), qo, unit, merged[unit.root()],
        degrees[unit.root()]));
  }
  return DecomposeQueryUnitsWithCosts(qo, std::move(units), std::move(costs));
}

Result<WireAnswer> CloudCluster::Serve(std::span<const uint8_t> qo_bytes,
                                       const QueryContext& ctx) const {
  // Per-query stats, filled as the phases run and published to ctx.stats on
  // EVERY return path — failure included — via this scope guard. The
  // Result<WireAnswer> cannot carry stats on an error, and the failed
  // queries are exactly the ones the flight recorder needs full accounting
  // for. A direct call (no admission) mints its own query id.
  CloudQueryStats stats;
  stats.query_id =
      ctx.query_id != 0 ? ctx.query_id : FlightRecorder::NextQueryId();
  stats.queue_wait_ms = ctx.queue_wait_ms;
  struct StatsPublisher {
    CloudQueryStats* from;
    CloudQueryStats* to;
    ~StatsPublisher() {
      if (to != nullptr) *to = *from;
    }
  } publisher{&stats, ctx.stats};

  WallTimer total_timer;
  const SteadyClock::time_point deadline = ctx.deadline;
  const bool has_deadline = deadline != SteadyClock::time_point::max();
  const auto timeout = [&](const char* phase) {
    stats.timed_out_phase = phase;
    stats.total_ms = total_timer.ElapsedMillis();
    return MakeDeadlineExceeded(phase);
  };
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("on admission");
  }
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph qo,
                        DeserializeQueryRequest(qo_bytes));
  if (qo.NumVertices() == 0) {
    return Status::InvalidArgument("empty query");
  }

  TraceSpan query_span(Tracer::Global(), "cloud.answer_query", "query");
  query_span.AddArg("query_id", stats.query_id);
  const CloudMetrics& metrics = CloudMetrics::Get();
  const bool sharded = shards_.size() > 1;

  // Phase 1: cost-model query decomposition (exact ILP) over generalized
  // units — stars always, paths/trees up to the depth the hosted radius
  // supports — candidate-aware so hub-rooted units with astronomic match
  // sets are avoided. At depth 1 this is the paper's §4.2.1 star
  // decomposition, plan for plan. The plan is pure in (Qo, hosted graph,
  // depth cap — fixed per cluster), so repeated workload shapes hit the
  // plan cache and skip the solver entirely.
  WallTimer phase_timer;
  std::optional<UnitDecomposition> cached;
  std::string signature;
  if (plan_cache_ != nullptr) {
    signature = QoSignature(qo);
    std::lock_guard<std::mutex> lock(plan_cache_->mu);
    cached = plan_cache_->plans.Get(signature);
    if (cached.has_value()) {
      ++plan_cache_->hits;
    } else {
      ++plan_cache_->misses;
    }
  }
  UnitDecomposition decomposition;
  if (cached.has_value()) {
    decomposition = *std::move(cached);
    stats.plan_cache_hit = true;
    metrics.plan_cache_hits.Increment();
  } else {
    Result<UnitDecomposition> decomposition_or = [&] {
      PPSM_TRACE_SPAN_CAT("cloud.decompose", "query");
      return Plan(qo);
    }();
    PPSM_ASSIGN_OR_RETURN(decomposition, std::move(decomposition_or));
    if (plan_cache_ != nullptr) {
      metrics.plan_cache_misses.Increment();
      std::lock_guard<std::mutex> lock(plan_cache_->mu);
      plan_cache_->plans.Put(std::move(signature), decomposition);
      metrics.plan_cache_entries.Set(
          static_cast<double>(plan_cache_->plans.size()));
    }
  }
  stats.decomposition_ms = phase_timer.ElapsedMillis();
  stats.num_stars = decomposition.units.size();
  metrics.decomposition_ms.Observe(stats.decomposition_ms);
  metrics.stars.Increment(decomposition.units.size());
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("after decomposition");
  }

  // Phase 2: unit matching (Algorithm 1, generalized). Every shard matches
  // the same units over its slice, restricted to its owned candidate
  // roots. MatchUnits spreads the units across the pool workers and chunks
  // each candidate-root loop, all bounded by the row cap so pathological
  // queries fail with ResourceExhausted instead of exhausting the machine.
  // An expired deadline cancels the remaining units and candidate chunks,
  // so the query stops within one chunk of expiry.
  phase_timer.Restart();
  UnitMatchOptions unit_options;
  unit_options.max_rows = kMaxRows;
  unit_options.num_threads = shard_config_.num_threads;
  unit_options.use_aux_graph = shard_config_.aux_graph;
  unit_options.intersect_kernel = shard_config_.intersect_kernel;
  // Aggregated across shards: each shard builds its own slice-local aux
  // graph, so build time and footprint sum, as do the kernel counters.
  MatchPhaseStats phase_stats;
  unit_options.phase_stats = &phase_stats;
  if (has_deadline) {
    unit_options.cancelled = [deadline] {
      return SteadyClock::now() >= deadline;
    };
  }
  std::vector<std::vector<UnitMatches>> shard_rows(shards_.size());
  // The wire codec ships rows/columns only, so the skipped flag (like the
  // unit kind below) is captured before the exchange. A unit is reported
  // skipped when every shard skipped it — a shard that ran it contributes
  // real rows to the merge.
  std::vector<uint8_t> unit_skipped(decomposition.units.size(), 1);
  if (sharded) stats.shards.resize(shards_.size());
  {
    TraceSpan span(Tracer::Global(), "cloud.star_match", "query");
    span.AddArg("query_id", stats.query_id);
    span.AddArg("num_stars",
                static_cast<uint64_t>(decomposition.units.size()));
    for (size_t s = 0; s < shards_.size(); ++s) {
      WallTimer shard_timer;
      if (sharded) {
        const std::vector<uint8_t>& owned = owned_[s];
        unit_options.candidate_filter = [&owned](VertexId v) {
          return owned[v] != 0;
        };
      }
      shard_rows[s] = MatchUnits(shards_[s].data(), shards_[s].index(), qo,
                                 decomposition.units, unit_options);
      for (size_t i = 0;
           i < shard_rows[s].size() && i < unit_skipped.size(); ++i) {
        if (!shard_rows[s][i].skipped) unit_skipped[i] = 0;
      }
      // The only shard's rows go straight to Gk ids. Shard rows go to
      // global Go-local ids instead — the monotone id space the merge
      // interleaves in (to_gk follows AVT row order and is not monotone).
      TranslateRows(shard_rows[s],
                    sharded ? to_global_[s] : shards_[0].to_gk());
      if (!sharded) continue;
      ShardProfile& profile = stats.shards[s];
      profile.shard = static_cast<uint32_t>(s);
      for (const UnitMatches& unit : shard_rows[s]) {
        profile.candidates += unit.num_candidates;
        profile.rows += unit.matches.NumMatches();
      }
      profile.match_ms = shard_timer.ElapsedMillis();
      ClusterMetrics::Get().shard_rows.Observe(
          static_cast<double>(profile.rows));
    }
  }

  // Phase 2b: BSP exchange — every shard but the coordinator-colocated
  // shard 0 ships its un-expanded rows over its simulated link. The bytes
  // go through the real wire codec both ways; by the probe-join design the
  // payload is independent of k.
  for (size_t s = 1; s < shards_.size(); ++s) {
    ExchangeStats exchange;
    Result<std::vector<UnitMatches>> shipped_or = [&] {
      PPSM_TRACE_SPAN_CAT("cluster.exchange", "query");
      return ShipStarRows(shard_rows[s], channels_[s],
                          "shard " + std::to_string(s) + " star rows",
                          &exchange);
    }();
    PPSM_ASSIGN_OR_RETURN(shard_rows[s], std::move(shipped_or));
    stats.shards[s].exchange_ms = exchange.transfer_ms;
    stats.shards[s].exchanged_bytes = exchange.bytes;
    ClusterMetrics::Get().exchanged_bytes.Increment(exchange.bytes);
    ClusterMetrics::Get().exchange_ms.Observe(exchange.transfer_ms);
  }

  // Phase 2c: k-way merge back into the global enumeration order (the only
  // shard's stream passes through), Gk ids for the join, and the
  // merged-total row cap.
  PPSM_ASSIGN_OR_RETURN(std::vector<UnitMatches> stars,
                        MergeShardStarMatches(std::move(shard_rows)));
  if (sharded) TranslateRows(stars, to_gk_);
  // Per-unit profiles (the cost-model calibration inputs) are filled before
  // any early return below so even a timed-out or truncated query reports
  // what its units did. The unit kind comes from the plan: the exchange
  // codec ships rows and columns only.
  const bool estimates_aligned =
      decomposition.estimates.size() == stars.size();
  stats.stars.reserve(stars.size());
  bool star_truncated = false;
  for (size_t i = 0; i < stars.size(); ++i) {
    if (stars[i].matches.NumMatches() > kMaxRows) stars[i].truncated = true;
    if (i < decomposition.units.size()) {
      stars[i].kind = decomposition.units[i].kind;
    }
    UnitProfile profile;
    profile.center = static_cast<uint32_t>(stars[i].center);
    profile.candidates = stars[i].num_candidates;
    profile.rows = stars[i].matches.NumMatches();
    profile.estimated_rows =
        estimates_aligned ? decomposition.estimates[i] : 0.0;
    profile.truncated = stars[i].truncated;
    profile.skipped = i < unit_skipped.size() && unit_skipped[i] != 0;
    profile.kind = UnitKindName(stars[i].kind);
    star_truncated = star_truncated || stars[i].truncated;
    stats.rs_size += profile.rows;
    stats.stars.push_back(profile);
  }
  stats.aux_build_ms = phase_stats.aux_build_ms;
  stats.aux_bytes = phase_stats.aux_bytes;
  stats.intersect_scalar =
      phase_stats.intersect_scalar.load(std::memory_order_relaxed);
  stats.intersect_galloping =
      phase_stats.intersect_galloping.load(std::memory_order_relaxed);
  stats.intersect_simd =
      phase_stats.intersect_simd.load(std::memory_order_relaxed);
  stats.star_matching_ms = phase_timer.ElapsedMillis();
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("during star matching");
  }
  for (const UnitProfile& profile : stats.stars) {
    metrics.star_rows.Observe(static_cast<double>(profile.rows));
  }
  metrics.star_matching_ms.Observe(stats.star_matching_ms);
  metrics.rs_rows.Increment(stats.rs_size);
  if (star_truncated) {
    // Row cap fired during unit matching (the deadline case returned
    // above): the match sets are incomplete, so exact answering is off the
    // table. Same status the join would produce, but with the overflow
    // attributed to the phase that caused it.
    stats.overflowed = true;
    stats.total_ms = total_timer.ElapsedMillis();
    return Status::ResourceExhausted(
        "star match set was truncated; join would be incomplete");
  }
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("before join");
  }

  // Phase 3: result join (Algorithm 2) -> Rin (or R(Qo,Gk) for BAS).
  // Probe-side partitioning across the same worker budget, each partition
  // polling the deadline; the cost-model estimates from the decomposition
  // order the join steps.
  phase_timer.Restart();
  JoinOptions join_options;
  join_options.max_rows = kMaxRows;
  join_options.num_threads = shard_config_.num_threads;
  join_options.star_cost_estimates = decomposition.estimates;
  join_options.cancelled = unit_options.cancelled;
  JoinDiagnostics join_diag;
  Result<MatchSet> rin_or = [&] {
    TraceSpan span(Tracer::Global(), "cloud.join", "query");
    span.AddArg("query_id", stats.query_id);
    span.AddArg("rs_size", static_cast<uint64_t>(stats.rs_size));
    return JoinUnitMatches(stars, shards_[0].avt(), qo.NumVertices(),
                           join_options, &join_diag);
  }();
  stats.join_ms = phase_timer.ElapsedMillis();
  stats.join_steps = std::move(join_diag.steps);
  stats.peak_join_rows = join_diag.peak_rows;
  for (const JoinStepProfile& step : stats.join_steps) {
    if (step.estimated_rows > 0.0 && !step.overflow) {
      metrics.join_estimate_ratio.Observe(
          (step.estimated_rows + 1.0) /
          (static_cast<double>(step.output_rows) + 1.0));
    }
  }
  if (!rin_or.ok()) {
    if (rin_or.status().code() == StatusCode::kDeadlineExceeded) {
      return timeout("during join");
    }
    if (rin_or.status().code() == StatusCode::kResourceExhausted) {
      stats.overflowed = true;  // A join step hit the row cap.
    }
    stats.total_ms = total_timer.ElapsedMillis();
    return rin_or.status();
  }
  const MatchSet rin = std::move(rin_or).value();
  metrics.join_ms.Observe(stats.join_ms);

  WireAnswer answer;
  stats.result_rows = rin.NumMatches();
  answer.response_payload = rin.Serialize();
  stats.total_ms = total_timer.ElapsedMillis();
  metrics.result_rows.Increment(stats.result_rows);
  metrics.query_ms.Observe(stats.total_ms);
  metrics.queries.Increment();
  query_span.AddArg("result_rows",
                    static_cast<uint64_t>(stats.result_rows));
  query_span.AddArg("total_ms", stats.total_ms);
  answer.stats = stats;
  return answer;
}

}  // namespace ppsm
