#include "cloud/cloud_server.h"

#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ppsm {

namespace {
/// Hosting gauges in the global registry, resolved once. The per-query
/// ppsm_cloud_* metrics belong to the evaluation (cloud/cluster.cc).
struct HostMetrics {
  MetricsRegistry::Gauge index_memory_bytes;
  MetricsRegistry::Gauge index_build_ms;
  MetricsRegistry::Gauge hosted_edges;

  static const HostMetrics& Get() {
    static const HostMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      HostMetrics metrics;
      metrics.index_memory_bytes = r.gauge("ppsm_cloud_index_memory_bytes",
                                           "VBV/LBV index footprint");
      metrics.index_build_ms =
          r.gauge("ppsm_cloud_index_build_ms", "Offline index build time");
      metrics.hosted_edges =
          r.gauge("ppsm_cloud_hosted_edges", "|E| of the hosted graph");
      return metrics;
    }();
    return m;
  }
};
}  // namespace

ShardConfig ToShardConfig(const CloudConfig& config) {
  ShardConfig shard;
  shard.num_threads = config.num_threads;
  shard.plan_cache_entries = config.plan_cache_entries;
  shard.max_unit_depth = config.max_unit_depth;
  shard.aux_graph = config.aux_graph;
  shard.intersect_kernel = config.intersect_kernel;
  return shard;
}

ClusterConfig ToClusterConfig(const CloudConfig& config) {
  ClusterConfig cluster;
  cluster.max_inflight = config.max_inflight;
  cluster.query_deadline_ms = config.query_deadline_ms;
  return cluster;
}

CloudConfig ToCloudConfig(const ShardConfig& shard,
                          const ClusterConfig& cluster) {
  CloudConfig config;
  config.num_threads = shard.num_threads;
  config.plan_cache_entries = shard.plan_cache_entries;
  config.max_inflight = cluster.max_inflight;
  config.query_deadline_ms = cluster.query_deadline_ms;
  config.max_unit_depth = shard.max_unit_depth;
  config.aux_graph = shard.aux_graph;
  config.intersect_kernel = shard.intersect_kernel;
  return config;
}

Result<CloudServer> CloudServer::Host(std::span<const uint8_t> package_bytes,
                                      const CloudConfig& config) {
  PPSM_ASSIGN_OR_RETURN(UploadPackage package,
                        UploadPackage::Deserialize(package_bytes));
  return Host(std::move(package), config);
}

Result<CloudServer> CloudServer::Host(UploadPackage package,
                                      const CloudConfig& config) {
  return HostImpl(std::move(package), config, std::nullopt);
}

Result<CloudServer> CloudServer::HostSlice(UploadPackage package,
                                           GkStatistics stats,
                                           const ShardConfig& config) {
  if (package.IsBaseline()) {
    return Status::InvalidArgument("shard slices require the optimized shape");
  }
  return HostImpl(std::move(package), ToCloudConfig(config, {}),
                  std::move(stats));
}

Result<CloudServer> CloudServer::HostImpl(
    UploadPackage package, const CloudConfig& config,
    std::optional<GkStatistics> slice_stats) {
  CloudServer server;
  server.config_ = config;
  if (server.config_.num_threads == 0) server.config_.num_threads = 1;
  if (server.config_.max_inflight == 0) server.config_.max_inflight = 1;
  const size_t num_types = package.num_types;
  const size_t num_groups = package.type_of_group.size();

  size_t num_centers = 0;
  if (package.IsBaseline()) {
    server.baseline_ = true;
    server.data_ = std::move(*package.full_gk);
    num_centers = server.data_.NumVertices();
    server.to_gk_.resize(num_centers);
    std::iota(server.to_gk_.begin(), server.to_gk_.end(), 0);
    // Identity table: k = 1 makes every automorphic function the identity,
    // so the result join degenerates to a plain natural join over Gk.
    server.avt_ = Avt(1, static_cast<uint32_t>(num_centers));
    for (uint32_t v = 0; v < num_centers; ++v) server.avt_.Place(v, 0, v);
    server.stats_ = ComputeGraphStatistics(server.data_, package.k, num_types,
                                           std::move(package.type_of_group));
  } else {
    if (!package.go.has_value() || !package.avt.has_value()) {
      return Status::InvalidArgument("optimized upload lacks Go or AVT");
    }
    if (package.avt->k() != package.k) {
      return Status::InvalidArgument("AVT k disagrees with package k");
    }
    // A shard slice hosts only its part of B1, so its prefix is smaller
    // than the AVT; the full package must cover every AVT row exactly.
    const bool slice = slice_stats.has_value();
    if (slice ? package.go->num_b1 > package.avt->num_rows()
              : package.go->num_b1 != package.avt->num_rows()) {
      return Status::InvalidArgument("Go block size disagrees with AVT rows");
    }
    for (const VertexId gk_id : package.go->to_gk) {
      if (!package.avt->Contains(gk_id)) {
        return Status::InvalidArgument("Go references vertex outside AVT");
      }
    }
    server.stats_ =
        slice ? *std::move(slice_stats)
              : ComputeGkStatistics(*package.go, num_types,
                                    std::move(package.type_of_group));
    server.hops_ = package.go->hops;
    num_centers = package.go->num_b1;
    server.to_gk_ = std::move(package.go->to_gk);
    server.data_ = std::move(package.go->graph);
    server.avt_ = std::move(*package.avt);
  }

  WallTimer timer;
  {
    PPSM_TRACE_SPAN_CAT("cloud.index_build", "setup");
    PPSM_ASSIGN_OR_RETURN(
        server.index_,
        CloudIndex::Build(server.data_, num_centers, num_types, num_groups,
                          server.config_.num_threads));
  }
  server.index_build_ms_ = timer.ElapsedMillis();
  const HostMetrics& metrics = HostMetrics::Get();
  metrics.index_memory_bytes.Set(
      static_cast<double>(server.index_.MemoryBytes()));
  metrics.index_build_ms.Set(server.index_build_ms_);
  metrics.hosted_edges.Set(static_cast<double>(server.data_.NumEdges()));
  return server;
}

}  // namespace ppsm
