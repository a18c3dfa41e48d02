#ifndef PPSM_CLOUD_CLOUD_SERVER_H_
#define PPSM_CLOUD_CLOUD_SERVER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/messages.h"
#include "graph/attributed_graph.h"
#include "kauto/avt.h"
#include "match/index.h"
#include "match/statistics.h"
#include "query/query_api.h"
#include "util/intersect.h"
#include "util/status.h"

namespace ppsm {

/// Per-shard serving knobs: what one CloudServer (one slice of the hosted
/// graph) needs to evaluate its share of a query. Deployment-scoped knobs
/// (shard count, admission, deadlines) live in ClusterConfig.
struct ShardConfig {
  /// Worker threads for the unit-matching and join phases of one query
  /// (paper §4.2.1: units are independent). Drawn from the shared
  /// ThreadPool; 0 clamps to 1 (serial).
  size_t num_threads = 1;
  /// Capacity of the cluster coordinator's decomposition plan cache (LRU
  /// over canonical Qo signatures; see match/decomposition.h QoSignature).
  /// 0 disables caching.
  size_t plan_cache_entries = 128;
  /// Cap on the BFS depth of decomposition units the planner may pick
  /// (match/query_unit.h). 0 = use the hosted graph's full hop radius; 1 =
  /// star-only (the paper's §4.2.1 decomposition, byte-identical plans and
  /// answers). Values above the hosted radius are clamped to it — deeper
  /// units could not be matched completely on this slice.
  uint32_t max_unit_depth = 0;
  /// Unit matching via the per-query auxiliary graph + set-intersection
  /// kernels (match/aux_graph.h, util/intersect.h). Rows are byte-identical
  /// either way; off is the A/B reference path.
  bool aux_graph = true;
  /// Intersection kernel for the aux path (kAuto = §5.1 cost model per
  /// step). Output-neutral; exposed for A/B and calibration runs.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
};

/// Deployment-scoped serving knobs: how many shards host the graph and how
/// the fronting QueryService admits traffic.
struct ClusterConfig {
  /// Number of CloudServer shards hosting slices of Go. 1 hosts the whole
  /// upload as the only slice — the unsharded deployment, BAS included
  /// (0 clamps to 1).
  uint32_t num_shards = 1;
  /// QueryService admission bound: queries executing simultaneously. Further
  /// arrivals wait in a queue bounded at 2 * max_inflight, beyond which they
  /// are refused with ResourceExhausted. Must be >= 1 (0 clamps to 1).
  size_t max_inflight = 16;
  /// Per-query wall-clock budget, measured from admission (queue wait
  /// included). Expiry surfaces as Status::DeadlineExceeded. 0 = no deadline.
  uint64_t query_deadline_ms = 0;
  /// Seed of the partitioner run that assigns B1 vertices to shards
  /// (deterministic: same seed, same assignment). Ignored when num_shards=1.
  uint64_t partition_seed = 7;
};

/// Legacy flat view of (ShardConfig x ClusterConfig), kept so existing
/// tests/benches compile unchanged: the pre-cluster single-server world
/// needed no distinction between per-shard and deployment knobs. Convert
/// with ToShardConfig/ToClusterConfig/ToCloudConfig.
struct CloudConfig {
  size_t num_threads = 1;        // -> ShardConfig::num_threads.
  size_t plan_cache_entries = 128;  // -> ShardConfig::plan_cache_entries.
  size_t max_inflight = 16;      // -> ClusterConfig::max_inflight.
  uint64_t query_deadline_ms = 0;  // -> ClusterConfig::query_deadline_ms.
  uint32_t max_unit_depth = 0;   // -> ShardConfig::max_unit_depth.
  bool aux_graph = true;         // -> ShardConfig::aux_graph.
  IntersectKernel intersect_kernel =  // -> ShardConfig::intersect_kernel.
      IntersectKernel::kAuto;
};

/// Converters between the legacy flat config and the split pair.
ShardConfig ToShardConfig(const CloudConfig& config);
ClusterConfig ToClusterConfig(const CloudConfig& config);
CloudConfig ToCloudConfig(const ShardConfig& shard,
                          const ClusterConfig& cluster);

/// The honest-but-curious cloud's view of one hosted graph: the upload
/// package (Go+AVT, or Gk for the baseline), validated and indexed. It only
/// ever sees anonymized artifacts — Qo labels are opaque group ids. A
/// CloudServer answers nothing by itself: CloudCluster (cloud/cluster.h)
/// hosts one per shard and runs the §4.2.1 evaluation over them, and at
/// one shard the server's graph is the whole upload. The read accessors
/// below are what the cluster (and test-only reference evaluations) plan
/// and match against.
///
/// Thread-safety: a hosted server is immutable; every accessor is const.
class CloudServer {
 public:
  /// Ingests a serialized upload package and builds the offline index.
  static Result<CloudServer> Host(std::span<const uint8_t> package_bytes,
                                  const CloudConfig& config = {});
  /// Same, from an in-memory package (tests).
  static Result<CloudServer> Host(UploadPackage package,
                                  const CloudConfig& config = {});
  /// Hosts one shard's slice of Go (ShardUpload::package) with the global
  /// statistics every shard carries (ShardUpload::stats) — a slice's own B1
  /// is a biased sample, so it is never summarized on its own. The slice's
  /// B1 prefix is smaller than the full AVT, so the full-package check
  /// num_b1 == avt.num_rows is relaxed to num_b1 <= avt.num_rows; the
  /// index build is the regular one.
  static Result<CloudServer> HostSlice(UploadPackage package,
                                       GkStatistics stats,
                                       const ShardConfig& config);

  /// The serving limits this server was hosted with.
  ServiceLimits limits() const {
    return {config_.max_inflight, config_.query_deadline_ms};
  }
  const CloudConfig& config() const { return config_; }
  /// Unit-matching workers per query (config().num_threads, clamped >= 1).
  size_t num_threads() const { return config_.num_threads; }

  bool IsBaseline() const { return baseline_; }
  uint32_t k() const { return avt_.k(); }
  /// Hop radius of the hosted Go (1 for the paper's Go and the baseline).
  uint32_t hops() const { return hops_; }
  /// Deepest decomposition unit a planner may pick on this server: the
  /// hosted radius, tightened by config.max_unit_depth when set.
  uint32_t EffectiveUnitDepth() const {
    uint32_t depth = hops_;
    if (config_.max_unit_depth > 0 && config_.max_unit_depth < depth) {
      depth = config_.max_unit_depth;
    }
    return depth;
  }
  size_t IndexMemoryBytes() const { return index_.MemoryBytes(); }
  double IndexBuildMillis() const { return index_build_ms_; }
  /// Number of vertices the index treats as candidate star centers.
  size_t NumCenters() const { return index_.num_centers(); }
  /// Number of edges stored in the hosted graph (|E(Go)| or |E(Gk)|).
  size_t HostedEdges() const { return data_.NumEdges(); }
  /// The §5.1 cost-model statistics the planner reads: computed over the
  /// whole upload, or the global table a shard slice was hosted with.
  const GkStatistics& statistics() const { return stats_; }
  const AttributedGraph& data() const { return data_; }
  const CloudIndex& index() const { return index_; }
  const Avt& avt() const { return avt_; }
  /// Hosted id -> Gk id (the identity for the baseline).
  const std::vector<VertexId>& to_gk() const { return to_gk_; }

 private:
  CloudServer() = default;

  /// `slice_stats` is set exactly for shard slices (HostSlice).
  static Result<CloudServer> HostImpl(
      UploadPackage package, const CloudConfig& config,
      std::optional<GkStatistics> slice_stats);

  bool baseline_ = false;
  uint32_t hops_ = 1;              // Hop radius of the hosted Go.
  AttributedGraph data_;           // Go (compact ids) or Gk.
  std::vector<VertexId> to_gk_;    // Identity for baseline.
  Avt avt_;                        // Identity table for baseline.
  CloudIndex index_;
  GkStatistics stats_;
  double index_build_ms_ = 0.0;
  CloudConfig config_;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLOUD_SERVER_H_
