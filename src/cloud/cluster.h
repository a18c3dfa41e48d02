#ifndef PPSM_CLOUD_CLUSTER_H_
#define PPSM_CLOUD_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/messages.h"
#include "match/decomposition.h"
#include "query/query_api.h"
#include "util/status.h"

namespace ppsm {

/// Point-in-time accounting of a cluster coordinator's plan cache (the
/// global ppsm_cloud_plan_cache_* metrics aggregate across clusters).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// Splits an optimized upload into `num_shards` slice uploads. The B1 block
/// is partitioned with the multilevel partitioner (deterministic in `seed`);
/// each shard's slice holds its owned B1 vertices plus their one-hop halo,
/// with exactly the Go edges incident to an owned vertex. Slice-local ids
/// ascend in global Go-local id, which (a) preserves every owned vertex's
/// adjacency order and (b) keeps the slice's B1 vertices a prefix — the two
/// properties the byte-identical merge in CloudCluster::Serve rests on.
/// Every shard carries the FULL AVT and the GLOBAL cost-model statistics, so
/// shard-local candidate verdicts and the coordinator's plan equal the
/// unsharded ones. Baseline (BAS) packages are rejected: sharding exists for
/// the outsourced shape.
Result<ShardingPlan> BuildShardUploads(const UploadPackage& package,
                                       uint32_t num_shards, uint64_t seed);

/// The cloud's one query path (paper §4.2.1): S CloudServer shards, each
/// hosting a slice of the upload, fronted by a coordinator that plans
/// globally and joins the shards' unit matches into Rin. One query runs as
/// a BSP superstep:
///
///   plan (coordinator, global, plan-cached)  ->  match (each shard, its
///   owned centers)  ->  exchange (shards ship un-expanded R(S,Go) rows over
///   simulated links)  ->  merge + probe join (coordinator)
///
/// At one shard the slice is the whole upload — Go, or all of Gk under the
/// identity AVT for the BAS baseline — so ids map by identity, every center
/// is owned and nothing is exchanged. At any shard count the reply is
/// BYTE-IDENTICAL to the plain §4.2.1 pipeline (DecomposeQueryUnits ->
/// MatchUnits -> to_gk -> JoinUnitMatches over the whole upload): candidate
/// sets, cost-model sums (same floating-point order), decomposition, row
/// enumeration order and the join all reproduce it exactly (DESIGN.md §13
/// gives the argument). Because the exchange ships un-expanded rows, its
/// byte volume is independent of the privacy parameter k.
///
/// Thread-safety: immutable after hosting except the plan cache behind its
/// own mutex; Serve is const and any number of threads may call it.
class CloudCluster : public QueryHandler {
 public:
  ~CloudCluster() override;
  CloudCluster(CloudCluster&&) noexcept;
  CloudCluster& operator=(CloudCluster&&) noexcept;

  /// Hosts a serialized/in-memory upload on config.num_shards shards. At
  /// one shard (0 clamps to 1) the upload itself is the only slice, the
  /// baseline's included; at two or more BuildShardUploads slices it
  /// (partition_seed-deterministic) and the baseline is refused.
  static Result<CloudCluster> Host(std::span<const uint8_t> package_bytes,
                                   const ClusterConfig& config,
                                   const ShardConfig& shard_config = {},
                                   const ChannelConfig& channel_config = {});
  static Result<CloudCluster> Host(UploadPackage package,
                                   const ClusterConfig& config,
                                   const ShardConfig& shard_config = {},
                                   const ChannelConfig& channel_config = {});
  /// Hosts pre-built shard uploads (the snapshot-reload path): validates
  /// cross-shard consistency, rebuilds the global id maps and hosts one
  /// CloudServer per slice, with the global statistics the uploads carry.
  static Result<CloudCluster> HostShards(
      std::vector<ShardUpload> shard_uploads, const ClusterConfig& config,
      const ShardConfig& shard_config = {},
      const ChannelConfig& channel_config = {});

  /// The one query entry point (QueryHandler): evaluates a serialized Qo
  /// under the given context. ctx.stats, when set, is filled on every
  /// return path — failure included. Sharded deployments additionally
  /// report one ShardProfile per shard.
  Result<WireAnswer> Serve(std::span<const uint8_t> qo_bytes,
                           const QueryContext& ctx = {}) const override;
  ServiceLimits limits() const override {
    return {config_.max_inflight, config_.query_deadline_ms};
  }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// The hosted shard servers (PpsmSystem::cloud() reports shard 0).
  const CloudServer& shard(size_t i) const { return shards_[i]; }
  const ClusterConfig& config() const { return config_; }
  uint32_t k() const { return shards_[0].k(); }
  /// The global statistics every plan reads (identical on every shard).
  const GkStatistics& statistics() const { return shards_[0].statistics(); }
  /// Hit/miss/occupancy counters of the coordinator's plan cache.
  PlanCacheStats plan_cache_stats() const;
  /// Total bytes shipped shard -> coordinator since hosting (the exchange
  /// links' byte meters; shard 0 is the coordinator and ships nothing).
  size_t ExchangedBytes() const;

 private:
  struct PlanCache;  // Mutex + LRU, behind a pointer so the cluster moves.

  CloudCluster() = default;

  /// Shared tail of Host/HostShards, once shards_ is populated: settles the
  /// configs and creates the plan cache and exchange links.
  Status Init(const ClusterConfig& config, const ShardConfig& shard_config,
              const ChannelConfig& channel_config);
  /// Phase 1 of Serve: the global cost-model decomposition of `qo`.
  Result<UnitDecomposition> Plan(const AttributedGraph& qo) const;

  ClusterConfig config_;
  ShardConfig shard_config_;
  std::vector<CloudServer> shards_;
  /// Exchange link of each shard; entry 0 exists but is never charged (the
  /// coordinator is colocated with shard 0).
  std::vector<SimulatedChannel> channels_;
  // The id maps below are read only when sharded; at one shard the slice is
  // the whole upload, its ids are global and every center is owned.
  /// Per shard: slice-local id -> global Go-local id (ascending).
  std::vector<std::vector<VertexId>> to_global_;
  /// Per shard: owned[l] != 0 iff slice-local l is an owned B1 vertex.
  std::vector<std::vector<uint8_t>> owned_;
  /// Full Go degree of every global B1 vertex (owned-slice degrees are
  /// complete, so these equal the unsharded Go degrees) — the cost model's
  /// per-candidate input.
  std::vector<size_t> go_degree_;
  /// Global Go-local id -> Gk id (the unsharded to_gk, reassembled).
  std::vector<VertexId> to_gk_;
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLUSTER_H_
