#ifndef PPSM_CORE_PPSM_SYSTEM_H_
#define PPSM_CORE_PPSM_SYSTEM_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/cluster.h"
#include "cloud/data_owner.h"
#include "cloud/query_service.h"
#include "graph/attributed_graph.h"
#include "query/query_api.h"
#include "util/status.h"

namespace ppsm {

/// The four evaluated methods (paper §6.1 SETUP).
enum class Method {
  kEff,   // Cost-model label combination + Go upload (all optimizations).
  kRan,   // Random label combination + Go upload.
  kFsim,  // Frequency-similar combination + Go upload.
  kBas,   // Cost-model combination + full-Gk upload (the §3 baseline).
};

const char* MethodName(Method method);

/// End-to-end configuration of one deployment.
struct SystemConfig {
  Method method = Method::kEff;
  uint32_t k = 2;
  size_t theta = 2;
  ChannelConfig channel;
  uint64_t seed = 13;
  /// Serving-side knobs: unit-matching threads, plan cache, admission bound,
  /// per-query deadline. Fixed at Setup (the hosted cloud is immutable).
  CloudConfig cloud;
  /// Shard count of the hosted CloudCluster. 1 hosts the whole upload as
  /// its only slice — every method, BAS included; >1 slices Go across that
  /// many shard servers (byte-identical results at any value — DESIGN.md
  /// §13) and rejects the BAS method, whose upload has no B1 block to
  /// partition.
  uint32_t num_shards = 1;
  /// Forwarded to the k-automorphism builder (alignment strategy etc.).
  KAutomorphismOptions kauto;
  /// Workers for the offline pipeline (grouping, k-automorphism, Go
  /// extraction, snapshot saves). Artifacts and upload bytes are
  /// byte-identical at every value (DESIGN.md §11); 0 behaves like 1.
  size_t setup_threads = 1;
  /// Go extraction radius around B1 (>= 1). 1 is the paper's Go and keeps
  /// every artifact byte-identical to before; radius h lets the cloud plan
  /// and match decomposition units of depth up to h (path/tree units —
  /// DESIGN.md §14). The planner's unit depth can be tightened further with
  /// cloud.max_unit_depth (1 = star-only planning at any radius). Ignored
  /// by the BAS baseline, which ships all of Gk.
  uint32_t go_hops = 1;
};

/// Aggregate view of one batch run. Latency percentiles are exact (computed
/// from the per-query wall times of this batch, not the bucketed registry
/// histograms); throughput is wall-clock queries per second over the whole
/// batch.
struct BatchSummary {
  size_t queries = 0;
  size_t succeeded = 0;
  size_t failed = 0;  // Refused, expired or errored (see responses[i]).
  double wall_ms = 0.0;
  double queries_per_second = 0.0;
  double p50_ms = 0.0;  // Per-query wall latency, successful queries.
  double p95_ms = 0.0;
  /// Plan-cache counters of the cluster coordinator after the batch
  /// (cumulative over its lifetime, not just this batch).
  PlanCacheStats plan_cache;
};

/// Per-query responses plus the aggregate. responses[i] corresponds to
/// requests[i] of the ExecuteBatch call.
struct BatchResult {
  std::vector<QueryResponse> responses;
  BatchSummary summary;
};

/// Facade wiring a DataOwner, a SimulatedChannel and a CloudCluster of
/// config.num_shards shards into the paper's full workflow: Setup() runs the offline pipeline and "uploads"
/// (serializing through the channel); Execute() anonymizes the pattern,
/// ships Qo, runs the cloud evaluation, ships the response, and
/// post-processes to exact answers.
///
/// Thread-safety: after Setup, the system is immutable. Execute() and
/// ExecuteBatch() are const and safe to call from any number of threads
/// concurrently; every query passes through the cloud's QueryService, so
/// SystemConfig::cloud.max_inflight and .query_deadline_ms apply uniformly.
class PpsmSystem {
 public:
  static Result<PpsmSystem> Setup(AttributedGraph graph,
                                  std::shared_ptr<const Schema> schema,
                                  const SystemConfig& config);

  /// Persists the owner-side state (schema, G, LCT, Gk, AVT) to `directory`
  /// as binary snapshots, so a later LoadSnapshot can skip the offline
  /// pipeline entirely (k-automorphism + grouping dominate setup time).
  Status SaveSnapshot(const std::string& directory) const;

  /// Rebuilds a full system from a SaveSnapshot directory: restores the
  /// owner, re-derives the upload package deterministically, and re-hosts
  /// the cloud side. `config` supplies the serving/channel knobs; the
  /// snapshot's own k and baseline-upload flag win over config (method is
  /// only used for labeling — the grouping it names was already applied).
  static Result<PpsmSystem> LoadSnapshot(const std::string& directory,
                                         const SystemConfig& config);

  /// One query end to end (paper Fig. 22's decomposition: cloud time +
  /// network time + client time). Never throws and never loses stats: a
  /// refused/expired/failed query comes back with response.status set and
  /// the phases that ran accounted. Thread-safe.
  QueryResponse Execute(const QueryRequest& request) const;

  /// Runs a workload concurrently: up to `concurrency` requests in flight
  /// at once (0 = config().cloud.max_inflight), drawing workers from the
  /// shared ThreadPool. Per-query failures (refusal, deadline, row cap)
  /// land in the corresponding responses slot; the batch itself always
  /// completes.
  BatchResult ExecuteBatch(std::span<const QueryRequest> requests,
                           size_t concurrency = 0) const;

  /// Flight-recorder views: the process-global recorder's ring of recent
  /// query profiles and its slow/failed-query captures (every query routed
  /// through a QueryService lands there, from any system in the process).
  static std::vector<QueryProfile> RecentQueryProfiles();
  static std::vector<QueryProfile> SlowQueryProfiles();
  /// Writes the recorder's query log (slow captures + recent ring) to
  /// `path` as JSONL, one QueryProfile per line.
  static Status DumpQueryLog(const std::string& path);

  const SetupStats& setup_stats() const { return owner_->setup_stats(); }
  const DataOwner& owner() const { return *owner_; }
  /// The hosted server: the whole upload at one shard, shard 0's slice
  /// when sharded.
  const CloudServer& cloud() const { return cluster_->shard(0); }
  /// The hosted cluster, at every shard count and for every method.
  const CloudCluster& cluster() const { return *cluster_; }
  const QueryService& service() const { return *service_; }
  const SimulatedChannel& channel() const { return channel_; }
  const SystemConfig& config() const { return config_; }
  /// Simulated upload transfer time (the one-time outsourcing cost).
  double upload_ms() const { return upload_ms_; }

 private:
  PpsmSystem() = default;

  /// Shared tail of Setup/LoadSnapshot: charges the upload transfer, hosts
  /// the cluster from the owner's upload bytes, and wires the service.
  static Result<PpsmSystem> HostFromOwner(std::unique_ptr<DataOwner> owner,
                                          const SystemConfig& config);

  /// Execute() body; the wrapper owns the attempt/failure counters so
  /// refused and errored queries stay visible in the metrics.
  QueryResponse ExecuteImpl(const QueryRequest& request) const;

  SystemConfig config_;
  std::unique_ptr<DataOwner> owner_;
  std::unique_ptr<CloudCluster> cluster_;
  std::unique_ptr<QueryService> service_;
  SimulatedChannel channel_;
  double upload_ms_ = 0.0;
};

}  // namespace ppsm

#endif  // PPSM_CORE_PPSM_SYSTEM_H_
