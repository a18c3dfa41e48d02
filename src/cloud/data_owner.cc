#include "cloud/data_owner.h"

#include <string>

#include "cloud/cluster.h"
#include "kauto/outsourced_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ppsm {

namespace {

/// Registry handles for the offline pipeline and the client post-process.
/// SetupStats / ClientStats remain the per-call views; these accumulate for
/// export (DESIGN.md "Observability").
struct OwnerMetrics {
  MetricsRegistry::Counter setups;
  MetricsRegistry::Counter responses;
  MetricsRegistry::Counter candidates;
  MetricsRegistry::Counter results;
  MetricsRegistry::Histogram lct_ms;
  MetricsRegistry::Histogram anonymize_ms;
  MetricsRegistry::Histogram kauto_ms;
  MetricsRegistry::Histogram go_ms;
  MetricsRegistry::Histogram setup_total_ms;
  MetricsRegistry::Histogram client_total_ms;
  MetricsRegistry::Gauge upload_bytes;
  MetricsRegistry::Gauge noise_vertices;
  MetricsRegistry::Gauge noise_edges;
  MetricsRegistry::Gauge setup_threads;

  static const OwnerMetrics& Get() {
    static const OwnerMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      OwnerMetrics metrics;
      metrics.setups =
          r.counter("ppsm_setup_runs_total", "Offline pipeline executions");
      metrics.responses = r.counter("ppsm_client_responses_total",
                                    "Cloud responses post-processed");
      metrics.candidates = r.counter("ppsm_client_candidates_total",
                                     "Automorphic images examined (Alg. 3)");
      metrics.results =
          r.counter("ppsm_client_results_total", "Exact |R(Q,G)| rows kept");
      metrics.lct_ms = r.histogram("ppsm_setup_lct_ms",
                                   DefaultLatencyBucketsMs(),
                                   "Label-combination search time");
      metrics.anonymize_ms =
          r.histogram("ppsm_setup_anonymize_ms", DefaultLatencyBucketsMs(),
                      "G -> G' label rewrite time");
      metrics.kauto_ms = r.histogram("ppsm_setup_kauto_ms",
                                     DefaultLatencyBucketsMs(),
                                     "k-automorphism construction time");
      metrics.go_ms = r.histogram("ppsm_setup_go_ms",
                                  DefaultLatencyBucketsMs(),
                                  "Go extraction + upload packaging time");
      metrics.setup_total_ms =
          r.histogram("ppsm_setup_total_ms", DefaultLatencyBucketsMs(),
                      "Offline pipeline end-to-end time");
      metrics.client_total_ms =
          r.histogram("ppsm_client_post_process_ms", DefaultLatencyBucketsMs(),
                      "Client post-processing end-to-end time");
      metrics.upload_bytes =
          r.gauge("ppsm_setup_upload_bytes", "Serialized upload package size");
      metrics.noise_vertices =
          r.gauge("ppsm_setup_noise_vertices", "Noise vertices added to Gk");
      metrics.noise_edges =
          r.gauge("ppsm_setup_noise_edges", "Noise edges added to Gk");
      metrics.setup_threads = r.gauge(
          "ppsm_setup_threads", "Workers used by the last offline pipeline");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

Result<DataOwner> DataOwner::Create(AttributedGraph graph,
                                    std::shared_ptr<const Schema> schema,
                                    const DataOwnerOptions& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("data owner needs the schema");
  }
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.go_hops == 0) {
    return Status::InvalidArgument("go_hops must be >= 1");
  }

  DataOwner owner;
  owner.graph_ = std::move(graph);
  owner.schema_ = std::move(schema);
  owner.baseline_ = options.baseline_upload;
  owner.go_hops_ = options.go_hops;

  const size_t threads =
      options.setup_threads == 0 ? 1 : options.setup_threads;

  WallTimer total_timer;
  WallTimer phase_timer;
  PPSM_TRACE_SPAN_CAT("setup.data_owner", "setup");
  const OwnerMetrics& metrics = OwnerMetrics::Get();
  metrics.setup_threads.Set(static_cast<double>(threads));

  // Label combination (§5.2) and LCT construction.
  {
    PPSM_TRACE_SPAN_CAT("setup.lct", "setup");
    GroupingOptions grouping = options.grouping;
    grouping.num_threads = threads;
    PPSM_ASSIGN_OR_RETURN(owner.lct_,
                          BuildLct(options.strategy, *owner.schema_,
                                   owner.graph_, grouping));
  }
  owner.setup_stats_.lct_ms = phase_timer.ElapsedMillis();
  metrics.lct_ms.Observe(owner.setup_stats_.lct_ms);

  // G -> G': rewrite labels to group ids (§3).
  phase_timer.Restart();
  Result<AttributedGraph> generalized_or = [&] {
    PPSM_TRACE_SPAN_CAT("setup.label_generalization", "setup");
    return owner.lct_.AnonymizeGraph(owner.graph_);
  }();
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph generalized,
                        std::move(generalized_or));
  owner.setup_stats_.anonymize_ms = phase_timer.ElapsedMillis();
  metrics.anonymize_ms.Observe(owner.setup_stats_.anonymize_ms);

  // G' -> Gk (+AVT).
  phase_timer.Restart();
  KAutomorphismOptions kauto = options.kauto;
  kauto.k = options.k;
  kauto.num_threads = threads;
  {
    PPSM_TRACE_SPAN_CAT("setup.kauto", "setup");
    PPSM_ASSIGN_OR_RETURN(owner.kag_,
                          BuildKAutomorphicGraph(generalized, kauto));
  }
  owner.setup_stats_.kauto_ms = phase_timer.ElapsedMillis();
  metrics.kauto_ms.Observe(owner.setup_stats_.kauto_ms);
  owner.setup_stats_.gk_vertices = owner.kag_.gk.NumVertices();
  owner.setup_stats_.gk_edges = owner.kag_.gk.NumEdges();
  owner.setup_stats_.noise_vertices = owner.kag_.NumNoiseVertices();
  owner.setup_stats_.noise_edges = owner.kag_.NumNoiseEdges();

  // Upload package.
  phase_timer.Restart();
  {
    PPSM_TRACE_SPAN_CAT("setup.upload_build", "setup");
    PPSM_RETURN_IF_ERROR(owner.BuildUpload(threads));
  }
  owner.setup_stats_.go_ms = phase_timer.ElapsedMillis();
  owner.setup_stats_.total_ms = total_timer.ElapsedMillis();
  metrics.go_ms.Observe(owner.setup_stats_.go_ms);
  metrics.setup_total_ms.Observe(owner.setup_stats_.total_ms);
  metrics.upload_bytes.Set(
      static_cast<double>(owner.setup_stats_.upload_bytes));
  metrics.noise_vertices.Set(
      static_cast<double>(owner.setup_stats_.noise_vertices));
  metrics.noise_edges.Set(static_cast<double>(owner.setup_stats_.noise_edges));
  metrics.setups.Increment();
  return owner;
}

Result<DataOwner> DataOwner::Restore(AttributedGraph graph,
                                     std::shared_ptr<const Schema> schema,
                                     Lct lct, KAutomorphicGraph kag,
                                     bool baseline_upload,
                                     uint32_t go_hops) {
  if (schema == nullptr) {
    return Status::InvalidArgument("data owner needs the schema");
  }
  if (go_hops == 0) return Status::InvalidArgument("go_hops must be >= 1");
  PPSM_RETURN_IF_ERROR(lct.Validate(*schema));
  PPSM_RETURN_IF_ERROR(kag.avt.Validate());
  if (kag.num_original_vertices != graph.NumVertices()) {
    return Status::InvalidArgument(
        "Gk original-vertex count disagrees with the graph");
  }
  if (kag.gk.NumVertices() !=
      static_cast<size_t>(kag.avt.k()) * kag.avt.num_rows()) {
    return Status::InvalidArgument("AVT does not cover Gk");
  }
  if (kag.num_original_edges > kag.gk.NumEdges() ||
      kag.num_original_edges != graph.NumEdges()) {
    return Status::InvalidArgument(
        "Gk original-edge count disagrees with the graph");
  }

  DataOwner owner;
  owner.graph_ = std::move(graph);
  owner.schema_ = std::move(schema);
  owner.lct_ = std::move(lct);
  owner.kag_ = std::move(kag);
  owner.baseline_ = baseline_upload;
  owner.go_hops_ = go_hops;
  owner.setup_stats_.gk_vertices = owner.kag_.gk.NumVertices();
  owner.setup_stats_.gk_edges = owner.kag_.gk.NumEdges();
  owner.setup_stats_.noise_vertices = owner.kag_.NumNoiseVertices();
  owner.setup_stats_.noise_edges = owner.kag_.NumNoiseEdges();
  PPSM_RETURN_IF_ERROR(owner.BuildUpload(/*num_threads=*/1));
  return owner;
}

Status DataOwner::BuildUpload(size_t num_threads) {
  PPSM_TRACE_SPAN_CAT("setup.upload_package", "setup");
  UploadPackage package;
  package.k = kag_.avt.k();
  package.num_types = static_cast<uint32_t>(schema_->NumTypes());
  package.type_of_group.reserve(lct_.NumGroups());
  for (GroupId g = 0; g < lct_.NumGroups(); ++g) {
    package.type_of_group.push_back(lct_.TypeOfGroup(g));
  }
  if (baseline_) {
    package.full_gk = kag_.gk;
    setup_stats_.go_vertices = kag_.gk.NumVertices();
    setup_stats_.go_edges = kag_.gk.NumEdges();
  } else {
    PPSM_ASSIGN_OR_RETURN(
        OutsourcedGraph go,
        BuildOutsourcedGraph(kag_, num_threads, go_hops_));
    setup_stats_.go_vertices = go.graph.NumVertices();
    setup_stats_.go_edges = go.graph.NumEdges();
    package.go = std::move(go);
    package.avt = kag_.avt;
  }
  upload_bytes_ = package.Serialize();
  setup_stats_.upload_bytes = upload_bytes_.size();
  return Status::OK();
}

Result<ShardingPlan> DataOwner::BuildShardUploads(uint32_t num_shards,
                                                  uint64_t seed) const {
  if (baseline_) {
    return Status::InvalidArgument(
        "sharding needs the outsourced upload; the BAS baseline has no "
        "partitionable B1 block");
  }
  PPSM_ASSIGN_OR_RETURN(const UploadPackage package,
                        UploadPackage::Deserialize(upload_bytes_));
  return ppsm::BuildShardUploads(package, num_shards, seed);
}

Result<AttributedGraph> DataOwner::AnonymizeQuery(
    const AttributedGraph& query) const {
  return lct_.AnonymizeGraph(query);
}

Result<std::vector<uint8_t>> DataOwner::AnonymizeQueryToRequest(
    const AttributedGraph& query) const {
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph qo, AnonymizeQuery(query));
  return SerializeQueryRequest(qo);
}

Result<MatchSet> DataOwner::ProcessResponse(
    const AttributedGraph& query, std::span<const uint8_t> response_payload,
    ClientStats* stats) const {
  WallTimer total_timer;
  PPSM_TRACE_SPAN_CAT("client.process_response", "query");
  PPSM_ASSIGN_OR_RETURN(const MatchSet rin,
                        MatchSet::Deserialize(response_payload));
  if (rin.arity() != query.NumVertices()) {
    return Status::InvalidArgument(
        "response arity disagrees with the query");
  }

  // Lines 1-5 and 6-23 in one pass: each image F_m(row) of R(Qo,Gk) =
  // F_0(Rin) ∪ ... ∪ F_{k-1}(Rin) is built column by column and dropped at
  // the first vertex missing from G (noise), type or label Q does not
  // allow, then at the first edge missing from G. The baseline response is
  // R(Qo,Gk) already, so only F_0 applies. F_m is a bijection, so an image
  // repeats a vertex iff its row does, and one F_m never maps two distinct
  // rows to one image; duplicates arise only from a faulty response.
  const Avt& avt = kag_.avt;
  const uint32_t num_functions = baseline_ ? 1 : avt.k();
  const size_t original_vertices = kag_.num_original_vertices;
  MatchSet results(query.NumVertices());
  std::vector<VertexId> image(query.NumVertices());
  for (size_t r = 0; r < rin.NumMatches(); ++r) {
    const auto row = rin.Get(r);
    for (const VertexId v : row) {
      if (!avt.Contains(v)) {
        return Status::InvalidArgument("response names vertex " +
                                       std::to_string(v) + " outside Gk");
      }
    }
    if (MatchSet::HasDuplicateVertices(row)) continue;
    for (uint32_t m = 0; m < num_functions; ++m) {
      bool keep = true;
      for (size_t q = 0; keep && q < row.size(); ++q) {
        const VertexId v = avt.Apply(row[q], m);
        const auto qv = static_cast<VertexId>(q);
        keep = v < original_vertices &&
               graph_.TypesContainAll(v, query.Types(qv)) &&
               graph_.LabelsContainAll(v, query.Labels(qv));
        image[q] = v;
      }
      if (keep) {
        query.ForEachEdge([&](VertexId a, VertexId b) {
          keep = keep && graph_.HasEdge(image[a], image[b]);
        });
      }
      if (keep) results.Append(image);
    }
  }
  results.SortDedup();

  const size_t candidates = rin.NumMatches() * num_functions;
  const double total_ms = total_timer.ElapsedMillis();
  const OwnerMetrics& metrics = OwnerMetrics::Get();
  metrics.client_total_ms.Observe(total_ms);
  metrics.candidates.Increment(candidates);
  metrics.results.Increment(results.NumMatches());
  metrics.responses.Increment();
  if (stats != nullptr) {
    stats->candidates = candidates;
    stats->results = results.NumMatches();
    stats->total_ms = total_ms;
  }
  return results;
}

}  // namespace ppsm
