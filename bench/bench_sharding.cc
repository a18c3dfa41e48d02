// bench_sharding — the sharded cloud's exchange-volume study.
//
// The BSP exchange ships *un-expanded* R(S,Go) rows, so its byte volume
// must be independent of the privacy parameter k (DESIGN.md §13). This
// bench makes that claim measurable: a synthetic outsourced graph whose Go
// is IDENTICAL for every k (only the AVT/Gk ids grow with k) is served at
// k ∈ {2, 8} and shard counts {1, 2, 4}, asserting along the way that every
// cluster payload is byte-identical to the test-only reference pipeline's
// (tests/cloud_oracle.h) over the whole upload.
//
// Unlike the timing benches this one is fully deterministic — a counting
// benchmark, no timers: the fixture is formula-built, seeds are fixed, and
// every emitted leaf (bytes, rows, equality flags) reproduces exactly on
// any host. That is what lets CI gate it with
//
//   tools/bench_diff.py --threshold 0
//       bench_results/BENCH_sharding.json <out>/BENCH_sharding.json
//
// PPSM_BENCH_SCALE / PPSM_BENCH_QUERIES are deliberately ignored; only
// PPSM_BENCH_OUT (output directory) is honored.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cloud/cloud_server.h"
#include "cloud/cluster.h"
#include "tests/cloud_oracle.h"
#include "cloud/messages.h"
#include "graph/attributed_graph.h"
#include "graph/query_extractor.h"
#include "kauto/avt.h"
#include "kauto/outsourced_graph.h"
#include "util/random.h"
#include "util/table.h"

namespace ppsm::bench {
namespace {

constexpr size_t kVertices = 360;
constexpr uint32_t kNumTypes = 4;
constexpr uint32_t kNumGroups = 24;  // 4 | 24, so type_of_group is g % 4.
constexpr size_t kNumQueries = 8;
constexpr uint64_t kQuerySeed = 17;
constexpr uint32_t kKs[] = {2, 8};
constexpr uint32_t kShardCounts[] = {1, 2, 4};

/// A B1-only outsourced upload (num_b1 == |V(Go)|, no halo) whose Go does
/// not depend on k: vertex r of Go is Gk vertex r*k (block 0 of AVT row r),
/// and the k-1 symmetric copies r*k+b exist only in the AVT. Types, labels
/// (group ids) and edges are formula-built, so the package — and therefore
/// the extracted query workload and the exchange byte counts — reproduce
/// exactly on every host.
Result<UploadPackage> MakePackage(uint32_t k) {
  GraphBuilder builder;
  builder.ReserveVertices(kVertices);
  for (VertexId v = 0; v < kVertices; ++v) {
    builder.AddVertex(static_cast<VertexTypeId>(v % kNumTypes),
                      {static_cast<LabelId>(v % kNumGroups)});
  }
  for (VertexId v = 0; v < kVertices; ++v) {
    // Ring plus two chord stencils: average degree 6, plenty of star
    // matches without blowing up the join.
    builder.TryAddEdge(v, (v + 1) % kVertices);
    builder.TryAddEdge(v, (v + 7) % kVertices);
    builder.TryAddEdge(v, (v + 13) % kVertices);
  }
  OutsourcedGraph go;
  PPSM_ASSIGN_OR_RETURN(go.graph, builder.Build());
  go.num_b1 = kVertices;
  go.k = k;
  go.to_gk.resize(kVertices);
  Avt avt(k, kVertices);
  for (uint32_t r = 0; r < kVertices; ++r) {
    go.to_gk[r] = static_cast<VertexId>(r * k);
    for (uint32_t b = 0; b < k; ++b) {
      avt.Place(r, b, static_cast<VertexId>(r * k + b));
    }
  }
  UploadPackage package;
  package.k = k;
  package.num_types = kNumTypes;
  package.type_of_group.resize(kNumGroups);
  for (uint32_t g = 0; g < kNumGroups; ++g) {
    package.type_of_group[g] = static_cast<VertexTypeId>(g % kNumTypes);
  }
  package.go = std::move(go);
  package.avt = std::move(avt);
  return package;
}

struct CellResult {
  uint32_t k = 0;
  uint32_t shards = 0;
  size_t result_rows = 0;
  size_t exchanged_bytes = 0;
  bool identical = true;  // Payloads byte-equal to the oracle's.
};

/// Writes the gate snapshot. The committed bench_results/BENCH_sharding.json
/// is this function's verbatim output, so CI can diff at --threshold 0.
void WriteBenchJson(const std::string& path,
                    const std::vector<CellResult>& cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_sharding: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"description\": \"Sharded-cloud exchange volume: un-expanded "
         "R(S,Go) probe rows shipped shard -> coordinator must not depend "
         "on the privacy parameter k, and every cluster response payload "
         "must be byte-identical to the reference pipeline's over the whole "
         "upload (tests/cloud_oracle.h). Fully deterministic counting "
         "benchmark (no timers).\",\n"
      << "  \"fixture\": \"synthetic B1-only Go, " << kVertices
      << " vertices, " << kNumTypes << " types, " << kNumGroups
      << " label groups, ring+chord(7,13) edges; identical Go for every k "
         "(Gk vertex of Go-local r is r*k); "
      << kNumQueries << " extracted queries of 3-6 edges, seed "
      << kQuerySeed << "\",\n"
      << "  \"command\": \"bench_sharding (ignores PPSM_BENCH_SCALE / "
         "PPSM_BENCH_QUERIES; honors PPSM_BENCH_OUT)\",\n"
      << "  \"units\": \"bytes, rows, flags (1 = byte-identical / "
         "k-invariant, 0 = violated)\",\n"
      << "  \"host_note\": \"Every leaf is deterministic: the fixture is "
         "formula-built and the pipeline is integer counting, so CI gates "
         "this file with tools/bench_diff.py --threshold 0 against a fresh "
         "run.\",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out << "    { \"k\": " << c.k << ", \"shards\": " << c.shards
        << ", \"queries\": " << kNumQueries << ", \"result_rows\": "
        << c.result_rows << ", \"exchanged_bytes\": " << c.exchanged_bytes
        << ", \"identical_payloads\": " << (c.identical ? 1 : 0) << " }"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"exchange_k_invariance\": [\n";
  bool first = true;
  for (const uint32_t shards : kShardCounts) {
    size_t k2 = 0, k8 = 0;
    for (const CellResult& c : cells) {
      if (c.shards != shards) continue;
      (c.k == 2 ? k2 : k8) = c.exchanged_bytes;
    }
    out << (first ? "" : ",\n") << "    { \"shards\": " << shards
        << ", \"k2_bytes\": " << k2 << ", \"k8_bytes\": " << k8
        << ", \"bytes_equal\": " << (k2 == k8 ? 1 : 0) << " }";
    first = false;
  }
  out << "\n  ],\n"
      << "  \"diff_tool\": \"tools/bench_diff.py compares two of these "
         "files: numeric leaves as before -> after (delta%), --threshold N "
         "exits 1 past N percent (0 here: the bench is deterministic)\"\n"
      << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run() {
  std::vector<CellResult> cells;
  Table table("Sharded cloud: exchange volume and byte-identity (Go fixed, "
              "k varies — exchanged bytes must not)",
              {"k", "shards", "queries", "result_rows", "exchanged_bytes",
               "identical"});
  bool all_identical = true;

  for (const uint32_t k : kKs) {
    auto package = MakePackage(k);
    if (!package.ok()) {
      std::fprintf(stderr, "fixture: %s\n",
                   package.status().ToString().c_str());
      return 1;
    }
    const std::vector<uint8_t> upload = package->Serialize();
    auto server = CloudServer::Host(upload);
    if (!server.ok()) {
      std::fprintf(stderr, "host: %s\n", server.status().ToString().c_str());
      return 1;
    }

    // Re-seeded per k: Go is identical across k, so the workload is too.
    Rng rng(kQuerySeed);
    std::vector<std::vector<uint8_t>> requests;
    for (size_t i = 0; i < kNumQueries; ++i) {
      auto extracted = ExtractQuery(package->go->graph, 3 + i % 4, rng);
      if (!extracted.ok()) {
        std::fprintf(stderr, "extract: %s\n",
                     extracted.status().ToString().c_str());
        return 1;
      }
      requests.push_back(SerializeQueryRequest(extracted->query));
    }

    for (const uint32_t num_shards : kShardCounts) {
      ClusterConfig config;
      config.num_shards = num_shards;
      auto cluster = CloudCluster::Host(upload, config);
      if (!cluster.ok()) {
        std::fprintf(stderr, "cluster: %s\n",
                     cluster.status().ToString().c_str());
        return 1;
      }
      CellResult cell;
      cell.k = k;
      cell.shards = num_shards;
      for (const auto& request : requests) {
        auto want = OracleServe(*server, request);
        auto got = cluster->Serve(request);
        if (!want.ok() || !got.ok()) {
          std::fprintf(stderr, "serve failed (k=%u shards=%u)\n", k,
                       num_shards);
          return 1;
        }
        cell.result_rows += got->stats.result_rows;
        if (got->response_payload != want->payload) {
          cell.identical = false;
        }
      }
      cell.exchanged_bytes = cluster->ExchangedBytes();
      all_identical = all_identical && cell.identical;
      table.AddRowValues(cell.k, cell.shards, kNumQueries, cell.result_rows,
                         cell.exchanged_bytes, cell.identical ? 1 : 0);
      cells.push_back(cell);
    }
  }

  Emit(table, "sharding");
  for (const uint32_t shards : kShardCounts) {
    size_t k2 = 0, k8 = 0;
    for (const CellResult& c : cells) {
      if (c.shards != shards) continue;
      (c.k == 2 ? k2 : k8) = c.exchanged_bytes;
    }
    std::printf("shards=%u: exchanged bytes k=2: %zu, k=8: %zu (%s)\n",
                shards, k2, k8, k2 == k8 ? "k-invariant" : "VARIES WITH k");
    if (k2 != k8) all_identical = false;
  }

  const std::string dir = OutDir();
  if (!dir.empty()) WriteBenchJson(dir + "/BENCH_sharding.json", cells);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: sharded payloads diverged or exchange volume "
                 "depends on k\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ppsm::bench

int main() { return ppsm::bench::Run(); }
