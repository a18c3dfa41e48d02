// Pattern search: the library's "app developer" workflow.
//
// Shows the extension modules working together: a graph persisted in the
// text format, an owner whose anonymization state is saved and restored
// across "restarts" (identical published bytes — republishing a re-noised
// graph would weaken the privacy guarantee), and queries written in the
// textual pattern language instead of hand-built graphs.
//
//   ./pattern_search [workdir]   (default: a temp directory)

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "cloud/cluster.h"
#include "cloud/owner_store.h"
#include "graph/example_graphs.h"
#include "graph/text_io.h"
#include "query/pattern_parser.h"

int main(int argc, char** argv) {
  using namespace ppsm;

  const std::string workdir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path() / "ppsm_pattern_demo";
  std::filesystem::create_directories(workdir);

  // --- Day 0: persist the graph, anonymize, save the owner state. ---
  RunningExample ex = MakeRunningExample();
  const std::string graph_path = workdir + "/social.graph";
  if (const Status s = WriteGraphTextFile(ex.graph, graph_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  if (!owner.ok()) {
    std::cerr << owner.status() << "\n";
    return 1;
  }
  if (const Status s = SaveDataOwner(*owner, workdir + "/owner"); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "Saved graph + anonymization state under " << workdir
            << "\n\n";

  // --- Day 1 (a fresh process, conceptually): restore and query. ---
  auto graph = ReadGraphTextFile(graph_path);
  auto restored = LoadDataOwner(workdir + "/owner");
  if (!graph.ok() || !restored.ok()) {
    std::cerr << "restore failed\n";
    return 1;
  }
  if (restored->upload_bytes() != owner->upload_bytes()) {
    std::cerr << "BUG: restored owner would republish different bytes!\n";
    return 1;
  }
  auto cloud = CloudCluster::Host(restored->upload_bytes(), ClusterConfig{});
  if (!cloud.ok()) {
    std::cerr << cloud.status() << "\n";
    return 1;
  }

  // A query in the pattern language (the paper's Figure 1 question).
  const char* pattern = R"(
    # Two individuals from the same Illinois school, one at an Internet
    # company, one at a Software company.
    (c1:Company {"COMPANY TYPE"=Internet})
    (p1:Individual)
    (s:School {LOCATEDIN=Illinois})
    (c2:Company {"COMPANY TYPE"=Software})
    (p2:Individual)
    c1 -- p1
    p1 -- s
    s -- p2
    p2 -- c2
  )";
  auto parsed = ParsePattern(pattern, *graph->schema());
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    return 1;
  }
  std::cout << "Query pattern:\n"
            << FormatPattern(parsed->query, *graph->schema(),
                             parsed->variables)
            << "\n";

  auto request = restored->AnonymizeQueryToRequest(parsed->query);
  auto answer = cloud->Serve(*request);
  if (!answer.ok()) {
    std::cerr << answer.status() << "\n";
    return 1;
  }
  auto results =
      restored->ProcessResponse(parsed->query, answer->response_payload);
  if (!results.ok()) {
    std::cerr << results.status() << "\n";
    return 1;
  }

  const char* names[] = {"Tom",    "Lucy",      "Alice", "David",
                         "Google", "Microsoft", "UIUC",  "MIT"};
  std::cout << results->NumMatches() << " exact match(es):\n";
  for (size_t r = 0; r < results->NumMatches(); ++r) {
    const auto row = results->Get(r);
    std::cout << "  ";
    for (size_t q = 0; q < row.size(); ++q) {
      std::cout << parsed->variables[q] << "=" << names[row[q]] << " ";
    }
    std::cout << "\n";
  }
  return 0;
}
