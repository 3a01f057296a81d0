// Reproduces Table II: overall performance on the Taobao and MovieLens
// semi-synthetic environments under DCM tradeoff lambda in {0.5, 0.9, 1.0}.
// One sub-table per (lambda, dataset) cell, mirroring the paper's layout.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  const bool json = bench::BenchArgs::Parse(argc, argv).json;
  const std::vector<std::string> columns = {
      "click@5",  "ndcg@5",  "div@5",  "satis@5",
      "click@10", "ndcg@10", "div@10", "satis@10"};

  if (!json) {
    std::printf(
        "Table II: overall performance with DIN as the initial ranker.\n"
        "Semi-synthetic reproduction: absolute values differ from the paper "
        "(simulated data,\nreduced scale); the method ordering is the claim "
        "under reproduction.\n\n");
  }

  bool first = true;
  if (json) std::printf("[");
  for (float lambda : {0.5f, 0.9f, 1.0f}) {
    for (data::DatasetKind kind :
         {data::DatasetKind::kTaobao, data::DatasetKind::kMovieLens}) {
      eval::Environment env(bench::StandardConfig(kind, lambda),
                            bench::StandardDin());
      char title[96];
      std::snprintf(title, sizeof(title), "Table II, lambda=%.1f, %s",
                    lambda, env.dataset().name.c_str());
      eval::ResultTable table(columns);
      const std::string rendered =
          bench::RunMethodSweep(env, columns, title, &table);
      if (json) {
        std::printf("%s%s", first ? "" : ",\n",
                    bench::TableJson(table, columns, title).c_str());
        first = false;
        continue;
      }
      std::printf("%s\n", rendered.c_str());
      std::printf(
          "RAPID-pro vs PRM: click@10 %+0.2f%%  div@10 %+0.2f%%\n\n",
          table.ImprovementPercent("RAPID-pro", "PRM", "click@10"),
          table.ImprovementPercent("RAPID-pro", "PRM", "div@10"));
    }
  }
  if (json) std::printf("]\n");
  return 0;
}
