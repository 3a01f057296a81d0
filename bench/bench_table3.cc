// Reproduces Table III: overall performance on the App Store environment
// (one-hot categories, per-item bids, revenue objective). Evaluation uses
// clicks sampled from the held-out ground-truth user model rather than the
// estimated click model, mirroring the paper's real-click evaluation.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  const bool json = bench::BenchArgs::Parse(argc, argv).json;
  const std::vector<std::string> columns = {
      "click@5",  "ndcg@5",  "div@5",  "rev@5",
      "click@10", "ndcg@10", "div@10", "rev@10"};

  if (!json) {
    std::printf(
        "Table III: overall performance on the App Store dataset.\n\n");
  }

  eval::Environment env(
      bench::StandardConfig(data::DatasetKind::kAppStore, 0.9f),
      bench::StandardDin());
  eval::ResultTable table(columns);
  const std::string rendered =
      bench::RunMethodSweep(env, columns, "Table III, AppStoreSim", &table);
  if (json) {
    std::printf("%s\n",
                bench::TableJson(table, columns, "Table III, AppStoreSim")
                    .c_str());
    return 0;
  }
  std::printf("%s\n", rendered.c_str());

  // The paper reports improvement of RAPID-pro over PRM (the strongest
  // baseline on rev@k) plus significance.
  std::printf("impv%% of RAPID-pro over PRM:\n");
  for (const std::string& m : columns) {
    std::printf("  %-9s %+6.2f%%", m.c_str(),
                table.ImprovementPercent("RAPID-pro", "PRM", m));
    const auto& rows = table.rows();
    const eval::MethodMetrics* rapid = nullptr;
    const eval::MethodMetrics* prm = nullptr;
    for (const auto& r : rows) {
      if (r.name == "RAPID-pro") rapid = &r;
      if (r.name == "PRM") prm = &r;
    }
    if (rapid != nullptr && prm != nullptr) {
      std::printf("  (paired t-test p=%.4f)",
                  eval::CompareMethods(*rapid, *prm, m));
    }
    std::printf("\n");
  }
  return 0;
}
