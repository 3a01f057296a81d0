// Reproduces Table V (RQ4): RAPID with maximum per-topic behavior sequence
// lengths D in {3, 5, 10} on the App Store environment.
//
//   ./build/bench/bench_table5           # paper-style table
//   ./build/bench/bench_table5 --json    # machine-readable

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
        "Table V: RAPID with different maximum lengths of behavior "
        "sequences (App Store).\n\n");
  }

  eval::Environment env(
      bench::StandardConfig(data::DatasetKind::kAppStore, 0.9f),
      bench::StandardDin());
  eval::ResultTable table(columns);
  for (int d : {3, 5, 10}) {
    core::RapidConfig cfg = bench::BenchRapidConfig();
    cfg.max_seq_len = d;
    core::RapidReranker model(cfg);
    eval::MethodMetrics m = eval::FitAndEvaluate(env, model);
    m.name = "RAPID-" + std::to_string(d);
    table.AddRow(m);
    std::fprintf(stderr, "[table5] D=%d done\n", d);
  }
  if (json) {
    std::printf("%s\n",
                bench::TableJson(table, columns, "table5").c_str());
  } else {
    std::printf("%s\n", table.Render("Table V, AppStoreSim").c_str());
  }
  return 0;
}
