// Reproduces Figure 4 (RQ4): RAPID with hidden sizes {8, 16, 32, 64} —
// click@10 and div@10 on all three environments at lambda = 0.9.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  bench::BenchArgs::Parse(argc, argv);  // No modes: only rejects typos.
  const std::vector<std::string> columns = {"click@10", "div@10"};

  std::printf("Figure 4: RAPID with different hidden sizes (lambda=0.9).\n\n");

  for (data::DatasetKind kind :
       {data::DatasetKind::kTaobao, data::DatasetKind::kMovieLens,
        data::DatasetKind::kAppStore}) {
    eval::Environment env(bench::StandardConfig(kind, 0.9f),
                          bench::StandardDin());
    eval::ResultTable table(columns);
    for (int hidden : {8, 16, 32, 64}) {
      core::RapidConfig cfg =
          bench::BenchRapidConfig(core::OutputHead::kProbabilistic, hidden);
      // Larger widths need fewer passes to fit at this data scale; keep
      // the compute budget roughly constant across widths.
      cfg.train.epochs = hidden >= 32 ? 8 : bench::kBenchEpochs;
      core::RapidReranker model(cfg);
      eval::MethodMetrics m = eval::FitAndEvaluate(env, model);
      m.name = "RAPID-h" + std::to_string(hidden);
      table.AddRow(m);
      std::fprintf(stderr, "[fig4 %s] hidden=%d done\n",
                   env.dataset().name.c_str(), hidden);
    }
    char title[64];
    std::snprintf(title, sizeof(title), "Figure 4, %s",
                  env.dataset().name.c_str());
    std::printf("%s\n", table.Render(title).c_str());
  }
  return 0;
}
