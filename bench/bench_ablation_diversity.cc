// Ablation of the pluggable submodular diversity function (the paper notes
// Eq. 4 "can be replaced by other submodular diversity functions"): RAPID
// with probabilistic coverage (the default), concave-over-modular, and
// saturating-linear marginal-diversity features, at lambda = 0.5 where
// diversity has the most leverage on clicks.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  bench::BenchArgs::Parse(argc, argv);  // No modes: only rejects typos.
  const std::vector<std::string> columns = {"click@5", "div@5", "click@10",
                                            "div@10"};

  std::printf(
      "Diversity-function ablation (DESIGN.md extension; lambda=0.5).\n\n");

  eval::Environment env(
      bench::StandardConfig(data::DatasetKind::kTaobao, 0.5f),
      bench::StandardDin());
  eval::ResultTable table(columns);
  for (core::DiversityFunctionKind kind :
       {core::DiversityFunctionKind::kProbabilisticCoverage,
        core::DiversityFunctionKind::kConcaveOverModular,
        core::DiversityFunctionKind::kSaturatingLinear}) {
    core::RapidConfig cfg = bench::BenchRapidConfig();
    cfg.diversity_function = kind;
    core::RapidReranker model(cfg);
    eval::MethodMetrics m = eval::FitAndEvaluate(env, model);
    m.name = core::DiversityFunctionName(kind);
    table.AddRow(m);
    std::fprintf(stderr, "[ablation] %s done\n",
                 core::DiversityFunctionName(kind));
  }
  std::printf("%s\n",
              table.Render("RAPID diversity-function ablation, TaobaoSim")
                  .c_str());
  return 0;
}
