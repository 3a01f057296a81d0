// Robustness check beyond the paper: do the DCM conclusions survive under
// a *cascade* click environment (single click, the model the regret
// literature [37,38] assumes)? Trains the top methods on DCM logs as usual
// and evaluates the re-ranked lists by the cascade's analytic click
// probability P(click within top-k).

#include <cstdio>

#include "bench/bench_common.h"
#include "click/cascade.h"
#include "metrics/metrics.h"

int main(int argc, char** argv) {
  using namespace rapid;
  bench::BenchArgs::Parse(argc, argv);  // No modes: only rejects typos.

  std::printf(
      "Cascade-environment robustness check (extension; lambda=0.7).\n\n");

  eval::Environment env(
      bench::StandardConfig(data::DatasetKind::kTaobao, 0.7f),
      bench::StandardDin());
  const data::Dataset& data = env.dataset();
  click::CascadeClickModel cascade(&data, env.dcm().config());

  struct Row {
    std::string name;
    double p5 = 0.0, p10 = 0.0, div10 = 0.0;
  };
  std::vector<Row> rows;

  auto evaluate = [&](rerank::Reranker& method) {
    method.Fit(data, env.train_lists(), 99);
    Row row;
    row.name = method.name();
    for (const auto& list : env.test_lists()) {
      const auto order = method.Rerank(data, list);
      row.p5 += cascade.ClickProbability(list.user_id, order, 5);
      row.p10 += cascade.ClickProbability(list.user_id, order, 10);
      row.div10 += metrics::DivAtK(data, order, 10);
    }
    const double n = static_cast<double>(env.test_lists().size());
    row.p5 /= n;
    row.p10 /= n;
    row.div10 /= n;
    rows.push_back(row);
    std::fprintf(stderr, "[cascade] %s done\n", row.name.c_str());
  };

  rerank::InitReranker init;
  evaluate(init);
  rerank::PrmReranker prm(bench::BenchNeuralConfig());
  evaluate(prm);
  rerank::DppReranker dpp;
  evaluate(dpp);
  core::RapidReranker rapid(bench::BenchRapidConfig());
  evaluate(rapid);

  std::printf("%-12s %12s %12s %12s\n", "", "P(click)@5", "P(click)@10",
              "div@10");
  for (const Row& row : rows) {
    std::printf("%-12s %12.4f %12.4f %12.4f\n", row.name.c_str(), row.p5,
                row.p10, row.div10);
  }
  std::printf(
      "\nExpected shape: same ordering as the DCM tables — trained "
      "re-rankers above Init,\nRAPID at or above PRM, DPP best on div@10 "
      "only.\n");
  return 0;
}
