// Reproduces Figure 3 (RQ3): ablation of RAPID's components — RAPID vs
// RAPID-RNN (no personalized diversity estimator), RAPID-mean (mean
// aggregation instead of the intra-topic LSTM), RAPID-det (deterministic
// head) and RAPID-trans (transformer relevance encoder) — click@10 and
// div@10 on all three environments.
//
// Adaptation note: the paper runs this at lambda = 0.9, where its 10^7-list
// scale resolves 0.1%-level effects. At this reproduction's scale the
// diversity-branch effect at lambda = 0.9 is below click-noise, so the
// ablation runs at lambda = 0.5 (the paper's diversity-heavy setting),
// where the mechanism under ablation actually has leverage on clicks.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  bench::BenchArgs::Parse(argc, argv);  // No modes: only rejects typos.
  const std::vector<std::string> columns = {"click@10", "div@10"};

  std::printf("Figure 3: ablation analysis of RAPID (lambda=0.5; see header note).\n\n");

  for (data::DatasetKind kind :
       {data::DatasetKind::kTaobao, data::DatasetKind::kMovieLens,
        data::DatasetKind::kAppStore}) {
    eval::Environment env(bench::StandardConfig(kind, 0.5f),
                          bench::StandardDin());
    eval::ResultTable table(columns);

    std::vector<std::unique_ptr<core::RapidReranker>> variants;
    variants.push_back(
        std::make_unique<core::RapidReranker>(bench::BenchRapidConfig()));
    {
      core::RapidConfig cfg = bench::BenchRapidConfig();
      cfg.diversity_aggregator = core::DiversityAggregator::kNone;
      variants.push_back(std::make_unique<core::RapidReranker>(cfg));
    }
    {
      core::RapidConfig cfg = bench::BenchRapidConfig();
      cfg.diversity_aggregator = core::DiversityAggregator::kMean;
      variants.push_back(std::make_unique<core::RapidReranker>(cfg));
    }
    variants.push_back(std::make_unique<core::RapidReranker>(
        bench::BenchRapidConfig(core::OutputHead::kDeterministic)));
    {
      core::RapidConfig cfg = bench::BenchRapidConfig();
      cfg.relevance_encoder = core::RelevanceEncoder::kTransformer;
      variants.push_back(std::make_unique<core::RapidReranker>(cfg));
    }

    for (auto& model : variants) {
      table.AddRow(eval::FitAndEvaluate(env, *model));
      std::fprintf(stderr, "[fig3 %s] %s done\n",
                   env.dataset().name.c_str(), model->name().c_str());
    }
    char title[64];
    std::snprintf(title, sizeof(title), "Figure 3, %s",
                  env.dataset().name.c_str());
    std::printf("%s\n", table.Render(title).c_str());
  }
  return 0;
}
