// Reproduces Table IV (RQ2): performance with SVMRank and LambdaMART as
// the initial ranker, click@10 / div@10 at lambda = 0.9 on both public
// environments.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace rapid;
  const bool json = bench::BenchArgs::Parse(argc, argv).json;
  const std::vector<std::string> columns = {"click@10", "div@10"};

  if (!json) {
    std::printf(
        "Table IV: comparison on different initial ranking lists "
        "(lambda=0.9).\n\n");
  }

  struct RankerSpec {
    const char* name;
    std::function<std::unique_ptr<rank::Ranker>()> make;
  };
  // Like DIN (1 epoch), the alternative initial rankers are lightly
  // trained: they model the stage *before* re-ranking, whose headroom the
  // re-rankers are measured on.
  const std::vector<RankerSpec> rankers = {
      {"SVMRank",
       [] {
         rank::SvmRankConfig cfg;
         cfg.epochs = 3;
         cfg.learning_rate = 0.02f;
         return std::make_unique<rank::SvmRankRanker>(cfg);
       }},
      {"LambdaMART",
       [] {
         rank::LambdaMartConfig cfg;
         cfg.num_trees = 12;
         cfg.tree.max_depth = 3;
         return std::make_unique<rank::LambdaMartRanker>(cfg);
       }},
  };

  bool first = true;
  if (json) std::printf("[");
  for (const RankerSpec& spec : rankers) {
    for (data::DatasetKind kind :
         {data::DatasetKind::kTaobao, data::DatasetKind::kMovieLens}) {
      eval::Environment env(bench::StandardConfig(kind, 0.9f), spec.make());
      char title[96];
      std::snprintf(title, sizeof(title), "Table IV, %s initial ranker, %s",
                    spec.name, env.dataset().name.c_str());
      eval::ResultTable table(columns);
      const std::string rendered =
          bench::RunMethodSweep(env, columns, title, &table);
      if (json) {
        std::printf("%s%s", first ? "" : ",\n",
                    bench::TableJson(table, columns, title).c_str());
        first = false;
      } else {
        std::printf("%s\n", rendered.c_str());
      }
    }
  }
  if (json) std::printf("]\n");
  return 0;
}
