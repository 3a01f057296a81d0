// Reproduces Table VI: training and inference efficiency of PRM, DESA and
// RAPID on all three environments — total training time (train-all), plus
// google-benchmark timings of one 16-list training step (train-b) and one
// 16-list inference pass (test-b).
//
// `--json` switches to a machine-readable single-object output: train-all
// plus chrono-timed train-b/test-b per cell (google-benchmark is skipped —
// its repetition protocol is for the human-facing run; the JSON wants one
// comparable number per cell).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"

namespace {

using namespace rapid;

struct Cell {
  std::unique_ptr<eval::Environment> env;
  std::vector<data::ImpressionList> batch;  // 16 training lists
};

Cell& GetCell(data::DatasetKind kind) {
  static std::unique_ptr<Cell> cells[3];
  const int idx = static_cast<int>(kind);
  if (!cells[idx]) {
    auto cell = std::make_unique<Cell>();
    eval::PipelineConfig cfg = bench::StandardConfig(kind, 0.9f);
    cfg.sim.num_users = 60;  // Efficiency study: smaller universe suffices.
    cell->env =
        std::make_unique<eval::Environment>(cfg, bench::StandardDin());
    cell->batch.assign(cell->env->train_lists().begin(),
                       cell->env->train_lists().begin() + 16);
    cells[idx] = std::move(cell);
  }
  return *cells[idx];
}

std::unique_ptr<rerank::NeuralReranker> MakeModel(int which) {
  rerank::NeuralRerankConfig one_epoch = bench::BenchNeuralConfig();
  one_epoch.epochs = 1;
  switch (which) {
    case 0:
      return std::make_unique<rerank::PrmReranker>(one_epoch);
    case 1: {
      rerank::NeuralRerankConfig desa = one_epoch;
      desa.loss = rerank::RerankLoss::kPairwiseLogistic;
      return std::make_unique<rerank::DesaReranker>(desa);
    }
    default: {
      core::RapidConfig cfg = bench::BenchRapidConfig();
      cfg.train.epochs = 1;
      return std::make_unique<core::RapidReranker>(cfg);
    }
  }
}

// One optimizer step over a 16-list batch (the paper's train-b).
void BM_TrainBatch(benchmark::State& state, int dataset, int model_id) {
  Cell& cell = GetCell(static_cast<data::DatasetKind>(dataset));
  auto model = MakeModel(model_id);
  for (auto _ : state) {
    model->Fit(cell.env->dataset(), cell.batch, 1);
  }
}

// Inference over a 16-list batch (the paper's test-b).
void BM_TestBatch(benchmark::State& state, int dataset, int model_id) {
  Cell& cell = GetCell(static_cast<data::DatasetKind>(dataset));
  auto model = MakeModel(model_id);
  model->Fit(cell.env->dataset(), cell.batch, 1);  // Initialize weights.
  for (auto _ : state) {
    for (const auto& list : cell.batch) {
      benchmark::DoNotOptimize(
          model->ScoreList(cell.env->dataset(), list));
    }
  }
}

void RegisterAll() {
  const char* datasets[] = {"Taobao", "MovieLens", "AppStore"};
  const char* models[] = {"PRM", "DESA", "RAPID"};
  for (int d = 0; d < 3; ++d) {
    for (int m = 0; m < 3; ++m) {
      const std::string train_name =
          std::string("TrainBatch/") + datasets[d] + "/" + models[m];
      const std::string test_name =
          std::string("TestBatch/") + datasets[d] + "/" + models[m];
      benchmark::RegisterBenchmark(
          train_name.c_str(),
          [d, m](benchmark::State& state) { BM_TrainBatch(state, d, m); })
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          test_name.c_str(),
          [d, m](benchmark::State& state) { BM_TestBatch(state, d, m); })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintTrainAll() {
  std::printf(
      "Table VI (train-all): total training time to %d epochs on the full "
      "re-ranking training split.\n",
      bench::kBenchEpochs);
  const data::DatasetKind kinds[] = {data::DatasetKind::kTaobao,
                                     data::DatasetKind::kMovieLens,
                                     data::DatasetKind::kAppStore};
  for (data::DatasetKind kind : kinds) {
    Cell& cell = GetCell(kind);
    for (int m = 0; m < 3; ++m) {
      std::unique_ptr<rerank::NeuralReranker> model;
      if (m == 0) {
        model = std::make_unique<rerank::PrmReranker>(
            bench::BenchNeuralConfig());
      } else if (m == 1) {
        model = std::make_unique<rerank::DesaReranker>(
            bench::BenchNeuralConfig());
      } else {
        model = std::make_unique<core::RapidReranker>(
            bench::BenchRapidConfig());
      }
      const auto t0 = std::chrono::steady_clock::now();
      model->Fit(cell.env->dataset(), cell.env->train_lists(), 1);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      std::printf("  %-12s %-6s train-all = %6.1f s\n",
                  cell.env->dataset().name.c_str(),
                  model->name().c_str(), secs);
    }
  }
  std::printf("\n");
}

// One JSON row per (dataset, model) cell with train-all, train-b, and
// test-b seconds, all chrono-timed.
void PrintJson() {
  const data::DatasetKind kinds[] = {data::DatasetKind::kTaobao,
                                     data::DatasetKind::kMovieLens,
                                     data::DatasetKind::kAppStore};
  const char* models[] = {"PRM", "DESA", "RAPID"};
  std::string rows;
  for (data::DatasetKind kind : kinds) {
    Cell& cell = GetCell(kind);
    for (int m = 0; m < 3; ++m) {
      const auto timed = [](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
            .count();
      };
      std::unique_ptr<rerank::NeuralReranker> full;
      if (m == 0) {
        full = std::make_unique<rerank::PrmReranker>(bench::BenchNeuralConfig());
      } else if (m == 1) {
        full = std::make_unique<rerank::DesaReranker>(
            bench::BenchNeuralConfig());
      } else {
        full = std::make_unique<core::RapidReranker>(bench::BenchRapidConfig());
      }
      const double train_all_s = timed([&] {
        full->Fit(cell.env->dataset(), cell.env->train_lists(), 1);
      });

      auto batch_model = MakeModel(m);
      const double train_b_s = timed([&] {
        batch_model->Fit(cell.env->dataset(), cell.batch, 1);
      });
      const double test_b_s = timed([&] {
        for (const auto& list : cell.batch) {
          benchmark::DoNotOptimize(
              batch_model->ScoreList(cell.env->dataset(), list));
        }
      });

      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s  {\"dataset\": \"%s\", \"model\": \"%s\", "
                    "\"train_all_s\": %.3f, \"train_b_s\": %.4f, "
                    "\"test_b_s\": %.4f}",
                    rows.empty() ? "" : ",\n",
                    cell.env->dataset().name.c_str(), models[m], train_all_s,
                    train_b_s, test_b_s);
      rows += row;
      std::fprintf(stderr, "[table6] %s/%s done\n",
                   cell.env->dataset().name.c_str(), models[m]);
    }
  }
  std::printf("{\"bench\": \"table6\", \"epochs\": %d, \"rows\": [\n%s\n]}\n",
              bench::kBenchEpochs, rows.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Google Benchmark consumes its --benchmark_* flags; the rest are ours.
  benchmark::Initialize(&argc, argv);
  if (bench::BenchArgs::Parse(argc, argv).json) {
    PrintJson();
    return 0;
  }
  PrintTrainAll();
  RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
