#ifndef RAPID_BENCH_BENCH_COMMON_H_
#define RAPID_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rapid.h"
#include "eval/pipeline.h"
#include "eval/table.h"
#include "rankers/din.h"
#include "rankers/lambdamart.h"
#include "rankers/svmrank.h"
#include "rerank/dpp.h"
#include "rerank/mmr.h"
#include "rerank/neural_models.h"
#include "rerank/pdgan.h"
#include "rerank/ssd.h"

namespace rapid::bench {

/// The standard semi-synthetic experiment scale used by every table/figure
/// binary: sized so a full method sweep finishes in minutes on one core
/// while preserving the paper's qualitative orderings (see DESIGN.md).
inline eval::PipelineConfig StandardConfig(data::DatasetKind kind,
                                           float lambda,
                                           uint64_t seed = 2023) {
  eval::PipelineConfig cfg;
  cfg.sim.kind = kind;
  cfg.sim.num_users = 150;
  cfg.sim.num_items = 800;
  cfg.sim.rerank_lists_per_user = 8;
  cfg.sim.test_lists_per_user = 3;
  cfg.sim.ranker_train_pos_per_user = 6;
  cfg.sim.candidates_per_request = 60;
  cfg.sim.candidate_relevant_frac = 0.25f;
  cfg.dcm.lambda = lambda;
  cfg.list_len = 20;
  cfg.seed = seed;
  return cfg;
}

/// The paper's default initial ranker (DIN), deliberately lightly trained —
/// it is the *initial* stage the re-rankers must improve on.
inline std::unique_ptr<rank::Ranker> StandardDin() {
  rank::DinConfig cfg;
  cfg.epochs = 1;
  return std::make_unique<rank::DinRanker>(cfg);
}

/// Training epochs for the neural re-rankers in bench runs.
inline constexpr int kBenchEpochs = 12;

inline rerank::NeuralRerankConfig BenchNeuralConfig(int hidden = 16) {
  rerank::NeuralRerankConfig cfg;
  cfg.epochs = kBenchEpochs;
  cfg.hidden_dim = hidden;
  return cfg;
}

inline core::RapidConfig BenchRapidConfig(
    core::OutputHead head = core::OutputHead::kProbabilistic,
    int hidden = 16) {
  core::RapidConfig cfg;
  cfg.train = BenchNeuralConfig(hidden);
  cfg.hidden_dim = hidden;
  cfg.head = head;
  return cfg;
}

/// The full method line-up of Tables II-IV, in the paper's row order.
inline std::vector<std::unique_ptr<rerank::Reranker>> AllMethods() {
  std::vector<std::unique_ptr<rerank::Reranker>> out;
  out.push_back(std::make_unique<rerank::InitReranker>());
  out.push_back(std::make_unique<rerank::DlcmReranker>(BenchNeuralConfig()));
  out.push_back(std::make_unique<rerank::PrmReranker>(BenchNeuralConfig()));
  out.push_back(
      std::make_unique<rerank::SetRankReranker>(BenchNeuralConfig()));
  out.push_back(std::make_unique<rerank::SrgaReranker>(BenchNeuralConfig()));
  out.push_back(std::make_unique<rerank::MmrReranker>());
  out.push_back(std::make_unique<rerank::DppReranker>());
  {
    rerank::NeuralRerankConfig desa_cfg = BenchNeuralConfig();
    desa_cfg.loss = rerank::RerankLoss::kPairwiseLogistic;
    out.push_back(std::make_unique<rerank::DesaReranker>(desa_cfg));
  }
  out.push_back(std::make_unique<rerank::SsdReranker>());
  out.push_back(std::make_unique<rerank::AdpMmrReranker>());
  out.push_back(std::make_unique<rerank::PdGanReranker>());
  out.push_back(std::make_unique<core::RapidReranker>(
      BenchRapidConfig(core::OutputHead::kDeterministic)));
  out.push_back(std::make_unique<core::RapidReranker>(
      BenchRapidConfig(core::OutputHead::kProbabilistic)));
  return out;
}

/// Runs every method on `env` and renders the paper-style table with the
/// given metric columns. Prints per-method progress to stderr.
std::string RunMethodSweep(const eval::Environment& env,
                           const std::vector<std::string>& metric_columns,
                           const std::string& title,
                           eval::ResultTable* table_out = nullptr);

/// The bench command line, parsed in exactly one place. Every bench binary
/// accepts the same three flags, each a no-op where the bench has no such
/// mode:
///   --json   machine-readable output for perf/run_ledger.sh
///   --quick  reduced workload for gates and CI
///   --check  enforce the bench's acceptance thresholds (exit 1 on fail)
/// Any other argument prints usage and exits 2, so a typo'd flag never
/// runs the default configuration.
struct BenchArgs {
  bool json = false;
  bool quick = false;
  bool check = false;

  static BenchArgs Parse(int argc, char** argv);
};

/// Result of repeating one timed measurement `K` times (see `Repeat`).
/// Perf benches report `median` under the metric's key and `min`/`samples`
/// under side keys, so one noisy run on a shared box moves neither the
/// reported figure nor a speedup built from it (the ratios the perf
/// ledger trends).
struct RepeatStats {
  std::vector<double> samples;
  double min = 0.0;
  double median = 0.0;

  /// The samples as a JSON array fragment, e.g. `[101.2, 99.8, 100.4]`.
  std::string SamplesJson() const;
};

/// Runs `measure` `repetitions` times and summarizes the returned values.
/// The first invocation is NOT discarded: callers that need a warm-up
/// (page-in, allocator steady state) should run one themselves before
/// timing — keeping that explicit avoids silently hiding first-run costs.
RepeatStats Repeat(int repetitions, const std::function<double()>& measure);

/// Renders one repeated measurement as a JSON object fragment: the median
/// under `key`, plus `<key>_min` and `<key>_samples` side keys. `extra`
/// (optional) is spliced verbatim after the metric keys, e.g.
/// `"\"backend\": \"avx2\""`. This is the one emit path for per-metric
/// rows, so every bench's JSON keeps one key convention.
std::string MetricJson(const std::string& key, const RepeatStats& stats,
                       const std::string& extra = "");

/// Renders a swept result table as one JSON object:
/// `{"title": ..., "rows": [{"method": ..., "metrics": {"click@5": ...}}]}`
/// with per-metric means, matching the numbers in the rendered table.
std::string TableJson(const eval::ResultTable& table,
                      const std::vector<std::string>& metric_columns,
                      const std::string& title);

}  // namespace rapid::bench

#endif  // RAPID_BENCH_BENCH_COMMON_H_
