// Batched-inference harness: proves the `ScoreBatch`/`RerankBatch` path
// is (a) bit-exact against the per-list path and (b) a real throughput
// win once per-request overhead (feature fetch, graph setup) is amortized
// across a micro-batch.
//
// Phases, all on a snapshot-round-tripped RAPID model (what a serving
// process actually runs):
//  - "exactness":      ScoreBatch over randomized mixed-length lists must
//                      reproduce ScoreList bitwise, list by list.
//  - "compute":        direct model calls, per-list loop vs ScoreBatch in
//                      chunks of 8 — the pure forward-pass batching win.
//  - "fetch+compute":  a one-slot `serve::ServingRouter` at 2 workers
//                      with a per-*batch* feature-fetch stall (a batched
//                      feature-store RPC), micro-batch 1 vs 8. The
//                      headline: batching amortizes the fetch, and the
//                      speedup at batch 8 must be >= 1.5x.
//
// Every timed cell repeats `kRepetitions` times; the median is reported
// under `throughput_rps`, min/samples ride along. The two speedups are
// ratios of those medians; they are what the perf ledger trends.
//
//   ./build/bench/bench_batch                    # full run, JSON to stdout
//   ./build/bench/bench_batch --quick            # smoke-test sizing
//   ./build/bench/bench_batch --quick --check    # exit 1 unless exact and
//                                                # speedup >= 1.5 (used by
//                                                # the perf_batch_gate
//                                                # ctest)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using rapid::data::ImpressionList;

// Decorates a fitted re-ranker with the fetch stall of a live deployment,
// charged once per *call*: a per-list call stalls per list, a batched call
// stalls once for the whole batch — modeling a feature-store RPC whose
// cost is dominated by the round trip, not the payload size. Stateless
// around a const inner model, so it inherits the thread-safety contract.
class FetchStallBatchReranker : public rapid::rerank::Reranker {
 public:
  FetchStallBatchReranker(const rapid::rerank::Reranker& inner, int stall_us)
      : inner_(inner), stall_us_(stall_us) {}

  std::string name() const override { return inner_.name() + "+fetch"; }

  std::vector<int> Rerank(const rapid::data::Dataset& data,
                          const ImpressionList& list) const override {
    Stall();
    return inner_.Rerank(data, list);
  }

  void RerankBatchInto(const rapid::data::Dataset& data,
                       const std::vector<const ImpressionList*>& lists,
                       std::vector<std::vector<int>>* out) const override {
    Stall();
    inner_.RerankBatchInto(data, lists, out);
  }

 private:
  void Stall() const {
    if (stall_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    }
  }

  const rapid::rerank::Reranker& inner_;
  const int stall_us_;
};

// Mixed-length copies of the test lists: each variant keeps a prefix of a
// source list, so batched grouping has several length classes to handle.
std::vector<ImpressionList> MixedLengthLists(
    const std::vector<ImpressionList>& source, int count,
    std::mt19937_64& rng) {
  std::vector<ImpressionList> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    ImpressionList list = source[i % source.size()];
    const int full = static_cast<int>(list.items.size());
    std::uniform_int_distribution<int> len_dist(1, full);
    const int keep = len_dist(rng);
    list.items.resize(keep);
    list.scores.resize(keep);
    list.clicks.clear();
    out.push_back(std::move(list));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const bool quick = args.quick, check = args.check;

  eval::PipelineConfig config;
  config.sim.kind = data::DatasetKind::kTaobao;
  config.sim.num_users = 80;
  config.sim.num_items = 500;
  config.sim.rerank_lists_per_user = 4;
  config.sim.test_lists_per_user = 2;
  config.dcm.lambda = 0.9f;
  config.seed = 2023;

  std::fprintf(stderr, "[batch] building environment...\n");
  eval::Environment env(config, bench::StandardDin());

  std::fprintf(stderr, "[batch] training RAPID...\n");
  core::RapidConfig rapid_config = bench::BenchRapidConfig();
  rapid_config.train.epochs = 2;  // Throughput is weight-agnostic.
  core::RapidReranker trained(rapid_config);
  trained.Fit(env.dataset(), env.train_lists(), /*seed=*/7);

  const std::string snapshot_path = "/tmp/bench_batch.rsnp";
  if (!serve::Snapshot::Save(snapshot_path, trained, env.dataset())) {
    std::fprintf(stderr, "[batch] snapshot save failed\n");
    return 1;
  }
  const auto model = serve::Snapshot::LoadAny(snapshot_path, env.dataset());
  if (model == nullptr) {
    std::fprintf(stderr, "[batch] snapshot load failed\n");
    return 1;
  }

  // --- Exactness: batched scores must be bitwise equal to per-list ones,
  // on the round-tripped model, across randomized mixed lengths.
  std::mt19937_64 rng(17);
  const std::vector<ImpressionList> mixed =
      MixedLengthLists(env.test_lists(), quick ? 24 : 64, rng);
  std::vector<const ImpressionList*> mixed_ptrs;
  for (const ImpressionList& list : mixed) mixed_ptrs.push_back(&list);
  bool exact = true;
  {
    const std::vector<std::vector<float>> batched =
        model->ScoreBatch(env.dataset(), mixed_ptrs);
    for (size_t i = 0; i < mixed.size() && exact; ++i) {
      const std::vector<float> single = model->ScoreList(env.dataset(), mixed[i]);
      exact = batched[i] == single;  // bitwise: float == float
    }
    std::fprintf(stderr, "[batch] exactness over %zu mixed-length lists: %s\n",
                 mixed.size(), exact ? "BITWISE EQUAL" : "MISMATCH");
  }

  // Identical request stream for every timed cell.
  const int total_requests = quick ? 160 : 800;
  std::vector<const ImpressionList*> stream;
  stream.reserve(total_requests);
  for (int i = 0; i < total_requests; ++i) {
    stream.push_back(&env.test_lists()[i % env.test_lists().size()]);
  }
  const int repetitions = 5;

  std::string results_json;

  // --- Compute phase: direct calls, per-list loop vs chunked ScoreBatch.
  double compute_speedup = 0.0;
  {
    double single_median = 0.0;
    for (const int chunk : {1, 8}) {
      const bench::RepeatStats reps = bench::Repeat(repetitions, [&] {
        const auto t0 = std::chrono::steady_clock::now();
        if (chunk == 1) {
          for (const ImpressionList* list : stream) {
            model->ScoreList(env.dataset(), *list);
          }
        } else {
          for (size_t start = 0; start < stream.size();
               start += static_cast<size_t>(chunk)) {
            const size_t end =
                std::min(stream.size(), start + static_cast<size_t>(chunk));
            const std::vector<const ImpressionList*> group(
                stream.begin() + start, stream.begin() + end);
            model->ScoreBatch(env.dataset(), group);
          }
        }
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        return static_cast<double>(total_requests) / secs;
      });
      if (chunk == 1) single_median = reps.median;
      compute_speedup = single_median > 0 ? reps.median / single_median : 0.0;
      std::fprintf(stderr,
                   "[batch] compute       chunk=%d  %7.0f lists/s median of "
                   "%d (min %.0f, %.2fx vs chunk 1)\n",
                   chunk, reps.median, repetitions, reps.min, compute_speedup);
      char row[512];
      std::snprintf(row, sizeof(row),
                    "%s  {\"mode\": \"compute\", \"batch\": %d, "
                    "\"throughput_rps\": %.1f, \"throughput_rps_min\": %.1f, "
                    "\"throughput_rps_samples\": %s}",
                    results_json.empty() ? "" : ",\n", chunk, reps.median,
                    reps.min, reps.SamplesJson().c_str());
      results_json += row;
    }
  }

  // --- Fetch+compute phase: a one-slot router with a per-batch fetch
  // stall, micro-batch 1 vs 8 at a fixed 2 workers. This isolates the
  // batching win from thread scaling.
  const auto served = std::make_shared<const FetchStallBatchReranker>(
      *model, /*stall_us=*/1500);
  double batch1_median = 0.0, fetch_speedup = 0.0;
  bool serving_exact = true;
  serve::ServingStats batch8_stats;
  for (const int max_batch : {1, 8}) {
    serve::ServingStats stats;  // From the last repetition.
    const bench::RepeatStats reps = bench::Repeat(repetitions, [&] {
      serve::RouterConfig serving;
      serving.num_threads = 2;
      serving.max_batch = max_batch;
      serving.max_wait_us = 100;
      serving.queue_capacity = 256;
      serving.deadline_us = 0;  // Deterministic: every request runs the model.
      serve::ServingRouter router(env.dataset(), serving);
      router.InstallSlot("main", served);

      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<serve::RouterResponse>> futures;
      futures.reserve(stream.size());
      for (const ImpressionList* list : stream) {
        futures.push_back(router.Submit({"main", serve::Lane::kHigh, *list}));
      }
      std::vector<std::vector<int>> responses;
      responses.reserve(futures.size());
      for (auto& f : futures) responses.push_back(f.get().items);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      router.Shutdown();
      stats = router.stats().total;

      if (max_batch == 8 && serving_exact) {
        // Batched serving must return exactly what the direct per-list
        // call returns, request by request.
        for (size_t i = 0; i < responses.size() && serving_exact; ++i) {
          serving_exact =
              responses[i] == model->Rerank(env.dataset(), *stream[i]);
        }
      }
      return static_cast<double>(total_requests) / secs;
    });

    if (max_batch == 1) {
      batch1_median = reps.median;
    } else {
      batch8_stats = stats;
    }
    fetch_speedup = batch1_median > 0 ? reps.median / batch1_median : 0.0;
    std::fprintf(stderr,
                 "[batch] fetch+compute batch=%d  %7.0f req/s median of %d "
                 "(min %.0f, %.2fx vs batch 1)  batches=%llu mean size=%.2f\n",
                 max_batch, reps.median, repetitions, reps.min, fetch_speedup,
                 static_cast<unsigned long long>(stats.batches),
                 stats.batches > 0 ? static_cast<double>(stats.batched_lists) /
                                         static_cast<double>(stats.batches)
                                   : 0.0);
    char row[1536];
    std::snprintf(row, sizeof(row),
                  ",\n  {\"mode\": \"fetch+compute\", \"batch\": %d, "
                  "\"fetch_stall_us\": 1500, \"threads\": 2, "
                  "\"throughput_rps\": %.1f, \"throughput_rps_min\": %.1f, "
                  "\"throughput_rps_samples\": %s, "
                  "\"speedup_vs_batch1\": %.2f, \"stats\": ",
                  max_batch, reps.median, reps.min,
                  reps.SamplesJson().c_str(), fetch_speedup);
    // The stats object is appended unbounded: it outgrows any fixed row.
    results_json += row + stats.ToJson() + "}";
  }
  std::fprintf(stderr,
               "[batch] router batched-vs-direct results: %s\n",
               serving_exact ? "IDENTICAL" : "MISMATCH");

  std::printf(
      "{\"bench\": \"batch\", \"requests\": %d, \"list_len\": %d, "
      "\"repetitions\": %d, \"hardware_threads\": %u, "
      "\"exact_scores\": %s, \"exact_serving\": %s, "
      "\"compute_speedup\": %.2f, \"fetch_compute_speedup\": %.2f, "
      "\"results\": [\n%s\n]}\n",
      total_requests, config.list_len, repetitions,
      std::thread::hardware_concurrency(), exact ? "true" : "false",
      serving_exact ? "true" : "false", compute_speedup, fetch_speedup,
      results_json.c_str());

  if (check) {
    bool ok = true;
    if (!exact || !serving_exact) {
      std::fprintf(stderr, "[batch] CHECK FAILED: batched path not exact\n");
      ok = false;
    }
    if (fetch_speedup < 1.5) {
      std::fprintf(stderr,
                   "[batch] CHECK FAILED: fetch+compute speedup %.2fx < "
                   "1.5x at micro-batch 8\n",
                   fetch_speedup);
      ok = false;
    }
    if (batch8_stats.batches == 0 || batch8_stats.max_batch_size < 2) {
      std::fprintf(stderr,
                   "[batch] CHECK FAILED: router never realized a "
                   "multi-request batch (batches=%llu, max=%d)\n",
                   static_cast<unsigned long long>(batch8_stats.batches),
                   batch8_stats.max_batch_size);
      ok = false;
    }
    if (!ok) return 1;
    std::fprintf(stderr, "[batch] check passed: exact and %.2fx >= 1.5x\n",
                 fetch_speedup);
  }
  return 0;
}
