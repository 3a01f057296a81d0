// Serving quickstart: the offline -> online hand-off in one file.
//
// 1. Train RAPID on a small synthetic environment (offline).
// 2. Persist it as a self-describing snapshot (config header + weights).
// 3. Rehydrate the snapshot as a serving process would — no training code,
//    no knowledge of the training-time configuration.
// 4. Stand up a one-slot ServingRouter (worker pool + micro-batching +
//    deadline fallback), LoadSlot the snapshot into it, and answer
//    concurrent re-ranking requests.
//
// Build & run:  ./build/examples/serve_quickstart

#include <cstdio>
#include <future>
#include <vector>

#include "core/rapid.h"
#include "eval/pipeline.h"
#include "rankers/din.h"
#include "serve/router.h"
#include "serve/snapshot.h"

int main() {
  using namespace rapid;

  // ---- Offline: train ---------------------------------------------------
  eval::PipelineConfig config;
  config.sim.kind = data::DatasetKind::kTaobao;
  config.sim.num_users = 60;
  config.sim.num_items = 400;
  config.dcm.lambda = 0.9f;
  config.seed = 42;

  std::printf("Building environment and training RAPID...\n");
  rank::DinConfig din_config;
  din_config.epochs = 1;
  eval::Environment env(config, std::make_unique<rank::DinRanker>(din_config));
  core::RapidConfig rapid_config;
  rapid_config.train.epochs = 4;
  core::RapidReranker trained(rapid_config);
  trained.Fit(env.dataset(), env.train_lists(), /*seed=*/7);

  // ---- Snapshot: save, then load as a fresh process would ---------------
  const std::string path = "/tmp/rapid_serve_quickstart.rsnp";
  if (!serve::Snapshot::Save(path, trained, env.dataset())) {
    std::printf("snapshot save failed\n");
    return 1;
  }
  core::RapidConfig on_disk;
  serve::Snapshot::ReadConfig(path, &on_disk);
  std::printf("Snapshot written to %s (model %s, hidden_dim=%d)\n", path.c_str(),
              trained.name().c_str(), on_disk.hidden_dim);

  const auto model = serve::Snapshot::Load(path, env.dataset());
  if (model == nullptr) {
    std::printf("snapshot load failed\n");
    return 1;
  }

  // ---- Online: serve ----------------------------------------------------
  serve::RouterConfig serving;
  serving.num_threads = 4;
  serving.max_batch = 8;
  serving.max_wait_us = 200;
  serving.deadline_us = 50'000;  // 50ms, then fall back to the initial order.
  serve::ServingRouter router(env.dataset(), serving);
  if (router.LoadSlot("main", path) == 0) {
    std::printf("LoadSlot failed\n");
    return 1;
  }

  std::printf("Submitting %zu concurrent requests on %d workers...\n",
              env.test_lists().size(), serving.num_threads);
  std::vector<std::future<serve::RouterResponse>> futures;
  for (const data::ImpressionList& list : env.test_lists()) {
    futures.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
  }

  // First response in detail: the router's answer must equal a direct call.
  serve::RouterResponse first = futures.front().get();
  const data::ImpressionList& request = env.test_lists().front();
  const bool identical = first.items == model->Rerank(env.dataset(), request);
  std::printf("First response: %zu items in %lldus, degraded=%d, "
              "identical to direct Rerank: %s\n",
              first.items.size(), static_cast<long long>(first.latency_us),
              first.degraded ? 1 : 0, identical ? "yes" : "NO");
  for (auto& f : futures) {
    if (f.valid()) f.wait();
  }
  router.Shutdown();

  std::printf("\nServing metrics:\n%s", router.stats().ToTable().c_str());
  return identical ? 0 : 1;
}
