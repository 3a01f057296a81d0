// Online-learning bench: cumulative DCM-utility regret over a long
// NON-STATIONARY session, frozen serving vs the closed loop.
//
// Setup: a RAPID model is trained on pre-drift clicks and snapshotted.
// Midway through the session the *hidden* user topic preferences drift
// (`data::ApplyPreferenceDrift` — observable features untouched), so the
// only way a serving stack can notice is through click feedback. Two arms
// replay the same request schedule through a real `net::Server`:
//
//   frozen — the pre-drift snapshot behind a deterministic slot; no
//            feedback, no trainer. After the drift it keeps serving
//            yesterday's preferences.
//   online — the same snapshot behind a UCB-explored slot
//            (`online::OnlinePolicy` via `SetSlotWrapper`), with every
//            served list fed back over kFeedback frames into a
//            `FeedbackLog` drained by an `OnlineTrainer` that fine-tunes
//            and republishes through the canary-guarded `LoadSlot` path.
//
// Per round the driver scores one list, measures regret = oracle true
// satisfaction minus served true satisfaction (both under the *current*,
// possibly drifted, ground-truth DCM; the oracle is the greedy-optimal
// ordering of the same candidates), and — online arm only — simulates
// DCM clicks on the served order and sends them back as feedback.
//
// Reported: cumulative regret per arm (total / pre-drift / post-drift),
// the post-drift recovery split (first vs second half after the drift),
// trainer publish counters, and the zero-drop check. `--check` fails
// unless the online arm's cumulative regret is strictly below the frozen
// arm's, the trainer published at least once, every publish that was
// accepted went through canary, and no reply was dropped.
//
// Output is one JSON object on stdout; progress goes to stderr. `--json`
// is accepted for run_ledger.sh uniformity (the output is always JSON).
//
//   ./build/bench/bench_online                   # full run
//   ./build/bench/bench_online --quick --check   # tier-2 perf gate

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bandit/linear_rapid.h"
#include "bench/bench_common.h"
#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "online/feedback.h"
#include "online/policy.h"
#include "online/trainer.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

constexpr int kListLen = 10;  // Items per served list.
constexpr int kTopK = 5;      // Satisfaction/regret prefix.

struct ArmResult {
  std::string name;
  double cum_regret = 0.0;
  double pre_drift_regret = 0.0;
  double post_drift_regret = 0.0;
  /// Post-drift split in two halves: adaptation shows as second < first.
  double post_early_regret = 0.0;
  double post_late_regret = 0.0;
  rapid::serve::OnlineStats online;
  uint64_t dropped_responses = 0;
  uint64_t feedback_frames = 0;
  uint64_t transport_failures = 0;
  uint64_t served_version = 0;
};

rapid::data::ImpressionList ListFor(const rapid::data::Request& request) {
  rapid::data::ImpressionList list;
  list.user_id = request.user_id;
  const int n = std::min<int>(kListLen, request.candidates.size());
  list.items.assign(request.candidates.begin(), request.candidates.begin() + n);
  for (int i = 0; i < n; ++i) {
    list.scores.push_back(1.0f - 0.05f * static_cast<float>(i));
  }
  return list;
}

/// One arm's full session. `env` is the arm-private environment copy that
/// drifts at `drift_round`; serving always sees the static `base` (the
/// drift is hidden, only clicks reveal it).
ArmResult RunArm(bool with_online_loop, const rapid::data::Dataset& base,
                 const std::string& snapshot_path, int rounds,
                 int drift_round, uint64_t seed) {
  using namespace rapid;

  ArmResult result;
  result.name = with_online_loop ? "online" : "frozen";

  data::Dataset env = base;  // Private copy: mutated by the drift.
  click::GroundTruthClickModel dcm(&env, click::DcmConfig{});

  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 1;
  router_cfg.cache.bypass_slots = {"served"};  // Exploration must not cache.
  serve::ServingRouter router(base, router_cfg);

  auto pulls = std::make_shared<online::PullCounts>();
  if (with_online_loop) {
    router.SetSlotWrapper(
        "served", [pulls](std::shared_ptr<const rerank::Reranker> model) {
          online::OnlinePolicyConfig cfg;
          cfg.exploration = 0.08;
          cfg.record_top_k = kTopK;
          return std::make_shared<const online::OnlinePolicy>(std::move(model),
                                                              pulls, cfg);
        });
  }
  if (router.LoadSlot("served", snapshot_path) == 0) {
    std::fprintf(stderr, "[online] FAIL: initial LoadSlot rejected\n");
    result.transport_failures = 1;
    return result;
  }

  online::FeedbackLog log;
  std::unique_ptr<online::OnlineTrainer> trainer;
  net::ServerConfig server_cfg;
  if (with_online_loop) {
    // The trainer's private model restarts from the same snapshot the
    // frozen arm serves; only feedback separates the two arms.
    auto model = serve::Snapshot::LoadAny(snapshot_path, base);
    if (!model) {
      std::fprintf(stderr, "[online] FAIL: snapshot reload for trainer\n");
      result.transport_failures = 1;
      return result;
    }
    online::OnlineTrainerConfig trainer_cfg;
    trainer_cfg.slot = "served";
    trainer_cfg.min_batch = 12;
    trainer_cfg.max_batch = 64;
    trainer_cfg.epochs_per_round = 4;
    trainer_cfg.publish_every_rounds = 1;
    trainer_cfg.poll_interval = std::chrono::milliseconds(5);
    trainer_cfg.snapshot_path = snapshot_path + ".republish";
    trainer_cfg.seed = seed;
    trainer = std::make_unique<online::OnlineTrainer>(
        base, &router, &log, std::move(model), trainer_cfg);
    server_cfg.feedback_log = &log;
    server_cfg.online_stats = [&t = *trainer] { return t.Stats(); };
  }

  net::Server server(router, server_cfg);
  if (!server.Start()) {
    std::fprintf(stderr, "[online] FAIL: server start\n");
    result.transport_failures = 1;
    return result;
  }
  if (trainer) trainer->Start();

  net::Client client;
  if (!client.Connect("127.0.0.1", server.port())) {
    std::fprintf(stderr, "[online] FAIL: client connect\n");
    result.transport_failures = 1;
    return result;
  }

  // Oracle satisfaction per (request, drift phase), computed lazily — the
  // greedy-optimal ordering of the same kListLen candidates the server
  // sees, scored under the current ground truth.
  std::unordered_map<int64_t, double> oracle_cache;

  const std::vector<data::Request>& pool = env.test_requests;
  std::mt19937_64 click_rng(seed * 7919 + 17);
  int phase = 0;

  auto oracle = [&](int request_idx, const data::ImpressionList& list) {
    const int64_t key = static_cast<int64_t>(request_idx) * 2 + phase;
    auto it = oracle_cache.find(key);
    if (it != oracle_cache.end()) return it->second;
    const std::vector<int> best = bandit::GreedyOracleList(
        env, dcm, list.user_id, list.items, kTopK);
    const double sat = dcm.TrueSatisfaction(list.user_id, best, kTopK);
    oracle_cache.emplace(key, sat);
    return sat;
  };

  for (int round = 0; round < rounds; ++round) {
    if (round == drift_round) {
      data::ApplyPreferenceDrift(&env, env.num_topics / 2, 1.0f);
      phase = 1;
    }
    const int request_idx = round % static_cast<int>(pool.size());
    const data::ImpressionList list = ListFor(pool[request_idx]);

    net::WireRequest request;
    request.slot = "served";
    request.list = list;
    net::Client::Reply reply;
    if (!client.Call(request, &reply, 10000) || reply.is_error) {
      ++result.transport_failures;
      continue;
    }
    const std::vector<int>& served = reply.response.items;
    result.served_version = reply.response.model_version;

    const double sat = dcm.TrueSatisfaction(list.user_id, served, kTopK);
    const double regret = oracle(request_idx, list) - sat;
    result.cum_regret += regret;
    if (phase == 0) {
      result.pre_drift_regret += regret;
    } else {
      result.post_drift_regret += regret;
      const int post_rounds = rounds - drift_round;
      if (round < drift_round + post_rounds / 2) {
        result.post_early_regret += regret;
      } else {
        result.post_late_regret += regret;
      }
    }

    if (with_online_loop) {
      const std::vector<int> clicks =
          dcm.SimulateClicks(list.user_id, served, click_rng);
      std::vector<uint8_t> labels;
      labels.reserve(clicks.size());
      for (int c : clicks) labels.push_back(c ? 1 : 0);
      bool accepted = false;
      if (!client.SendFeedback("served", reply.response.model_version,
                               list.user_id, served, labels, &accepted,
                               10000)) {
        ++result.transport_failures;
      }
    }
    // Pace the session so wall-clock elapses between rounds — a session
    // is traffic over time, not a tight loop — giving the background
    // trainer its concurrency. Both arms pay the identical pause.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  client.Close();
  server.Stop();
  if (trainer) {
    trainer->Stop();
    log.Close();
    result.online = trainer->Stats();
  }
  result.dropped_responses = server.stats().dropped_responses;
  result.feedback_frames = server.stats().feedback_frames;
  router.Shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const bool quick = args.quick, check = args.check;

  data::SimConfig sim;
  sim.kind = data::DatasetKind::kTaobao;
  sim.num_users = quick ? 40 : 60;
  sim.num_items = quick ? 200 : 300;
  sim.rerank_lists_per_user = 4;
  sim.test_lists_per_user = 3;
  sim.candidates_per_request = 30;
  const data::Dataset base = data::GenerateDataset(sim, 2023);

  // Pre-drift supervision: DCM clicks on the initial lists, the standard
  // training diet of the offline pipeline.
  click::GroundTruthClickModel dcm(&base, click::DcmConfig{});
  std::mt19937_64 rng(11);
  std::vector<data::ImpressionList> train;
  for (const data::Request& request : base.rerank_train_requests) {
    data::ImpressionList list = ListFor(request);
    list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
    train.push_back(std::move(list));
  }

  core::RapidConfig model_cfg;
  model_cfg.hidden_dim = 16;
  model_cfg.train.epochs = quick ? 2 : 4;
  auto model = std::make_unique<core::RapidReranker>(model_cfg);
  std::fprintf(stderr, "[online] fitting the pre-drift model (%zu lists)\n",
               train.size());
  model->Fit(base, train, 2023);

  const std::string snapshot_path = "/tmp/rapid_bench_online.rsnp";
  if (!serve::Snapshot::Save(snapshot_path, *model, base)) {
    std::fprintf(stderr, "[online] FAIL: snapshot save\n");
    return 1;
  }
  model.reset();

  const int rounds = quick ? 450 : 1200;
  const int drift_round = rounds / 4;

  std::fprintf(stderr,
               "[online] session: %d rounds, hidden preference drift at "
               "round %d\n",
               rounds, drift_round);
  const ArmResult frozen =
      RunArm(false, base, snapshot_path, rounds, drift_round, 5);
  std::fprintf(stderr,
               "[online] frozen: cum regret %.2f (pre %.2f, post %.2f)\n",
               frozen.cum_regret, frozen.pre_drift_regret,
               frozen.post_drift_regret);
  const ArmResult online =
      RunArm(true, base, snapshot_path, rounds, drift_round, 5);
  std::fprintf(stderr,
               "[online] online: cum regret %.2f (pre %.2f, post %.2f; "
               "post-drift halves %.2f -> %.2f)\n",
               online.cum_regret, online.pre_drift_regret,
               online.post_drift_regret, online.post_early_regret,
               online.post_late_regret);
  std::fprintf(stderr,
               "[online] trainer: %llu publishes (%llu rejected, %llu "
               "skipped), %llu rounds over %llu lists, served v%llu\n",
               static_cast<unsigned long long>(online.online.publishes),
               static_cast<unsigned long long>(online.online.publish_rejected),
               static_cast<unsigned long long>(online.online.publish_skipped),
               static_cast<unsigned long long>(online.online.train_rounds),
               static_cast<unsigned long long>(online.online.trained_lists),
               static_cast<unsigned long long>(online.served_version));

  bool failed = false;
  const uint64_t transport =
      frozen.transport_failures + online.transport_failures;
  const uint64_t dropped = frozen.dropped_responses + online.dropped_responses;
  if (transport != 0) {
    std::fprintf(stderr, "[online] FAIL: %llu transport failures\n",
                 static_cast<unsigned long long>(transport));
    failed = true;
  }
  if (dropped != 0) {
    std::fprintf(stderr, "[online] FAIL: %llu dropped replies\n",
                 static_cast<unsigned long long>(dropped));
    failed = true;
  }
  if (check) {
    if (online.cum_regret >= frozen.cum_regret) {
      std::fprintf(stderr,
                   "[online] FAIL: online regret %.2f not below frozen "
                   "%.2f\n",
                   online.cum_regret, frozen.cum_regret);
      failed = true;
    }
    if (online.online.publishes < 1) {
      std::fprintf(stderr, "[online] FAIL: trainer never published\n");
      failed = true;
    }
    if (online.online.publish_rejected != 0) {
      std::fprintf(stderr, "[online] FAIL: %llu canary-rejected publishes\n",
                   static_cast<unsigned long long>(
                       online.online.publish_rejected));
      failed = true;
    }
  }

  std::printf(
      "{\"bench\": \"online\", \"rounds\": %d, \"drift_round\": %d, "
      "\"list_len\": %d, \"top_k\": %d, "
      "\"frozen\": {\"cum_regret\": %.3f, \"pre_drift\": %.3f, "
      "\"post_drift\": %.3f}, "
      "\"online\": {\"cum_regret\": %.3f, \"pre_drift\": %.3f, "
      "\"post_drift\": %.3f, \"post_drift_early\": %.3f, "
      "\"post_drift_late\": %.3f, \"publishes\": %llu, "
      "\"publish_rejected\": %llu, \"train_rounds\": %llu, "
      "\"trained_lists\": %llu, \"served_version\": %llu, "
      "\"feedback_frames\": %llu}, "
      "\"regret_reduction\": %.3f, \"dropped_responses\": %llu}\n",
      rounds, drift_round, kListLen, kTopK, frozen.cum_regret,
      frozen.pre_drift_regret, frozen.post_drift_regret, online.cum_regret,
      online.pre_drift_regret, online.post_drift_regret,
      online.post_early_regret, online.post_late_regret,
      static_cast<unsigned long long>(online.online.publishes),
      static_cast<unsigned long long>(online.online.publish_rejected),
      static_cast<unsigned long long>(online.online.train_rounds),
      static_cast<unsigned long long>(online.online.trained_lists),
      static_cast<unsigned long long>(online.served_version),
      static_cast<unsigned long long>(online.feedback_frames),
      frozen.cum_regret - online.cum_regret,
      static_cast<unsigned long long>(dropped));

  return failed ? 1 : 0;
}
