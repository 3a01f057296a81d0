#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

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

namespace rapid {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FeedbackLog

online::FeedbackEvent Event(int user, int first_item = 0) {
  online::FeedbackEvent event;
  event.slot = "online";
  event.model_version = 1;
  event.list.user_id = user;
  for (int i = 0; i < 5; ++i) {
    event.list.items.push_back(first_item + i);
    event.list.clicks.push_back(i % 2);
  }
  return event;
}

TEST(FeedbackLogTest, AppendDrainIsFifoAndCounted) {
  online::FeedbackLog log;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(log.Append(Event(i)));
  EXPECT_EQ(log.size(), 5u);

  std::vector<online::FeedbackEvent> batch;
  EXPECT_EQ(log.Drain(3, &batch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].list.user_id, 0);
  EXPECT_EQ(batch[2].list.user_id, 2);
  EXPECT_EQ(log.Drain(10, &batch), 2u);  // Appends to `batch`.
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[4].list.user_id, 4);
  EXPECT_EQ(log.size(), 0u);

  serve::OnlineStats stats;
  log.FillStats(&stats);
  EXPECT_EQ(stats.feedback_appended, 5u);
  EXPECT_EQ(stats.feedback_dropped, 0u);
  EXPECT_EQ(stats.feedback_drained, 5u);
}

TEST(FeedbackLogTest, FullLogDropsInsteadOfBlocking) {
  online::FeedbackLogConfig cfg;
  cfg.capacity = 2;
  online::FeedbackLog log(cfg);
  EXPECT_TRUE(log.Append(Event(1)));
  EXPECT_TRUE(log.Append(Event(2)));
  EXPECT_FALSE(log.Append(Event(3)));  // Shed, not blocked.
  EXPECT_EQ(log.size(), 2u);

  serve::OnlineStats stats;
  log.FillStats(&stats);
  EXPECT_EQ(stats.feedback_appended, 2u);
  EXPECT_EQ(stats.feedback_dropped, 1u);
}

TEST(FeedbackLogTest, WaitDrainTimesOutEmptyAndWakesOnAppend) {
  online::FeedbackLog log;
  std::vector<online::FeedbackEvent> batch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(log.WaitDrain(4, 30ms, &batch), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);

  std::thread appender([&log] {
    std::this_thread::sleep_for(20ms);
    log.Append(Event(7));
  });
  EXPECT_EQ(log.WaitDrain(4, 5s, &batch), 1u);  // Woken, not timed out.
  appender.join();
  EXPECT_EQ(batch[0].list.user_id, 7);
}

TEST(FeedbackLogTest, CloseWakesDrainersAndKeepsBufferedEventsDrainable) {
  online::FeedbackLog log;
  log.Append(Event(1));
  std::thread closer([&log] {
    std::this_thread::sleep_for(20ms);
    log.Close();
  });
  std::vector<online::FeedbackEvent> batch;
  // First WaitDrain returns the buffered event immediately; the second
  // returns 0 once the close lands instead of waiting out 5 seconds.
  EXPECT_EQ(log.WaitDrain(1, 5s, &batch), 1u);
  EXPECT_EQ(log.WaitDrain(1, 5s, &batch), 0u);
  closer.join();
  EXPECT_TRUE(log.closed());
  EXPECT_FALSE(log.Append(Event(2)));  // Post-close appends drop.
  log.Close();                         // Idempotent.
}

// ---------------------------------------------------------------------------
// PullCounts + OnlinePolicy

TEST(PullCountsTest, RecordsTopKPrefixPerUser) {
  online::PullCounts pulls;
  pulls.Record(1, {10, 11, 12, 13}, /*top_k=*/2);
  pulls.Record(1, {10, 13, 12, 11}, /*top_k=*/2);
  pulls.Record(2, {10, 11}, /*top_k=*/0);  // <= 0 records everything.
  EXPECT_EQ(pulls.Count(1, 10), 2u);
  EXPECT_EQ(pulls.Count(1, 11), 1u);
  EXPECT_EQ(pulls.Count(1, 13), 1u);
  EXPECT_EQ(pulls.Count(1, 12), 0u);  // Below the recorded prefix.
  EXPECT_EQ(pulls.UserTotal(1), 4u);
  EXPECT_EQ(pulls.UserTotal(2), 2u);
  EXPECT_EQ(pulls.Count(2, 10), 1u);
  EXPECT_EQ(pulls.UserTotal(3), 0u);
}

/// Identity heuristic base: keeps the submitted order, so position-derived
/// base scores are deterministic in tests.
class IdentityReranker : public rerank::Reranker {
 public:
  std::string name() const override { return "identity"; }
  std::vector<int> Rerank(const data::Dataset&,
                          const data::ImpressionList& list) const override {
    return list.items;
  }
};

data::ImpressionList ListOf(std::vector<int> items, int user = 1) {
  data::ImpressionList list;
  list.user_id = user;
  list.items = std::move(items);
  for (size_t i = 0; i < list.items.size(); ++i) {
    list.scores.push_back(1.0f - 0.01f * static_cast<float>(i));
  }
  return list;
}

TEST(OnlinePolicyTest, ZeroExplorationReproducesTheBaseRanking) {
  auto pulls = std::make_shared<online::PullCounts>();
  online::OnlinePolicyConfig cfg;
  cfg.exploration = 0.0;
  online::OnlinePolicy policy(std::make_shared<IdentityReranker>(), pulls,
                              cfg);
  const data::ImpressionList list = ListOf({5, 9, 2, 7});
  EXPECT_EQ(policy.Rerank({}, list), list.items);
  EXPECT_EQ(policy.name(), "UCB(identity)");
}

TEST(OnlinePolicyTest, ColdItemsGetBoostedUntilPulled) {
  auto pulls = std::make_shared<online::PullCounts>();
  // User 1 has seen items 10..13 fifty times each; item 99 never.
  for (int i = 0; i < 50; ++i) pulls->Record(1, {10, 11, 12, 13}, 0);
  online::OnlinePolicyConfig cfg;
  cfg.exploration = 5.0;
  cfg.record_top_k = 1;
  online::OnlinePolicy policy(std::make_shared<IdentityReranker>(), pulls,
                              cfg);
  // 99 sits last (worst base score) but its optimism bonus dominates.
  const data::ImpressionList list = ListOf({10, 11, 12, 13, 99});
  const std::vector<int> out = policy.Rerank({}, list);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], 99);
  // The serve recorded the top-1 pull, eroding 99's future bonus.
  EXPECT_EQ(pulls->Count(1, 99), 1u);
}

TEST(OnlinePolicyTest, OutputIsAlwaysAPermutation) {
  auto pulls = std::make_shared<online::PullCounts>();
  online::OnlinePolicy policy(std::make_shared<IdentityReranker>(), pulls,
                              online::OnlinePolicyConfig{});
  data::ImpressionList list = ListOf({4, 8, 15, 16, 23, 42});
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out = policy.Rerank({}, list);
    std::vector<int> sorted_out = out;
    std::vector<int> sorted_in = list.items;
    std::sort(sorted_out.begin(), sorted_out.end());
    std::sort(sorted_in.begin(), sorted_in.end());
    EXPECT_EQ(sorted_out, sorted_in) << "round " << round;
  }
  EXPECT_EQ(policy.Rerank({}, data::ImpressionList{}), std::vector<int>{});
}

// ---------------------------------------------------------------------------
// Router wrapper hook + trainer loop (shared fixture with a real model)

class OnlineLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 15;
    cfg.num_items = 100;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 77);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(3);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }
  }

  static core::RapidConfig SmallConfig() {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = 8;
    return cfg;
  }

  std::unique_ptr<core::RapidReranker> FittedModel(uint64_t seed = 6) {
    auto model = std::make_unique<core::RapidReranker>(SmallConfig());
    model->Fit(data_, train_, seed);
    return model;
  }

  std::string SnapshotOf(const core::RapidReranker& model,
                         const std::string& file) {
    // One file per process: ctest runs the fixture's tests in parallel.
    const std::string path = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) + "_" + file;
    EXPECT_TRUE(serve::Snapshot::Save(path, model, data_));
    return path;
  }

  /// Polls `predicate` until it holds or ~5s elapse.
  template <typename Predicate>
  static bool Eventually(Predicate predicate) {
    for (int i = 0; i < 500; ++i) {
      if (predicate()) return true;
      std::this_thread::sleep_for(10ms);
    }
    return predicate();
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

TEST_F(OnlineLoopTest, SlotWrapperAppliesOnPublishAndClears) {
  const std::string path = SnapshotOf(*FittedModel(), "wrap.rsnp");
  serve::ServingRouter router(data_, {});
  auto pulls = std::make_shared<online::PullCounts>();
  router.SetSlotWrapper(
      "online", [pulls](std::shared_ptr<const rerank::Reranker> model) {
        online::OnlinePolicyConfig cfg;
        cfg.exploration = 0.0;  // Deterministic for the assertion below.
        return std::make_shared<const online::OnlinePolicy>(std::move(model),
                                                            pulls, cfg);
      });
  ASSERT_EQ(router.LoadSlot("online", path), 1u);

  serve::RouterStats stats = router.stats();
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].model_name.rfind("UCB(", 0), 0u)
      << stats.slots[0].model_name;

  // Other slots are untouched: deterministic serving stays the default.
  ASSERT_EQ(router.LoadSlot("plain", path), 1u);
  stats = router.stats();
  for (const auto& slot : stats.slots) {
    if (slot.slot == "plain") {
      EXPECT_EQ(slot.model_name.rfind("UCB(", 0), std::string::npos);
    }
  }

  // Clearing the wrapper takes effect on the next publish of that slot.
  EXPECT_TRUE(router.ClearSlotWrapper("online"));
  EXPECT_FALSE(router.ClearSlotWrapper("online"));  // Already gone.
  ASSERT_EQ(router.LoadSlot("online", path), 2u);
  stats = router.stats();
  for (const auto& slot : stats.slots) {
    if (slot.slot == "online") {
      EXPECT_EQ(slot.model_name.rfind("UCB(", 0), std::string::npos);
    }
  }
}

TEST_F(OnlineLoopTest, WrappedSlotStillServesPermutations) {
  const std::string path = SnapshotOf(*FittedModel(), "wrap_serve.rsnp");
  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  serve::ServingRouter router(data_, cfg);
  auto pulls = std::make_shared<online::PullCounts>();
  router.SetSlotWrapper(
      "online", [pulls](std::shared_ptr<const rerank::Reranker> model) {
        return std::make_shared<const online::OnlinePolicy>(
            std::move(model), pulls, online::OnlinePolicyConfig{});
      });
  ASSERT_EQ(router.LoadSlot("online", path), 1u);

  serve::RouterRequest request;
  request.slot = "online";
  request.list = train_[0];
  serve::RouterResponse response = router.Submit(std::move(request)).get();
  EXPECT_FALSE(response.degraded);
  std::vector<int> sorted_out = response.items;
  std::vector<int> sorted_in = train_[0].items;
  std::sort(sorted_out.begin(), sorted_out.end());
  std::sort(sorted_in.begin(), sorted_in.end());
  EXPECT_EQ(sorted_out, sorted_in);
  // The wrapped policy recorded the serve as pulls.
  EXPECT_GT(pulls->UserTotal(train_[0].user_id), 0u);
}

TEST_F(OnlineLoopTest, TrainerPublishesThroughCanaryGuardedLoadSlot) {
  auto serving = FittedModel(6);
  const std::string initial = SnapshotOf(*serving, "trainer_initial.rsnp");
  serve::ServingRouter router(data_, {});
  ASSERT_EQ(router.LoadSlot("online", initial), 1u);

  online::FeedbackLog log;
  online::OnlineTrainerConfig cfg;
  cfg.slot = "online";
  cfg.min_batch = 2;
  cfg.max_batch = 8;
  cfg.publish_every_rounds = 1;
  cfg.poll_interval = 10ms;
  cfg.snapshot_path = ::testing::TempDir() + "/trainer_publish.rsnp";
  online::OnlineTrainer trainer(data_, &router, &log, FittedModel(7), cfg);
  trainer.Start();

  for (int i = 0; i < 4; ++i) {
    online::FeedbackEvent event;
    event.slot = "online";
    event.model_version = 1;
    event.list = train_[i % train_.size()];
    ASSERT_TRUE(log.Append(std::move(event)));
  }

  ASSERT_TRUE(Eventually([&] { return trainer.Stats().publishes >= 1; }));
  trainer.Stop();

  const serve::OnlineStats stats = trainer.Stats();
  EXPECT_GE(stats.train_rounds, 1u);
  EXPECT_GE(stats.trained_lists, 4u);
  EXPECT_GE(stats.feedback_drained, 4u);
  EXPECT_EQ(stats.publish_rejected, 0u);
  EXPECT_GE(stats.last_published_version, 2u);

  // The publish really went through the router's slot, bumping its
  // version past the initial load.
  serve::RouterStats router_stats;
  trainer.FillStats(&router_stats);
  EXPECT_TRUE(router_stats.has_online);
  const serve::RouterStats live = router.stats();
  ASSERT_EQ(live.slots.size(), 1u);
  EXPECT_EQ(live.slots[0].version, stats.last_published_version);
}

TEST_F(OnlineLoopTest, TrainerWithNoFeedbackSkipsItsShutdownPublish) {
  serve::ServingRouter router(data_, {});
  online::FeedbackLog log;
  online::OnlineTrainerConfig cfg;
  cfg.snapshot_path = ::testing::TempDir() + "/trainer_skip.rsnp";
  cfg.poll_interval = 5ms;
  online::OnlineTrainer trainer(data_, &router, &log, FittedModel(8), cfg);
  trainer.Start();
  std::this_thread::sleep_for(30ms);
  trainer.Stop();

  const serve::OnlineStats stats = trainer.Stats();
  EXPECT_EQ(stats.train_rounds, 0u);
  EXPECT_EQ(stats.publishes, 0u);
  // The shutdown flush attempted a publish with nothing new: skipped.
  EXPECT_GE(stats.publish_skipped, 1u);
  EXPECT_EQ(router.stats().slots.size(), 0u);  // Never touched the router.
}

// ---------------------------------------------------------------------------
// Feedback over the wire

net::WireRequest ScoreRequest(const std::string& slot,
                              const data::ImpressionList& list) {
  net::WireRequest request;
  request.slot = slot;
  request.list = list;
  return request;
}

TEST_F(OnlineLoopTest, FeedbackFramesLandInTheLogAndAreAcked) {
  serve::ServingRouter router(data_, {});
  online::FeedbackLog log;
  net::ServerConfig cfg;
  cfg.feedback_log = &log;
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  bool accepted = false;
  ASSERT_TRUE(client.SendFeedback("online", 3, 42, {9, 7, 5}, {1, 0, 1},
                                  &accepted, 2000));
  EXPECT_TRUE(accepted);
  EXPECT_EQ(server.stats().feedback_frames, 1u);

  std::vector<online::FeedbackEvent> batch;
  ASSERT_EQ(log.Drain(10, &batch), 1u);
  EXPECT_EQ(batch[0].slot, "online");
  EXPECT_EQ(batch[0].model_version, 3u);
  EXPECT_EQ(batch[0].list.user_id, 42);
  EXPECT_EQ(batch[0].list.items, (std::vector<int>{9, 7, 5}));
  EXPECT_EQ(batch[0].list.clicks, (std::vector<int>{1, 0, 1}));
  server.Stop();
}

TEST_F(OnlineLoopTest, FeedbackIsRefusedWhenDisabledAndShedWhenFull) {
  serve::ServingRouter router(data_, {});
  // Disabled: no log configured — answered, not accepted.
  {
    net::Server server(router);
    ASSERT_TRUE(server.Start());
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    bool accepted = true;
    ASSERT_TRUE(client.SendFeedback("online", 1, 1, {1}, {0}, &accepted,
                                    2000));
    EXPECT_FALSE(accepted);
    server.Stop();
  }
  // Full: the bounded log sheds and the ack reports it.
  {
    online::FeedbackLogConfig log_cfg;
    log_cfg.capacity = 1;
    online::FeedbackLog log(log_cfg);
    net::ServerConfig cfg;
    cfg.feedback_log = &log;
    net::Server server(router, cfg);
    ASSERT_TRUE(server.Start());
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    bool first = false, second = true;
    ASSERT_TRUE(client.SendFeedback("online", 1, 1, {1}, {0}, &first, 2000));
    ASSERT_TRUE(client.SendFeedback("online", 1, 1, {2}, {1}, &second, 2000));
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
    serve::OnlineStats stats;
    log.FillStats(&stats);
    EXPECT_EQ(stats.feedback_appended, 1u);
    EXPECT_EQ(stats.feedback_dropped, 1u);
    server.Stop();
  }
}

TEST_F(OnlineLoopTest, StatsScrapesCarryTheOnlineBlockAndPrometheusText) {
  serve::ServingRouter router(data_, {});
  online::FeedbackLog log;
  net::ServerConfig cfg;
  cfg.feedback_log = &log;
  cfg.online_stats = [&log] {
    serve::OnlineStats stats;
    log.FillStats(&stats);
    stats.train_rounds = 7;  // Stand-in for a live trainer's counters.
    return stats;
  };
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  bool accepted = false;
  ASSERT_TRUE(client.SendFeedback("online", 1, 5, {3, 4}, {1, 0}, &accepted,
                                  2000));

  serve::RouterStats stats;
  ASSERT_TRUE(client.GetStats(&stats, 2000));
  ASSERT_TRUE(stats.has_online);
  EXPECT_EQ(stats.online.feedback_appended, 1u);
  EXPECT_EQ(stats.online.train_rounds, 7u);
  EXPECT_EQ(stats.net.feedback_frames, 1u);

  std::string text;
  ASSERT_TRUE(client.GetStatsPrometheus(&text, 2000));
  EXPECT_NE(text.find("rapid_online_feedback_appended_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rapid_online_train_rounds_total 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("rapid_net_feedback_frames_total 1\n"),
            std::string::npos);

  std::string json;
  ASSERT_TRUE(client.GetStatsJson(&json, 2000));
  EXPECT_NE(json.find("\"online\""), std::string::npos);
  server.Stop();
}

// The full loop under concurrency — serve + feedback + train + publish all
// at once. Run under -DRAPID_SANITIZE=thread this is the PR's TSan gate;
// the zero-drop assertion holds in any build.
TEST_F(OnlineLoopTest, ConcurrentServeTrainPublishDropsNothing) {
  auto serving = FittedModel(6);
  const std::string initial = SnapshotOf(*serving, "loop_initial.rsnp");
  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 2;
  router_cfg.cache.bypass_slots = {"online"};  // Exploration must not cache.
  serve::ServingRouter router(data_, router_cfg);
  auto pulls = std::make_shared<online::PullCounts>();
  router.SetSlotWrapper(
      "online", [pulls](std::shared_ptr<const rerank::Reranker> model) {
        return std::make_shared<const online::OnlinePolicy>(
            std::move(model), pulls, online::OnlinePolicyConfig{});
      });
  ASSERT_EQ(router.LoadSlot("online", initial), 1u);

  online::FeedbackLog log;
  online::OnlineTrainerConfig trainer_cfg;
  trainer_cfg.slot = "online";
  trainer_cfg.min_batch = 2;
  trainer_cfg.max_batch = 8;
  trainer_cfg.poll_interval = 10ms;
  trainer_cfg.snapshot_path = ::testing::TempDir() + "/loop_publish.rsnp";
  online::OnlineTrainer trainer(data_, &router, &log, FittedModel(7),
                                trainer_cfg);

  net::ServerConfig server_cfg;
  server_cfg.feedback_log = &log;
  server_cfg.online_stats = [&trainer] { return trainer.Stats(); };
  net::Server server(router, server_cfg);
  ASSERT_TRUE(server.Start());
  trainer.Start();

  const uint16_t port = server.port();
  std::atomic<int> transport_failures{0};
  const auto driver = [&](int thread_id) {
    net::Client client;
    if (!client.Connect("127.0.0.1", port)) {
      transport_failures.fetch_add(1);
      return;
    }
    std::mt19937_64 rng(100 + thread_id);
    for (int i = 0; i < 25; ++i) {
      const data::ImpressionList& list = train_[(i + thread_id) %
                                                train_.size()];
      net::Client::Reply reply;
      if (!client.Call(ScoreRequest("online", list), &reply, 5000) ||
          reply.is_error) {
        transport_failures.fetch_add(1);
        return;
      }
      // Feed the served order back with fresh simulated clicks.
      std::vector<uint8_t> clicks;
      for (size_t k = 0; k < reply.response.items.size(); ++k) {
        clicks.push_back(static_cast<uint8_t>(rng() & 1));
      }
      bool accepted = false;
      if (!client.SendFeedback("online", reply.response.model_version,
                               list.user_id, reply.response.items, clicks,
                               &accepted, 5000)) {
        transport_failures.fetch_add(1);
        return;
      }
    }
  };
  std::thread a(driver, 0), b(driver, 1);
  a.join();
  b.join();
  EXPECT_EQ(transport_failures.load(), 0);

  // The trainer saw enough feedback to retrain and republish at least once.
  EXPECT_TRUE(Eventually([&] { return trainer.Stats().publishes >= 1; }));

  server.Stop();
  trainer.Stop();
  log.Close();

  const serve::NetStats net_stats = server.stats();
  EXPECT_EQ(net_stats.dropped_responses, 0u);  // Zero-drop under churn.
  EXPECT_EQ(net_stats.feedback_frames, 50u);
  const serve::OnlineStats online_stats = trainer.Stats();
  EXPECT_GE(online_stats.publishes, 1u);
  EXPECT_EQ(online_stats.publish_rejected, 0u);
  const serve::RouterStats router_stats = router.stats();
  ASSERT_EQ(router_stats.slots.size(), 1u);
  EXPECT_GE(router_stats.slots[0].version, 2u);
  EXPECT_EQ(router_stats.slots[0].model_name.rfind("UCB(", 0), 0u);
}

}  // namespace
}  // namespace rapid
