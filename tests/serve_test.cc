#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "rerank/neural_models.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rapid {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 20;
    cfg.num_items = 120;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 101);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(2);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }
  }

  core::RapidReranker FittedModel(core::RapidConfig cfg = SmallConfig()) {
    core::RapidReranker model(cfg);
    model.Fit(data_, train_, 6);
    return model;
  }

  static core::RapidConfig SmallConfig() {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = 8;
    return cfg;
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

TEST_F(ServeTest, SnapshotRoundTripIsBitExact) {
  const core::RapidReranker trained = FittedModel();
  const std::string path = ::testing::TempDir() + "/rapid.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));

  const auto restored = serve::Snapshot::Load(path, data_);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), trained.name());
  for (const data::ImpressionList& list : train_) {
    const std::vector<float> a = trained.ScoreList(data_, list);
    const std::vector<float> b = restored->ScoreList(data_, list);
    ASSERT_EQ(a.size(), b.size());
    // Bit-for-bit: the snapshot stores raw float words, so inference from
    // the restored model must be exactly reproducible, not just close.
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
    EXPECT_EQ(trained.Rerank(data_, list), restored->Rerank(data_, list));
  }
}

TEST_F(ServeTest, SnapshotHeaderCarriesConfig) {
  core::RapidConfig cfg = SmallConfig();
  cfg.head = core::OutputHead::kDeterministic;
  cfg.diversity_aggregator = core::DiversityAggregator::kMean;
  cfg.diversity_function = core::DiversityFunctionKind::kSaturatingLinear;
  const core::RapidReranker trained = FittedModel(cfg);
  const std::string path = ::testing::TempDir() + "/rapid_det.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));

  core::RapidConfig loaded;
  ASSERT_TRUE(serve::Snapshot::ReadConfig(path, &loaded));
  EXPECT_EQ(loaded.hidden_dim, cfg.hidden_dim);
  EXPECT_EQ(loaded.head, cfg.head);
  EXPECT_EQ(loaded.diversity_aggregator, cfg.diversity_aggregator);
  EXPECT_EQ(loaded.diversity_function, cfg.diversity_function);
  // Load reconstructs the right variant without being told the config.
  const auto restored = serve::Snapshot::Load(path, data_);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), "RAPID-mean");
}

TEST_F(ServeTest, SnapshotRejectsMismatchedDatasetAndGarbage) {
  const core::RapidReranker trained = FittedModel();
  const std::string path = ::testing::TempDir() + "/rapid_dims.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));

  data::SimConfig other_cfg;
  other_cfg.kind = data::DatasetKind::kMovieLens;  // 20 topics, not 5.
  other_cfg.num_users = 10;
  other_cfg.num_items = 80;
  const data::Dataset other = data::GenerateDataset(other_cfg, 5);
  EXPECT_EQ(serve::Snapshot::Load(path, other), nullptr);

  EXPECT_EQ(serve::Snapshot::Load("/nonexistent/m.rsnp", data_), nullptr);
  const std::string garbage = ::testing::TempDir() + "/garbage.rsnp";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a snapshot";
  }
  EXPECT_EQ(serve::Snapshot::Load(garbage, data_), nullptr);
  core::RapidConfig ignored;
  EXPECT_FALSE(serve::Snapshot::ReadConfig(garbage, &ignored));
}

TEST_F(ServeTest, SubmitAfterShutdownServesInline) {
  const auto model = std::make_shared<core::RapidReranker>(FittedModel());
  serve::ServingRouter router(data_, {});
  router.InstallSlot("main", model);
  router.Shutdown();
  auto future = router.Submit({"main", serve::Lane::kHigh, train_[0]});
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::RouterResponse response = future.get();
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.items, model->Rerank(data_, train_[0]));
}

// A re-ranker with a fixed per-request cost, used to hold a one-slot
// router's queue full long enough to exercise the shed and the
// deadline-capped blocking submit paths.
class StallInitReranker : public rerank::Reranker {
 public:
  explicit StallInitReranker(int stall_us) : stall_us_(stall_us) {}
  std::string name() const override { return "StallInit"; }
  std::vector<int> Rerank(const data::Dataset& /*data*/,
                          const data::ImpressionList& list) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    return list.items;
  }

 private:
  const int stall_us_;
};

// Under kShed with both watermarks at the queue capacity, a full queue
// rejects the submit at once: the future is already resolved by the
// fallback, and the producer never waits on the model.
TEST_F(ServeTest, TrySubmitRejectsWhenFullWithoutBlocking) {
  constexpr int kStallUs = 50'000;
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 1;
  cfg.admission.policy = serve::AdmissionPolicy::kShed;
  serve::ServingRouter router(data_, cfg);
  router.InstallSlot("main", std::make_shared<StallInitReranker>(kStallUs));

  // Saturate: one request occupies the worker, the next fills the queue.
  std::vector<std::future<serve::RouterResponse>> accepted;
  uint64_t rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 64 && rejected == 0; ++i) {
    auto future = router.Submit({"main", serve::Lane::kHigh, train_[0]});
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      accepted.push_back(std::move(future));
      continue;
    }
    const serve::RouterResponse response = future.get();
    EXPECT_TRUE(response.shed);
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.items, train_[0].items);
    ++rejected;
  }
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(rejected, 1u);
  // A blocking submit would wait for the worker to finish a model pass.
  EXPECT_LT(submit_ms, kStallUs / 1000.0);
  for (auto& f : accepted) {
    const serve::RouterResponse response = f.get();
    EXPECT_FALSE(response.shed);
    EXPECT_EQ(response.items, train_[0].items);
  }
  router.Shutdown();
  EXPECT_EQ(router.stats().total.shed, rejected);

  // After shutdown the submit serves inline instead of rejecting.
  auto inline_future = router.Submit({"main", serve::Lane::kHigh, train_[1]});
  ASSERT_EQ(inline_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::RouterResponse inline_response = inline_future.get();
  EXPECT_FALSE(inline_response.shed);
  EXPECT_EQ(inline_response.items, train_[1].items);
}

TEST_F(ServeTest, SubmitBlocksAtMostTheRequestDeadline) {
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 1;
  cfg.deadline_us = 10'000;
  serve::ServingRouter router(data_, cfg);
  router.InstallSlot("main", std::make_shared<StallInitReranker>(30'000));

  std::vector<std::future<serve::RouterResponse>> futures;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    futures.push_back(router.Submit({"main", serve::Lane::kHigh, train_[0]}));
  }
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  uint64_t degraded = 0;
  for (auto& f : futures) {
    const serve::RouterResponse response = f.get();
    if (response.degraded) {
      ++degraded;
      EXPECT_EQ(response.items, train_[0].items);
    }
  }
  router.Shutdown();

  // Uncapped, each blocked Submit would wait a full 30ms model pass (~90ms
  // for the burst); capped, every Submit returns within its 10ms deadline.
  EXPECT_LT(submit_ms, 100.0);
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(router.stats().total.fallbacks, degraded);
}

TEST(RequestQueueTest, PopBatchCollectsUpToMaxAndDrainsOnClose) {
  serve::BoundedRequestQueue<int> queue(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(std::move(i)));
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(3, std::chrono::microseconds(0), &batch), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  queue.Close();
  EXPECT_EQ(queue.PopBatch(8, std::chrono::microseconds(0), &batch), 2u);
  EXPECT_EQ(batch.size(), 5u);
  // Closed and drained: returns 0 instead of blocking; Push refuses.
  EXPECT_EQ(queue.PopBatch(8, std::chrono::microseconds(0), &batch), 0u);
  int rejected = 7;
  EXPECT_FALSE(queue.Push(std::move(rejected)));
}

TEST(RequestQueueTest, CapacityOneAlternatesAndReportsFull) {
  using Queue = serve::BoundedRequestQueue<int>;
  Queue queue(1);
  EXPECT_EQ(queue.TryPush(1), Queue::PushResult::kOk);
  EXPECT_EQ(queue.TryPush(2), Queue::PushResult::kFull);
  EXPECT_EQ(queue.PushUntil(2, std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(1)),
            Queue::PushResult::kFull);

  // A blocked producer is released as soon as the consumer pops.
  std::thread producer([&queue] { EXPECT_TRUE(queue.Push(2)); });
  std::vector<int> batch;
  EXPECT_EQ(queue.PopBatch(1, std::chrono::microseconds(0), &batch), 1u);
  producer.join();
  EXPECT_EQ(queue.PopBatch(1, std::chrono::microseconds(0), &batch), 1u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));

  queue.Close();
  EXPECT_EQ(queue.TryPush(3), Queue::PushResult::kClosed);
}

TEST(RequestQueueTest, CloseReleasesBlockedProducersWithItemsIntact) {
  using Queue = serve::BoundedRequestQueue<std::unique_ptr<int>>;
  Queue queue(1);
  ASSERT_EQ(queue.TryPush(std::make_unique<int>(0)), Queue::PushResult::kOk);

  constexpr int kProducers = 3;
  std::atomic<int> refused{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&queue, &refused, i] {
      auto item = std::make_unique<int>(i + 1);
      if (!queue.Push(std::move(item))) {
        // Push refused without consuming: the caller can still serve it.
        ASSERT_NE(item, nullptr);
        ++refused;
      }
    });
  }
  // Let the producers reach the full-queue wait, then close underneath
  // them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(refused.load(), kProducers);

  // The pre-close item is still drainable.
  std::vector<std::unique_ptr<int>> batch;
  EXPECT_EQ(queue.PopBatch(4, std::chrono::microseconds(0), &batch), 1u);
  EXPECT_EQ(*batch[0], 0);
}

TEST(RequestQueueTest, PriorityDrainIsStarvationFree) {
  // Two lanes, yield to the starved lane after 2 consecutive bypasses.
  serve::BoundedRequestQueue<int> queue(32, /*bursts_per_yield=*/2);
  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(queue.Push(100 + i, /*lane=*/0));
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(queue.Push(200 + i, /*lane=*/1));
  EXPECT_EQ(queue.lane_size(0), 6u);
  EXPECT_EQ(queue.lane_size(1), 3u);

  std::vector<int> order;
  while (queue.size() > 0) {
    queue.PopBatch(1, std::chrono::microseconds(0), &order);
  }
  // High lane first, but every third pop yields to the waiting low lane;
  // once the high lane drains, the low remainder flows FIFO.
  EXPECT_EQ(order, (std::vector<int>{101, 102, 201, 103, 104, 202, 105, 106,
                                     203}));
}

TEST(RequestQueueTest, SingleLaneDrainStaysFifo) {
  serve::BoundedRequestQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(std::move(i)));
  std::vector<int> order;
  queue.PopBatch(5, std::chrono::microseconds(0), &order);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(ServeTest, ReadConfigRejectsTruncatedAndCorruptFiles) {
  const core::RapidReranker trained = FittedModel();
  const std::string path = ::testing::TempDir() + "/rapid_trunc.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 100u);

  const std::string cut = ::testing::TempDir() + "/rapid_cut.rsnp";
  core::RapidConfig config;
  // Truncations inside magic/version/family/header: header read fails.
  for (size_t size : {size_t{0}, size_t{2}, size_t{6}, size_t{10}, size_t{40},
                      size_t{70}}) {
    std::ofstream(cut, std::ios::binary).write(bytes.data(), size);
    EXPECT_FALSE(serve::Snapshot::ReadConfig(cut, &config)) << size;
    EXPECT_EQ(serve::Snapshot::Load(cut, data_), nullptr) << size;
  }
  // Truncation inside the weight blob: the header still reads, the model
  // does not.
  std::ofstream(cut, std::ios::binary).write(bytes.data(), 100);
  EXPECT_TRUE(serve::Snapshot::ReadConfig(cut, &config));
  EXPECT_EQ(serve::Snapshot::Load(cut, data_), nullptr);

  // Wrong magic and absurd version numbers.
  std::string wrong = bytes;
  wrong[0] = 'X';
  std::ofstream(cut, std::ios::binary).write(wrong.data(), wrong.size());
  EXPECT_FALSE(serve::Snapshot::ReadConfig(cut, &config));
  wrong = bytes;
  wrong[4] = 99;
  std::ofstream(cut, std::ios::binary).write(wrong.data(), wrong.size());
  EXPECT_FALSE(serve::Snapshot::ReadConfig(cut, &config));
  EXPECT_EQ(serve::Snapshot::LoadAny(cut, data_), nullptr);
}

TEST_F(ServeTest, V1SnapshotsStillLoadAsRapid) {
  const core::RapidReranker trained = FittedModel();
  const std::string path = ::testing::TempDir() + "/rapid_v2.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  // Rewrite as the v1 layout: magic, version=1, header — no family tag
  // (v2 inserts the 4-byte tag right after the version word).
  const std::string v1_path = ::testing::TempDir() + "/rapid_v1.rsnp";
  {
    std::ofstream out(v1_path, std::ios::binary);
    const uint32_t version = 1;
    out.write(bytes.data(), 4);  // magic
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(bytes.data() + 12, bytes.size() - 12);  // skip v2 tag
  }

  serve::SnapshotInfo info;
  ASSERT_TRUE(serve::Snapshot::ReadInfo(v1_path, &info));
  EXPECT_EQ(info.format_version, 1u);
  EXPECT_EQ(info.family, serve::SnapshotFamily::kRapid);

  const auto restored = serve::Snapshot::Load(v1_path, data_);
  ASSERT_NE(restored, nullptr);
  const std::vector<float> a = trained.ScoreList(data_, train_[0]);
  const std::vector<float> b = restored->ScoreList(data_, train_[0]);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST_F(ServeTest, SaveAutoRecordsCanaryProbeReadableFromTrailer) {
  const core::RapidReranker trained = FittedModel();
  const std::string path = ::testing::TempDir() + "/rapid_canary.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));

  serve::CanaryProbe probe;
  ASSERT_TRUE(serve::Snapshot::ReadCanary(path, &probe));
  ASSERT_FALSE(probe.list.items.empty());
  ASSERT_EQ(probe.list.items.size(), probe.list.scores.size());
  ASSERT_EQ(probe.list.items.size(), probe.expected_scores.size());
  // The recorded scores are exactly the saved model's forward pass on the
  // recorded list — what LoadSlot replays against a candidate snapshot.
  const std::vector<float> replay = trained.ScoreList(data_, probe.list);
  EXPECT_EQ(0, std::memcmp(replay.data(), probe.expected_scores.data(),
                           replay.size() * sizeof(float)));

  // A v1-style rewrite has no trailer to find: ReadCanary refuses before
  // ever touching the file end.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  const std::string v1_path = ::testing::TempDir() + "/rapid_canary_v1.rsnp";
  {
    std::ofstream out(v1_path, std::ios::binary);
    const uint32_t version = 1;
    out.write(bytes.data(), 4);  // magic
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(bytes.data() + 12, bytes.size() - 12);  // skip family tag
  }
  serve::CanaryProbe ignored;
  EXPECT_FALSE(serve::Snapshot::ReadCanary(v1_path, &ignored));
  EXPECT_NE(serve::Snapshot::Load(v1_path, data_), nullptr);

  // A corrupted trailer footer makes the probe unreadable, not the
  // snapshot unloadable.
  std::string torn = bytes;
  torn.back() = static_cast<char>(torn.back() ^ 0xFF);
  const std::string torn_path = ::testing::TempDir() + "/rapid_canary_t.rsnp";
  std::ofstream(torn_path, std::ios::binary)
      .write(torn.data(), static_cast<std::streamsize>(torn.size()));
  EXPECT_FALSE(serve::Snapshot::ReadCanary(torn_path, &ignored));
  EXPECT_NE(serve::Snapshot::Load(torn_path, data_), nullptr);
}

TEST_F(ServeTest, FamilyTaggedSnapshotRoundTripsBaselines) {
  rerank::NeuralRerankConfig cfg;
  cfg.epochs = 1;
  cfg.hidden_dim = 8;
  rerank::PrmReranker prm(cfg);
  prm.Fit(data_, train_, 11);

  const std::string path = ::testing::TempDir() + "/prm.rsnp";
  ASSERT_TRUE(
      serve::Snapshot::Save(path, prm, serve::SnapshotFamily::kPrm, data_));

  serve::SnapshotInfo info;
  ASSERT_TRUE(serve::Snapshot::ReadInfo(path, &info));
  EXPECT_EQ(info.family, serve::SnapshotFamily::kPrm);
  EXPECT_EQ(info.format_version, 3u);
  EXPECT_EQ(info.config.train.hidden_dim, 8);
  EXPECT_STREQ(serve::SnapshotFamilyName(info.family), "PRM");

  // The RAPID-only loader refuses; the family dispatcher reconstructs the
  // right class with bit-exact scores.
  EXPECT_EQ(serve::Snapshot::Load(path, data_), nullptr);
  const auto restored = serve::Snapshot::LoadAny(path, data_);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name(), "PRM");
  for (const data::ImpressionList& list : train_) {
    const std::vector<float> a = prm.ScoreList(data_, list);
    const std::vector<float> b = restored->ScoreList(data_, list);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
  }

  // Tagging a non-RAPID model as kRapid is refused at save time, and a
  // RAPID model through the generic path keeps its full header.
  EXPECT_FALSE(
      serve::Snapshot::Save(path, prm, serve::SnapshotFamily::kRapid, data_));
  const core::RapidReranker rapid = FittedModel();
  const std::string rapid_path = ::testing::TempDir() + "/rapid_gen.rsnp";
  ASSERT_TRUE(serve::Snapshot::Save(rapid_path, rapid,
                                    serve::SnapshotFamily::kRapid, data_));
  const auto rapid_restored = serve::Snapshot::LoadAny(rapid_path, data_);
  ASSERT_NE(rapid_restored, nullptr);
  EXPECT_EQ(rapid_restored->name(), rapid.name());
}

TEST(ServingMetricsTest, PercentilesAndCountersTrackRecordings) {
  serve::ServingMetrics metrics;
  for (uint64_t us = 1; us <= 100; ++us) {
    metrics.RecordRequest(us, /*fallback=*/us > 98);
  }
  metrics.RecordQueueDepth(3);
  metrics.RecordQueueDepth(9);
  metrics.RecordQueueDepth(4);
  const serve::ServingStats stats = metrics.Snapshot();
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_EQ(stats.fallbacks, 2u);
  EXPECT_EQ(stats.max_us, 100u);
  EXPECT_EQ(stats.max_queue_depth, 9);
  EXPECT_NEAR(stats.mean_us, 50.5, 1e-9);
  // Log-bucketed estimates: within one ~12.5% bucket of the true value.
  EXPECT_NEAR(stats.p50_us, 50.0, 50.0 * 0.13);
  EXPECT_NEAR(stats.p95_us, 95.0, 95.0 * 0.13);
  EXPECT_NEAR(stats.p99_us, 99.0, 99.0 * 0.13);
  EXPECT_NE(stats.ToJson().find("\"requests\": 100"), std::string::npos);
  EXPECT_NE(stats.ToTable().find("fallbacks"), std::string::npos);
}

}  // namespace
}  // namespace rapid
