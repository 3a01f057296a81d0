#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "serve/admission.h"
#include "serve/model_registry.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rapid {
namespace {

/// A deterministic stand-in model: rotates the list left by `shift` and
/// optionally stalls, emulating inference cost. Stateless, so it satisfies
/// the const-inference thread-safety contract by construction.
class RotateReranker : public rerank::Reranker {
 public:
  explicit RotateReranker(int shift, int stall_us = 0)
      : shift_(shift), stall_us_(stall_us) {}

  std::string name() const override {
    return "rotate-" + std::to_string(shift_);
  }

  std::vector<int> Rerank(const data::Dataset& /*data*/,
                          const data::ImpressionList& list) const override {
    if (stall_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    }
    std::vector<int> out = list.items;
    if (!out.empty()) {
      std::rotate(out.begin(),
                  out.begin() + (shift_ % static_cast<int>(out.size())),
                  out.end());
    }
    return out;
  }

 private:
  const int shift_;
  const int stall_us_;
};

data::ImpressionList TenItemList(int user_id = 0) {
  data::ImpressionList list;
  list.user_id = user_id;
  for (int i = 0; i < 10; ++i) {
    list.items.push_back(i);
    list.scores.push_back(1.0f - 0.05f * i);
  }
  return list;
}

std::vector<int> Rotated(const std::vector<int>& items, int shift) {
  std::vector<int> out = items;
  std::rotate(out.begin(), out.begin() + shift, out.end());
  return out;
}

TEST(ModelRegistryTest, PublishAcquireSwapRemove) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.Acquire("a"), nullptr);
  EXPECT_EQ(registry.VersionOf("a"), 0u);

  EXPECT_EQ(registry.Publish("a", std::make_shared<RotateReranker>(1)), 1u);
  EXPECT_EQ(registry.Publish("b", std::make_shared<RotateReranker>(2)), 1u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"a", "b"}));

  const auto v1 = registry.Acquire("a");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->model_name, "rotate-1");

  // Republish: version bumps, metrics object survives, and the previously
  // acquired handle keeps serving the old model (RCU semantics).
  v1->metrics->RecordRequest(10, false);
  EXPECT_EQ(registry.Publish("a", std::make_shared<RotateReranker>(3)), 2u);
  const auto v2 = registry.Acquire("a");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(v2->model_name, "rotate-3");
  EXPECT_EQ(v2->metrics, v1->metrics);
  EXPECT_EQ(v1->model_name, "rotate-1");  // Old handle untouched.

  EXPECT_TRUE(registry.Remove("a"));
  EXPECT_FALSE(registry.Remove("a"));
  EXPECT_EQ(registry.Acquire("a"), nullptr);
  // The removed slot's model outlives the table while referenced.
  EXPECT_EQ(v2->model->Rerank({}, TenItemList()), Rotated(TenItemList().items, 3));
}

TEST(AdmissionControllerTest, WatermarksResolveAndClamp) {
  serve::AdmissionConfig cfg;
  cfg.policy = serve::AdmissionPolicy::kShed;
  cfg.low_lane_watermark = 4;
  cfg.high_lane_watermark = 0;  // 0 = full capacity.
  serve::AdmissionController admission(cfg, /*queue_capacity=*/16);
  EXPECT_EQ(admission.watermark(serve::Lane::kLow), 4u);
  EXPECT_EQ(admission.watermark(serve::Lane::kHigh), 16u);
  EXPECT_TRUE(admission.Admit(serve::Lane::kLow, 3));
  EXPECT_FALSE(admission.Admit(serve::Lane::kLow, 4));
  EXPECT_TRUE(admission.Admit(serve::Lane::kHigh, 4));
  EXPECT_FALSE(admission.Admit(serve::Lane::kHigh, 16));

  // A high watermark below the low one is clamped up (priority inversion).
  cfg.low_lane_watermark = 8;
  cfg.high_lane_watermark = 2;
  serve::AdmissionController clamped(cfg, 16);
  EXPECT_EQ(clamped.watermark(serve::Lane::kHigh), 8u);

  // kBlock never sheds regardless of depth.
  cfg.policy = serve::AdmissionPolicy::kBlock;
  serve::AdmissionController blocking(cfg, 16);
  EXPECT_TRUE(blocking.Admit(serve::Lane::kLow, 16));
}

TEST(ServingRouterTest, RoutesBySlotWithAttribution) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  serve::ServingRouter router(data, cfg);
  EXPECT_EQ(router.InstallSlot("arm-a", std::make_shared<RotateReranker>(1)),
            1u);
  EXPECT_EQ(router.InstallSlot("arm-b", std::make_shared<RotateReranker>(2)),
            1u);
  EXPECT_EQ(router.slots(), (std::vector<std::string>{"arm-a", "arm-b"}));

  const data::ImpressionList list = TenItemList();
  auto fa = router.Submit({"arm-a", serve::Lane::kHigh, list});
  auto fb = router.Submit({"arm-b", serve::Lane::kLow, list});
  const serve::RouterResponse ra = fa.get();
  const serve::RouterResponse rb = fb.get();
  EXPECT_EQ(ra.items, Rotated(list.items, 1));
  EXPECT_EQ(ra.model_name, "rotate-1");
  EXPECT_EQ(ra.model_version, 1u);
  EXPECT_FALSE(ra.degraded);
  EXPECT_FALSE(ra.shed);
  EXPECT_EQ(rb.items, Rotated(list.items, 2));
  EXPECT_EQ(rb.model_name, "rotate-2");

  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.total.requests, 2u);
  EXPECT_EQ(stats.unknown_slot, 0u);
  ASSERT_EQ(stats.slots.size(), 2u);
  EXPECT_EQ(stats.slots[0].slot, "arm-a");
  EXPECT_EQ(stats.slots[0].stats.requests, 1u);
  EXPECT_NE(stats.ToJson().find("\"arm-b\""), std::string::npos);
  EXPECT_NE(stats.ToTable().find("slot arm-a"), std::string::npos);
}

TEST(ServingRouterTest, UnknownSlotDegradesToFallback) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  const data::ImpressionList list = TenItemList();
  const serve::RouterResponse r =
      router.Submit({"nope", serve::Lane::kHigh, list}).get();
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.shed);
  EXPECT_EQ(r.items, list.items);  // kInitialOrder fallback.
  EXPECT_EQ(r.model_version, 0u);
  EXPECT_EQ(r.model_name, "");
  EXPECT_EQ(router.stats().unknown_slot, 1u);
}

TEST(ServingRouterTest, RemoveSlotRetiresModelSafely) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("a", std::make_shared<RotateReranker>(1));
  ASSERT_TRUE(router.RemoveSlot("a"));
  EXPECT_FALSE(router.RemoveSlot("a"));
  const serve::RouterResponse r =
      router.Submit({"a", serve::Lane::kHigh, TenItemList()}).get();
  EXPECT_TRUE(r.degraded);
}

// The acceptance test for the hot-swap protocol: sustained concurrent load
// while the slot is republished several times. Zero requests may be
// dropped, and every non-degraded response must be exactly the output of
// the model version stamped on it — a torn read (half old, half new
// model) would produce a permutation matching neither.
TEST(ServingRouterTest, HotSwapUnderLoadZeroDropsCleanAttribution) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 4;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  cfg.queue_capacity = 64;
  serve::ServingRouter router(data, cfg);
  // Even shifts only, so each version's output is distinguishable and no
  // rotation composes into another (list length 10).
  router.InstallSlot("main", std::make_shared<RotateReranker>(2, 200));

  const data::ImpressionList list = TenItemList();
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 60;
  std::atomic<int> bad_attribution{0};
  std::atomic<int> degraded{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        serve::RouterResponse r =
            router.Submit({"main", serve::Lane::kHigh, list}).get();
        ++completed;
        if (r.degraded) {
          ++degraded;
          continue;
        }
        // Version v was installed with shift 2*v.
        const int shift = static_cast<int>(r.model_version) * 2;
        if (r.items != Rotated(list.items, shift) ||
            r.model_name != "rotate-" + std::to_string(shift)) {
          ++bad_attribution;
        }
      }
    });
  }
  // Hot swaps while the submitters hammer the queue.
  std::vector<uint64_t> versions;
  for (int swap = 2; swap <= 4; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    versions.push_back(router.InstallSlot(
        "main", std::make_shared<RotateReranker>(2 * swap, 200)));
  }
  for (auto& t : submitters) t.join();
  router.Shutdown();

  EXPECT_EQ(versions, (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(completed.load(),
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(bad_attribution.load(), 0);
  EXPECT_EQ(degraded.load(), 0);  // No deadline configured: nothing degrades.
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.total.requests, completed.load());
  EXPECT_EQ(stats.total.fallbacks, 0u);
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].version, 4u);
  EXPECT_EQ(stats.slots[0].stats.requests, completed.load());
}

TEST(ServingRouterTest, ShedModeRejectsAboveWatermarkAndNeverBlocks) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 16;
  cfg.admission.policy = serve::AdmissionPolicy::kShed;
  cfg.admission.low_lane_watermark = 2;
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("main", std::make_shared<RotateReranker>(1, 5000));

  const data::ImpressionList list = TenItemList();
  std::vector<std::future<serve::RouterResponse>> futures;
  constexpr int kBurst = 24;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(router.Submit({"main", serve::Lane::kLow, list}));
  }
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  int shed = 0;
  for (auto& f : futures) {
    const serve::RouterResponse r = f.get();
    if (r.shed) {
      ++shed;
      EXPECT_TRUE(r.degraded);
      EXPECT_EQ(r.items, list.items);  // Fallback, not the model.
      EXPECT_EQ(r.model_version, 0u);
    }
  }
  router.Shutdown();
  // With a 5ms-per-request model and watermark 2, most of the burst is
  // shed, and shedding answers immediately — the burst of 24 must not take
  // anywhere near 24 model passes (120ms) to *submit*.
  EXPECT_GT(shed, 0);
  EXPECT_LT(submit_ms, 60.0);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.total.requests, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.total.shed, static_cast<uint64_t>(shed));
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].stats.shed, static_cast<uint64_t>(shed));
}

TEST(ServingRouterTest, SlotQuotaShedsOnlyTheNoisyTenant) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 64;
  cfg.admission.policy = serve::AdmissionPolicy::kShed;
  // Global watermarks far above the burst: only the per-slot quota bites.
  cfg.admission.low_lane_watermark = 64;
  cfg.admission.high_lane_watermark = 64;
  cfg.admission.slot_quotas = {{"noisy", 2}};
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("noisy", std::make_shared<RotateReranker>(1, 5000));
  router.InstallSlot("quiet", std::make_shared<RotateReranker>(2, 0));

  const data::ImpressionList list = TenItemList();
  std::vector<std::future<serve::RouterResponse>> noisy, quiet;
  for (int i = 0; i < 16; ++i) {
    noisy.push_back(router.Submit({"noisy", serve::Lane::kHigh, list}));
  }
  for (int i = 0; i < 8; ++i) {
    quiet.push_back(router.Submit({"quiet", serve::Lane::kHigh, list}));
  }
  int noisy_shed = 0, quiet_shed = 0;
  for (auto& f : noisy) {
    const serve::RouterResponse r = f.get();
    if (r.shed) {
      ++noisy_shed;
      EXPECT_TRUE(r.degraded);
      EXPECT_EQ(r.items, list.items);  // Fallback, not the model.
    }
  }
  for (auto& f : quiet) quiet_shed += f.get().shed ? 1 : 0;

  // The noisy tenant's burst of 16 against a depth quota of 2 mostly
  // sheds; the quiet tenant rides through untouched.
  EXPECT_GT(noisy_shed, 0);
  EXPECT_EQ(quiet_shed, 0);
  serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.quota_shed, static_cast<uint64_t>(noisy_shed));
  EXPECT_EQ(stats.total.shed, static_cast<uint64_t>(noisy_shed));
  EXPECT_NE(stats.ToTable().find("quota shed"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"quota_shed\""), std::string::npos);

  // The quota tracks queue depth, not lifetime count: once the burst has
  // drained, the same slot admits again — nothing leaked a slot charge.
  const serve::RouterResponse later =
      router.Submit({"noisy", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(later.shed);
  router.Shutdown();
}

TEST(ServingRouterTest, HighLaneSurvivesLowLaneFlood) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 32;
  cfg.admission.policy = serve::AdmissionPolicy::kShed;
  cfg.admission.low_lane_watermark = 4;  // Low lane sheds early...
  cfg.admission.high_lane_watermark = 32;  // ...high lane only when full.
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("main", std::make_shared<RotateReranker>(1, 2000));

  const data::ImpressionList list = TenItemList();
  std::vector<std::future<serve::RouterResponse>> low, high;
  for (int i = 0; i < 20; ++i) {
    low.push_back(router.Submit({"main", serve::Lane::kLow, list}));
  }
  for (int i = 0; i < 8; ++i) {
    high.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
  }
  int low_shed = 0, high_shed = 0;
  for (auto& f : low) low_shed += f.get().shed ? 1 : 0;
  for (auto& f : high) high_shed += f.get().shed ? 1 : 0;
  router.Shutdown();
  EXPECT_GT(low_shed, 0);
  EXPECT_EQ(high_shed, 0);
}

TEST(ServingRouterTest, BlockModeDeadlineCapsProducerWait) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.queue_capacity = 1;
  cfg.deadline_us = 10'000;  // 10ms.
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("main", std::make_shared<RotateReranker>(1, 30'000));

  const data::ImpressionList list = TenItemList();
  std::vector<std::future<serve::RouterResponse>> futures;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 6; ++i) {
    futures.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
  }
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  int degraded = 0;
  for (auto& f : futures) degraded += f.get().degraded ? 1 : 0;
  router.Shutdown();

  // Without the deadline cap the producer would block ~30ms per queued
  // request (~150ms total); with it, each Submit waits at most ~10ms.
  EXPECT_LT(submit_ms, 100.0);
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(router.stats().total.fallbacks, static_cast<uint64_t>(degraded));
}

TEST(ServingRouterTest, SubmitAfterShutdownServesInline) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(3));
  router.Shutdown();
  auto future = router.Submit({"main", serve::Lane::kHigh, TenItemList()});
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::RouterResponse r = future.get();
  EXPECT_EQ(r.items, Rotated(TenItemList().items, 3));
  EXPECT_EQ(r.model_version, 1u);
}

// Slot names can arrive from the wire (a remote load or a shard rollout),
// so the JSON scrape must escape them rather than splice them in raw.
TEST(ServingRouterTest, StatsJsonEscapesSlotNames) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot(std::string(R"(a"b\c)") + '\x01',
                     std::make_shared<RotateReranker>(1));
  const std::string json = router.stats().ToJson();
  EXPECT_NE(json.find(R"("slots": {"a\"b\\c\u0001": {"model": "rotate-1")"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

// End-to-end through the snapshot path with real models: two differently
// configured RAPID fits ship through LoadSlot, and the swap changes both
// the served scores and the attribution.
class RouterSnapshotTest : public ::testing::Test {
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

  std::shared_ptr<core::RapidReranker> Fit(int hidden, uint64_t seed) {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = hidden;
    auto model = std::make_shared<core::RapidReranker>(cfg);
    model->Fit(data_, train_, seed);
    return model;
  }

  std::string TrainAndSnapshot(int hidden, uint64_t seed,
                               const std::string& file) {
    // One file per process: ctest runs the fixture's tests in parallel.
    const std::string path = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) + "_" + file;
    EXPECT_TRUE(serve::Snapshot::Save(path, *Fit(hidden, seed), data_));
    return path;
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

TEST_F(RouterSnapshotTest, LoadSlotHotSwapsSnapshots) {
  const std::string path_a = TrainAndSnapshot(8, 1, "router_a.rsnp");
  const std::string path_b = TrainAndSnapshot(12, 2, "router_b.rsnp");
  const auto model_a = serve::Snapshot::Load(path_a, data_);
  const auto model_b = serve::Snapshot::Load(path_b, data_);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);

  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  serve::ServingRouter router(data_, cfg);
  EXPECT_EQ(router.LoadSlot("main", path_a), 1u);
  EXPECT_EQ(router.LoadSlot("main", "/nonexistent.rsnp"), 0u);
  EXPECT_EQ(router.SlotVersion("main"), 1u);

  const data::ImpressionList& list = train_.front();
  serve::RouterResponse r1 =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_EQ(r1.items, model_a->Rerank(data_, list));
  EXPECT_EQ(r1.model_version, 1u);

  EXPECT_EQ(router.LoadSlot("main", path_b), 2u);
  serve::RouterResponse r2 =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_EQ(r2.items, model_b->Rerank(data_, list));
  EXPECT_EQ(r2.model_version, 2u);
}

// Copies `path` and XOR-flips the last `tail` weight bytes — the bytes
// just *before* the v3 canary trailer, located via the trailer footer's
// payload length. Flipping only the final weight float keeps the copy
// structurally parseable — dimensions, magics, and trailer intact, weights
// wrong (flipping every bit of a float always changes its value, or
// yields NaN). That is exactly the failure mode a canary must catch:
// corrupt-but-loadable.
std::string BitFlippedCopy(const std::string& path, size_t tail) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  uint32_t payload_len = 0;
  EXPECT_GT(bytes.size(), 8u);
  std::memcpy(&payload_len, bytes.data() + bytes.size() - 8,
              sizeof(payload_len));
  const size_t trailer = static_cast<size_t>(payload_len) + 8;
  EXPECT_GT(bytes.size(), trailer + tail);
  for (size_t i = bytes.size() - trailer - tail; i < bytes.size() - trailer;
       ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0xFF);
  }
  const std::string out_path = path + ".corrupt";
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out_path;
}

TEST_F(RouterSnapshotTest, CanaryRejectsCorruptSnapshotBeforePublish) {
  const std::string path = TrainAndSnapshot(8, 5, "router_canary.rsnp");
  const auto model = serve::Snapshot::Load(path, data_);
  ASSERT_NE(model, nullptr);

  serve::CanaryProbe probe;
  probe.list = train_.front();
  probe.expected_scores = model->ScoreList(data_, probe.list);
  serve::ServingRouter router(data_, {});
  router.SetCanary("main", probe);

  // The faithful snapshot reproduces the recorded scores and publishes.
  EXPECT_EQ(router.LoadSlot("main", path), 1u);

  // The bit-flipped snapshot parses but scores differently (or NaN): the
  // canary rejects it before publish and v1 keeps serving.
  const std::string corrupt = BitFlippedCopy(path, /*tail=*/4);
  ASSERT_NE(serve::Snapshot::LoadAny(corrupt, data_), nullptr)
      << "corrupt copy must stay parseable — the probe, not the parser, is "
         "the gate under test";
  EXPECT_EQ(router.LoadSlot("main", corrupt), 0u);
  EXPECT_EQ(router.SlotVersion("main"), 1u);
  const serve::RouterResponse r =
      router.Submit({"main", serve::Lane::kHigh, train_.front()}).get();
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.model_version, 1u);
  EXPECT_EQ(r.items, model->Rerank(data_, train_.front()));
  EXPECT_EQ(router.stats().canary_rejected, 1u);
  EXPECT_NE(router.stats().ToJson().find("\"canary_rejected\": 1"),
            std::string::npos);

  // Clearing the explicit canary falls back to the probe the snapshot
  // itself recorded at save time — the corrupt copy still cannot publish.
  EXPECT_TRUE(router.ClearCanary("main"));
  EXPECT_FALSE(router.ClearCanary("main"));
  EXPECT_EQ(router.LoadSlot("main", corrupt), 0u);
  EXPECT_EQ(router.stats().canary_rejected, 2u);
}

// The embedded probe guards LoadSlot with zero caller wiring: no
// SetCanary anywhere, yet the corrupt snapshot is rejected while the
// faithful one publishes.
TEST_F(RouterSnapshotTest, EmbeddedCanaryGuardsLoadSlotWithoutSetCanary) {
  const std::string path = TrainAndSnapshot(8, 6, "router_autocanary.rsnp");
  serve::ServingRouter router(data_, {});

  const std::string corrupt = BitFlippedCopy(path, /*tail=*/4);
  EXPECT_EQ(router.LoadSlot("main", corrupt), 0u);
  EXPECT_EQ(router.stats().canary_rejected, 1u);
  EXPECT_EQ(router.SlotVersion("main"), 0u);

  EXPECT_EQ(router.LoadSlot("main", path), 1u);
  EXPECT_EQ(router.SlotVersion("main"), 1u);
}

// Cache-on variant of the hot-swap acceptance test, sized for TSan: one
// hot user hammers a slot through the result cache while LoadSlot swaps
// the slot six times between two real snapshots. Every response must be
// internally consistent — the items must be exactly the output of the
// model version stamped on the response. A stale cache entry surviving a
// swap, or a torn (version, items) pair, fails the parity check.
TEST_F(RouterSnapshotTest, CacheStaysSwapConsistentUnderHotUserLoad) {
  const std::string path_a = TrainAndSnapshot(8, 1, "cache_swap_a.rsnp");
  const std::string path_b = TrainAndSnapshot(12, 2, "cache_swap_b.rsnp");
  const auto model_a = serve::Snapshot::Load(path_a, data_);
  const auto model_b = serve::Snapshot::Load(path_b, data_);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);

  // Pick a hot list the two models rank differently, so a stale answer is
  // visible as a wrong permutation rather than a harmless coincidence.
  data::ImpressionList hot = train_.front();
  for (const data::ImpressionList& list : train_) {
    if (model_a->Rerank(data_, list) != model_b->Rerank(data_, list)) {
      hot = list;
      break;
    }
  }
  const std::vector<int> ref_a = model_a->Rerank(data_, hot);
  const std::vector<int> ref_b = model_b->Rerank(data_, hot);

  serve::RouterConfig cfg;
  cfg.num_threads = 3;
  cfg.max_batch = 4;
  cfg.max_wait_us = 50;
  cfg.cache.enabled = true;
  cfg.cache.capacity = 256;
  serve::ServingRouter router(data_, cfg);
  ASSERT_EQ(router.LoadSlot("main", path_a), 1u);

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 50;
  std::atomic<int> inconsistent{0};
  std::atomic<int> degraded{0};
  std::atomic<uint64_t> hit_responses{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        serve::RouterResponse r =
            router.Submit({"main", serve::Lane::kHigh, hot}).get();
        if (r.degraded) {
          ++degraded;
          continue;
        }
        if (r.cache_hit) ++hit_responses;
        // v1 is model A; swaps alternate B, A, B, ... so odd versions are
        // A and even versions are B.
        const std::vector<int>& expected =
            (r.model_version % 2 == 1) ? ref_a : ref_b;
        if (r.items != expected) ++inconsistent;
      }
    });
  }

  std::vector<uint64_t> versions;
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    versions.push_back(
        router.LoadSlot("main", swap % 2 == 0 ? path_b : path_a));
  }
  for (std::thread& t : submitters) t.join();
  router.DrainCacheMaintenance();
  router.Shutdown();

  EXPECT_EQ(versions, (std::vector<uint64_t>{2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(inconsistent.load(), 0);
  EXPECT_EQ(degraded.load(), 0);
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.total.requests,
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.cache.hits, hit_responses.load());
  EXPECT_GT(stats.cache.hits, 0u);  // The hot user actually hit the cache.
}

// A one-slot router in front of a real RAPID fit: the serving contract
// that callers without A/B slots rely on.
class OneSlotRouterTest : public RouterSnapshotTest {};

TEST_F(OneSlotRouterTest, MatchesDirectRerankAcrossThreadCounts) {
  const auto model = Fit(8, 6);
  std::vector<std::vector<int>> reference;
  for (const auto& list : train_) {
    reference.push_back(model->Rerank(data_, list));
  }

  for (int threads : {1, 4}) {
    serve::RouterConfig cfg;
    cfg.num_threads = threads;
    cfg.max_batch = 3;
    cfg.max_wait_us = 50;
    serve::ServingRouter router(data_, cfg);
    ASSERT_EQ(router.InstallSlot("main", model), 1u);
    std::vector<std::future<serve::RouterResponse>> futures;
    for (const auto& list : train_) {
      futures.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const serve::RouterResponse response = futures[i].get();
      EXPECT_FALSE(response.degraded);
      EXPECT_EQ(response.items, reference[i]);
      EXPECT_EQ(response.model_version, 1u);
      EXPECT_GE(response.latency_us, 0);
    }
    const serve::RouterStats stats = router.stats();
    EXPECT_EQ(stats.total.requests, train_.size());
    EXPECT_EQ(stats.total.fallbacks, 0u);
  }
}

TEST_F(OneSlotRouterTest, ConcurrentSubmittersMatchDirectRerank) {
  const auto model = Fit(8, 6);
  std::vector<std::vector<int>> reference;
  for (const auto& list : train_) {
    reference.push_back(model->Rerank(data_, list));
  }

  serve::RouterConfig cfg;
  cfg.num_threads = 4;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  cfg.queue_capacity = 8;  // Small: exercises producer backpressure.
  serve::ServingRouter router(data_, cfg);
  router.InstallSlot("main", model);

  constexpr int kSubmitters = 4;
  constexpr int kRoundsPerSubmitter = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < kRoundsPerSubmitter; ++round) {
        const size_t idx = (s + round * kSubmitters) % train_.size();
        auto future = router.Submit({"main", serve::Lane::kHigh, train_[idx]});
        if (future.get().items != reference[idx]) ++mismatches;
      }
    });
  }
  for (auto& t : submitters) t.join();
  router.Shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServingStats stats = router.stats().total;
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kSubmitters * kRoundsPerSubmitter));
  EXPECT_GE(stats.max_queue_depth, 1);
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_LE(stats.p50_us, stats.p99_us);
}

TEST_F(OneSlotRouterTest, ExpiredDeadlineFallsBackToInitialOrder) {
  serve::RouterConfig cfg;
  cfg.num_threads = 1;
  cfg.max_batch = 1;
  cfg.max_wait_us = 0;
  cfg.deadline_us = 1;  // Unmeetable: queue wait alone exceeds it.
  cfg.fallback = serve::FallbackPolicy::kInitialOrder;
  serve::ServingRouter router(data_, cfg);
  router.InstallSlot("main", Fit(8, 6));

  std::vector<std::future<serve::RouterResponse>> futures;
  for (const auto& list : train_) {
    futures.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
  }
  uint64_t degraded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::RouterResponse response = futures[i].get();
    if (response.degraded) {
      ++degraded;
      EXPECT_EQ(response.items, train_[i].items);
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(router.stats().total.fallbacks, degraded);
}

TEST_F(OneSlotRouterTest, BatchSizeHistogramReconcilesOnTotalAndSlot) {
  const auto model = Fit(8, 6);
  // Prefixes of varying length, so the batched forward groups several
  // length classes.
  std::vector<data::ImpressionList> lists;
  for (size_t i = 0; i < train_.size(); ++i) {
    data::ImpressionList list = train_[i];
    const size_t keep = 1 + i % list.items.size();
    list.items.resize(keep);
    list.scores.resize(keep);
    list.clicks.clear();
    lists.push_back(std::move(list));
  }

  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  serve::ServingRouter router(data_, cfg);
  router.InstallSlot("main", model);
  std::vector<std::future<serve::RouterResponse>> futures;
  for (int rep = 0; rep < 5; ++rep) {
    for (const data::ImpressionList& list : lists) {
      futures.push_back(router.Submit({"main", serve::Lane::kHigh, list}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::RouterResponse response = futures[i].get();
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.items, model->Rerank(data_, lists[i % lists.size()]))
        << "batched serving diverged from the direct call";
  }
  router.Shutdown();

  const serve::RouterStats stats = router.stats();
  ASSERT_EQ(stats.slots.size(), 1u);
  for (const serve::ServingStats& s : {stats.total, stats.slots[0].stats}) {
    EXPECT_EQ(s.requests, futures.size());
    // Every request ran through the batched path, so the histogram and
    // the counters must reconcile exactly.
    EXPECT_GE(s.batches, 1u);
    EXPECT_EQ(s.batched_lists, futures.size());
    EXPECT_GE(s.max_batch_size, 1);
    EXPECT_LE(s.max_batch_size, cfg.max_batch);
    uint64_t hist_batches = 0, hist_lists = 0;
    for (int bin = 0; bin < serve::ServingStats::kBatchHistBins; ++bin) {
      hist_batches += s.batch_size_hist[bin];
      hist_lists += s.batch_size_hist[bin] * static_cast<uint64_t>(bin + 1);
    }
    EXPECT_EQ(hist_batches, s.batches);
    EXPECT_EQ(hist_lists, s.batched_lists);
  }
}

}  // namespace
}  // namespace rapid
