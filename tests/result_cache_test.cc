#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "serve/result_cache.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rapid {
namespace {

data::ImpressionList TenItemList(int user_id = 0) {
  data::ImpressionList list;
  list.user_id = user_id;
  for (int i = 0; i < 10; ++i) {
    list.items.push_back(i);
    list.scores.push_back(1.0f - 0.05f * i);
  }
  return list;
}

serve::ResultCache::CachedResult Result(uint64_t version,
                                        std::vector<int> items = {1, 2, 3}) {
  return {std::move(items), "model", version};
}

// ---------------------------------------------------------------------------
// Fingerprint

TEST(ResultCacheFingerprintTest, SensitiveToUserOrderAndScores) {
  const data::ImpressionList base = TenItemList(7);
  const uint64_t fp = serve::ResultCache::Fingerprint(base);
  EXPECT_EQ(serve::ResultCache::Fingerprint(base), fp);  // Deterministic.

  data::ImpressionList other_user = base;
  other_user.user_id = 8;
  EXPECT_NE(serve::ResultCache::Fingerprint(other_user), fp);

  // Re-rankers are order-aware, so a permutation of the same candidates
  // must be a different key.
  data::ImpressionList permuted = base;
  std::rotate(permuted.items.begin(), permuted.items.begin() + 1,
              permuted.items.end());
  std::rotate(permuted.scores.begin(), permuted.scores.begin() + 1,
              permuted.scores.end());
  EXPECT_NE(serve::ResultCache::Fingerprint(permuted), fp);

  data::ImpressionList rescored = base;
  rescored.scores[3] += 0.25f;
  EXPECT_NE(serve::ResultCache::Fingerprint(rescored), fp);

  // Clicks are training-only; inference ignores them, so must the key.
  data::ImpressionList clicked = base;
  clicked.clicks.assign(base.items.size(), 1);
  EXPECT_EQ(serve::ResultCache::Fingerprint(clicked), fp);
}

// ---------------------------------------------------------------------------
// LRU / TTL / capacity semantics (single shard for exact bounds)

serve::CachePolicy UnitPolicy(size_t capacity, int64_t ttl_us = 0) {
  serve::CachePolicy policy;
  policy.enabled = true;
  policy.capacity = capacity;
  policy.num_shards = 1;
  policy.ttl_us = ttl_us;
  return policy;
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  serve::ResultCache cache(UnitPolicy(2));
  cache.Insert("m", 1, /*fingerprint=*/1, Result(1, {1}));
  cache.Insert("m", 1, 2, Result(1, {2}));
  // Touch fp=1 so fp=2 becomes the cold end.
  ASSERT_TRUE(cache.Lookup("m", 1, 1).has_value());
  cache.Insert("m", 1, 3, Result(1, {3}));

  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
  EXPECT_FALSE(cache.Lookup("m", 1, 2).has_value());  // Evicted.
  EXPECT_TRUE(cache.Lookup("m", 1, 3).has_value());
  EXPECT_EQ(cache.size(), 2u);

  const serve::CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, CapacityOneKeepsOnlyTheLatestEntry) {
  serve::ResultCache cache(UnitPolicy(1));
  cache.Insert("m", 1, 1, Result(1, {1}));
  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
  cache.Insert("m", 1, 2, Result(1, {2}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup("m", 1, 1).has_value());
  const auto hit = cache.Lookup("m", 1, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->items, (std::vector<int>{2}));
  EXPECT_EQ(cache.TotalStats().evictions, 1u);
}

TEST(ResultCacheTest, SecondHitAdmissionDefersFirstSightings) {
  serve::CachePolicy policy = UnitPolicy(8);
  policy.admit_on_second_hit = true;
  serve::ResultCache cache(policy);

  // First miss of a key records a sighting, stores nothing.
  cache.Insert("m", 1, /*fingerprint=*/1, Result(1, {1}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("m", 1, 1).has_value());
  EXPECT_EQ(cache.TotalStats().deferred, 1u);
  EXPECT_EQ(cache.TotalStats().inserts, 0u);

  // The repeat miss admits; the third request is a genuine hit.
  cache.Insert("m", 1, 1, Result(1, {1}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
  EXPECT_EQ(cache.TotalStats().deferred, 1u);
  EXPECT_EQ(cache.TotalStats().inserts, 1u);

  // One-off keys never enter the LRU, so they cannot displace the hot
  // entry no matter how many distinct ones stream past.
  for (uint64_t fp = 100; fp < 200; ++fp) {
    cache.Insert("m", 1, fp, Result(1));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
  EXPECT_EQ(cache.TotalStats().deferred, 101u);

  // A new model version is a new key: admission is re-earned per version.
  cache.Insert("m", 2, 1, Result(2, {1}));
  EXPECT_FALSE(cache.Lookup("m", 2, 1).has_value());
  cache.Insert("m", 2, 1, Result(2, {1}));
  EXPECT_TRUE(cache.Lookup("m", 2, 1).has_value());

  // The per-slot attribution and the JSON rendering carry the counter.
  EXPECT_GE(cache.StatsFor("m").deferred, 1u);
  EXPECT_NE(cache.TotalStats().ToJson().find("\"deferred\": "),
            std::string::npos);
}

TEST(ResultCacheTest, TtlExpiresEntries) {
  serve::ResultCache cache(UnitPolicy(8, /*ttl_us=*/20'000));
  cache.Insert("m", 1, 1, Result(1));
  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(cache.Lookup("m", 1, 1).has_value());
  const serve::CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, LookupOnAnotherVersionMisses) {
  // The unit-level swap-consistency property: entries are only reachable
  // under the exact version they were computed by.
  serve::ResultCache cache(UnitPolicy(8));
  cache.Insert("m", 1, 1, Result(1));
  EXPECT_FALSE(cache.Lookup("m", 2, 1).has_value());
  EXPECT_FALSE(cache.Lookup("other", 1, 1).has_value());
  EXPECT_TRUE(cache.Lookup("m", 1, 1).has_value());
}

TEST(ResultCacheTest, SweepReclaimsDeadVersionsOnly) {
  serve::CachePolicy policy = UnitPolicy(16);
  policy.num_shards = 2;
  serve::ResultCache cache(policy);
  cache.Insert("m", 1, 1, Result(1));
  cache.Insert("m", 1, 2, Result(1));
  cache.Insert("m", 1, 3, Result(1));
  cache.Insert("m", 2, 4, Result(2));
  cache.Insert("x", 1, 5, Result(1));
  ASSERT_EQ(cache.size(), 5u);

  cache.Sweep("m", /*live_version=*/2);
  EXPECT_EQ(cache.size(), 2u);  // m@v2 and x@v1 survive.
  EXPECT_TRUE(cache.Lookup("m", 2, 4).has_value());
  EXPECT_TRUE(cache.Lookup("x", 1, 5).has_value());
  EXPECT_EQ(cache.TotalStats().swept, 3u);
  EXPECT_EQ(cache.StatsFor("m").swept, 3u);
  EXPECT_EQ(cache.StatsFor("x").swept, 0u);

  // live_version 0 (slot removal) reclaims every version of the slot.
  cache.Sweep("x", 0);
  EXPECT_FALSE(cache.Lookup("x", 1, 5).has_value());
}

TEST(ResultCacheTest, PolicyGatesAndBypassCounters) {
  serve::CachePolicy policy = UnitPolicy(8);
  policy.bypass_slots = {"raw"};
  serve::ResultCache cache(policy);
  EXPECT_TRUE(cache.EnabledFor("main"));
  EXPECT_FALSE(cache.EnabledFor("raw"));
  cache.RecordBypass("raw");
  cache.RecordBypass("raw");
  EXPECT_EQ(cache.TotalStats().bypass, 2u);
  EXPECT_EQ(cache.StatsFor("raw").bypass, 2u);

  serve::CachePolicy off;  // enabled = false
  serve::ResultCache disabled(off);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.EnabledFor("main"));
}

// ---------------------------------------------------------------------------
// Router integration: deterministic stand-in model

class RotateReranker : public rerank::Reranker {
 public:
  explicit RotateReranker(int shift) : shift_(shift) {}
  std::string name() const override {
    return "rotate-" + std::to_string(shift_);
  }
  std::vector<int> Rerank(const data::Dataset& /*data*/,
                          const data::ImpressionList& list) const override {
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
};

std::vector<int> Rotated(const std::vector<int>& items, int shift) {
  std::vector<int> out = items;
  std::rotate(out.begin(), out.begin() + shift, out.end());
  return out;
}

TEST(RouterCacheTest, SwapMakesStaleEntriesUnreachableAndSweepsThem) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  cfg.cache.enabled = true;
  cfg.cache.capacity = 64;
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("main", std::make_shared<RotateReranker>(2));

  const data::ImpressionList list = TenItemList();
  const serve::RouterResponse miss =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.items, Rotated(list.items, 2));
  const serve::RouterResponse hit =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.items, miss.items);
  EXPECT_EQ(hit.model_version, 1u);
  EXPECT_EQ(hit.model_name, "rotate-2");

  // Hot swap: the v1 entry becomes unreachable with the publish itself.
  router.InstallSlot("main", std::make_shared<RotateReranker>(4));
  const serve::RouterResponse fresh =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(fresh.cache_hit);  // Never the stale v1 answer.
  EXPECT_EQ(fresh.model_version, 2u);
  EXPECT_EQ(fresh.items, Rotated(list.items, 4));
  const serve::RouterResponse fresh_hit =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_TRUE(fresh_hit.cache_hit);
  EXPECT_EQ(fresh_hit.model_version, 2u);
  EXPECT_EQ(fresh_hit.items, Rotated(list.items, 4));

  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.inserts, 2u);
  EXPECT_EQ(stats.cache.swept, 1u);  // The dead v1 entry was reclaimed.
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].cache.hits, 2u);
  EXPECT_NE(stats.ToJson().find("\"cache\""), std::string::npos);
  EXPECT_NE(stats.ToTable().find("cache hits"), std::string::npos);
}

TEST(RouterCacheTest, BypassSlotNeverConsultsTheCache) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.bypass_slots = {"raw"};
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("raw", std::make_shared<RotateReranker>(1));

  const data::ImpressionList list = TenItemList();
  for (int i = 0; i < 3; ++i) {
    const serve::RouterResponse r =
        router.Submit({"raw", serve::Lane::kHigh, list}).get();
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.items, Rotated(list.items, 1));
  }
  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.cache.bypass, 3u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.inserts, 0u);
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].cache.bypass, 3u);
}

// ---------------------------------------------------------------------------
// Router integration: real model through the snapshot path — the cached
// answer must be bit-exact against a fresh forward pass.

class RouterCacheModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 12;
    cfg.num_items = 80;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 91);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(5);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }

    core::RapidConfig model_cfg;
    model_cfg.train.epochs = 1;
    model_cfg.hidden_dim = 8;
    model_ = std::make_unique<core::RapidReranker>(model_cfg);
    model_->Fit(data_, train_, /*seed=*/11);
    // One file per process: ctest runs the fixture's tests in parallel.
    path_ = ::testing::TempDir() + "/" + std::to_string(::getpid()) +
            "_result_cache_model.rsnp";
    ASSERT_TRUE(serve::Snapshot::Save(path_, *model_, data_));
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
  std::unique_ptr<core::RapidReranker> model_;
  std::string path_;
};

TEST_F(RouterCacheModelTest, CachedResponseIsBitExactAgainstScoreList) {
  serve::RouterConfig cfg;
  cfg.num_threads = 2;
  cfg.cache.enabled = true;
  cfg.cache.capacity = 128;
  serve::ServingRouter router(data_, cfg);
  ASSERT_EQ(router.LoadSlot("main", path_), 1u);

  const data::ImpressionList& list = train_.front();
  const serve::RouterResponse first =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  const serve::RouterResponse second =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.items, first.items);
  EXPECT_EQ(second.model_name, first.model_name);
  EXPECT_EQ(second.model_version, 1u);

  // Bit-exact against a fresh forward pass: the cached ordering must be
  // exactly the ranking induced by `ScoreList` on the same list.
  const std::vector<float> scores = model_->ScoreList(data_, list);
  std::vector<int> idx(list.items.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return scores[a] > scores[b]; });
  std::vector<int> expected;
  for (int i : idx) expected.push_back(list.items[i]);
  EXPECT_EQ(second.items, expected);
  EXPECT_EQ(second.items, model_->Rerank(data_, list));
}

TEST_F(RouterCacheModelTest, PermutedCandidateListMisses) {
  serve::RouterConfig cfg;
  cfg.cache.enabled = true;
  serve::ServingRouter router(data_, cfg);
  ASSERT_EQ(router.LoadSlot("main", path_), 1u);

  const data::ImpressionList& list = train_.front();
  const serve::RouterResponse first =
      router.Submit({"main", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(first.cache_hit);

  // Same candidates, permuted order (scores move with their items): the
  // order-sensitive fingerprint must treat this as a different request.
  data::ImpressionList permuted = list;
  std::rotate(permuted.items.begin(), permuted.items.begin() + 3,
              permuted.items.end());
  std::rotate(permuted.scores.begin(), permuted.scores.begin() + 3,
              permuted.scores.end());
  const serve::RouterResponse r =
      router.Submit({"main", serve::Lane::kHigh, permuted}).get();
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.items, model_->Rerank(data_, permuted));

  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.inserts, 2u);
}

// ---------------------------------------------------------------------------
// Negative-result caching: degraded answers for rejected requests are
// remembered under the reserved version 0, with their own (short) TTL.

TEST(ResultCacheTest, NegativeEntriesHaveOwnTtlAndCounters) {
  serve::CachePolicy policy = UnitPolicy(8);
  policy.negative_ttl_us = 20'000;  // 20ms.
  serve::ResultCache cache(policy);
  ASSERT_TRUE(cache.NegativeEnabled());

  EXPECT_FALSE(cache.LookupNegative("m", /*fingerprint=*/1).has_value());
  cache.InsertNegative("m", 1, {9, 8, 7});
  const auto hit = cache.LookupNegative("m", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, (std::vector<int>{9, 8, 7}));
  // Negative entries never shadow positive lookups: same fingerprint on a
  // real version is a miss.
  EXPECT_FALSE(cache.Lookup("m", /*version=*/1, 1).has_value());

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(cache.LookupNegative("m", 1).has_value());  // TTL elapsed.

  const serve::CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.negative_inserts, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
}

TEST(ResultCacheTest, PublishSweepKeepsNegativesAnsweredAfterIt) {
  serve::CachePolicy policy = UnitPolicy(8);
  policy.negative_ttl_us = 5'000'000;
  serve::ResultCache cache(policy);
  cache.InsertNegative("m", 1, {9, 8, 7});  // Answered before the publish.
  cache.Sweep("m", /*live_version=*/1);
  cache.InsertNegative("m", 2, {6, 5});  // Answered after it.
  // The sweep runs on the publishing thread and is done when it returns,
  // so it removes the entry answered before it and keeps the one answered
  // after it.
  EXPECT_FALSE(cache.LookupNegative("m", 1).has_value());
  EXPECT_TRUE(cache.LookupNegative("m", 2).has_value());
  EXPECT_EQ(cache.TotalStats().swept, 1u);
}

TEST(ResultCacheTest, NegativeCachingDisabledWithoutTtl) {
  serve::ResultCache cache(UnitPolicy(8));  // negative_ttl_us defaults to 0.
  EXPECT_FALSE(cache.NegativeEnabled());
}

TEST(RouterCacheTest, NegativeCacheRemembersUnknownSlotUntilPublish) {
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.negative_ttl_us = 5'000'000;  // Long enough to never expire here.
  serve::ServingRouter router(data, cfg);

  const data::ImpressionList list = TenItemList();
  // First rejection runs the fallback and remembers the degraded answer.
  const serve::RouterResponse first =
      router.Submit({"ghost", serve::Lane::kHigh, list}).get();
  EXPECT_TRUE(first.degraded);
  EXPECT_FALSE(first.cache_hit);
  // The repeat is answered inline from the negative cache — degraded AND
  // cache_hit, same remembered ordering.
  const serve::RouterResponse second =
      router.Submit({"ghost", serve::Lane::kHigh, list}).get();
  EXPECT_TRUE(second.degraded);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.items, first.items);
  EXPECT_EQ(second.model_version, 0u);

  // Publishing the slot sweeps its negative entries: the request must now
  // reach the model instead of replaying "no such slot".
  router.InstallSlot("ghost", std::make_shared<RotateReranker>(3));
  const serve::RouterResponse served =
      router.Submit({"ghost", serve::Lane::kHigh, list}).get();
  EXPECT_FALSE(served.degraded);
  EXPECT_EQ(served.items, Rotated(list.items, 3));
  EXPECT_EQ(served.model_version, 1u);

  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.cache.negative_inserts, 1u);
  EXPECT_EQ(stats.cache.negative_hits, 1u);
  EXPECT_EQ(stats.unknown_slot, 1u);  // The negative hit did not recount it.
  EXPECT_NE(stats.ToTable().find("cache negative"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"negative_hits\""), std::string::npos);
}

TEST(RouterCacheTest, PublishRetiresUnknownSlotRejectionsBeforeReturning) {
  // A publish returns only after its sweep, so the very next submission
  // reaches the new model with no drain in between — also when the sweep
  // has a full cache of another slot's answers to walk. Repeated over 50
  // fresh slots because a lagging sweep loses this race only most of the
  // time.
  const data::Dataset data;
  serve::RouterConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.negative_ttl_us = 5'000'000;
  serve::ServingRouter router(data, cfg);
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  std::vector<std::future<serve::RouterResponse>> fill;
  for (int user = 0; user < static_cast<int>(cfg.cache.capacity); ++user) {
    fill.push_back(
        router.Submit({"main", serve::Lane::kHigh, TenItemList(user)}));
  }
  for (auto& f : fill) ASSERT_FALSE(f.get().degraded);

  const data::ImpressionList list = TenItemList();
  for (int trial = 0; trial < 50; ++trial) {
    const std::string slot = "ghost-" + std::to_string(trial);
    ASSERT_TRUE(router.Submit({slot, serve::Lane::kHigh, list}).get().degraded);
    const serve::RouterResponse replay =
        router.Submit({slot, serve::Lane::kHigh, list}).get();
    ASSERT_TRUE(replay.degraded && replay.cache_hit);

    router.InstallSlot(slot, std::make_shared<RotateReranker>(3));
    const serve::RouterResponse served =
        router.Submit({slot, serve::Lane::kHigh, list}).get();
    EXPECT_FALSE(served.degraded) << slot;
    EXPECT_EQ(served.items, Rotated(list.items, 3)) << slot;
  }
}

TEST_F(RouterCacheModelTest, NegativeCacheShortCircuitsInvalidIdProbes) {
  serve::RouterConfig cfg;
  cfg.cache.enabled = true;
  cfg.cache.negative_ttl_us = 5'000'000;
  serve::ServingRouter router(data_, cfg);
  ASSERT_EQ(router.LoadSlot("main", path_), 1u);

  data::ImpressionList hostile;
  hostile.user_id = 0;
  for (int i = 0; i < 10; ++i) {
    hostile.items.push_back(1'000'000 + i);  // Outside the dataset.
    hostile.scores.push_back(1.0f);
  }
  const serve::RouterResponse first =
      router.Submit({"main", serve::Lane::kHigh, hostile}).get();
  EXPECT_TRUE(first.degraded);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.items, hostile.items);  // Submitted order.

  // A repeat probe skips the bounds re-check entirely.
  const serve::RouterResponse second =
      router.Submit({"main", serve::Lane::kHigh, hostile}).get();
  EXPECT_TRUE(second.degraded);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.items, hostile.items);

  // Valid traffic on the same slot is untouched by the negative entries.
  const serve::RouterResponse good =
      router.Submit({"main", serve::Lane::kHigh, train_.front()}).get();
  EXPECT_FALSE(good.degraded);

  router.Shutdown();
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.invalid_ids, 1u);  // Counted once, not per probe.
  EXPECT_EQ(stats.cache.negative_hits, 1u);
  EXPECT_EQ(stats.cache.negative_inserts, 1u);
}

}  // namespace
}  // namespace rapid
