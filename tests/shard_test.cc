// Tests for the scale-out sharding tier: the consistent-hash ring's
// balance/remap/determinism properties, and the ShardRouter end to end
// over real in-process `net::Server` instances — fan-out and reply
// correlation, shard-down degradation and recovery, coordinated rollout
// with canary and rollback, and fleet-wide stats merging. Everything runs
// in one process (threads, not forks) so the whole file is a TSan target.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "net/server.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "serve/stats_merge.h"
#include "shard/ring.h"
#include "shard/shard_router.h"

namespace rapid {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Consistent-hash ring properties.

std::vector<int> AssignUsers(const shard::HashRing& ring, int num_users) {
  std::vector<int> owner(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) owner[static_cast<size_t>(u)] = ring.ShardFor(u);
  return owner;
}

TEST(HashRingTest, EmptyAndSingleShard) {
  shard::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.ShardFor(42), -1);
  EXPECT_FALSE(ring.RemoveShard(0));

  ring.AddShard(7);
  EXPECT_EQ(ring.num_points(), static_cast<size_t>(ring.config().virtual_nodes));
  for (int u = 0; u < 100; ++u) EXPECT_EQ(ring.ShardFor(u), 7);
  // Re-adding is a no-op, not a duplicate set of points.
  ring.AddShard(7);
  EXPECT_EQ(ring.num_points(), static_cast<size_t>(ring.config().virtual_nodes));
}

TEST(HashRingTest, LoadSplitsRoughlyEvenly) {
  constexpr int kShards = 8;
  constexpr int kUsers = 100'000;
  shard::HashRing ring;
  for (int s = 0; s < kShards; ++s) ring.AddShard(s);

  std::vector<int> counts(kShards, 0);
  for (int u = 0; u < kUsers; ++u) {
    const int s = ring.ShardFor(u);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, kShards);
    ++counts[static_cast<size_t>(s)];
  }
  // With 128 virtual nodes the arc-length spread is ~1/sqrt(128) = 9%
  // relative; 0.6x..1.5x of fair share is a loose, stable bound.
  const double fair = static_cast<double>(kUsers) / kShards;
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[static_cast<size_t>(s)], 0.6 * fair) << "shard " << s;
    EXPECT_LT(counts[static_cast<size_t>(s)], 1.5 * fair) << "shard " << s;
  }
}

TEST(HashRingTest, RemovingAShardOnlyRemapsItsOwnKeys) {
  constexpr int kShards = 8;
  constexpr int kUsers = 50'000;
  constexpr int kVictim = 3;
  shard::HashRing ring;
  for (int s = 0; s < kShards; ++s) ring.AddShard(s);
  const std::vector<int> before = AssignUsers(ring, kUsers);

  ASSERT_TRUE(ring.RemoveShard(kVictim));
  const std::vector<int> after = AssignUsers(ring, kUsers);

  int remapped = 0;
  for (int u = 0; u < kUsers; ++u) {
    if (before[static_cast<size_t>(u)] == kVictim) {
      // The victim's keys must land somewhere live.
      EXPECT_NE(after[static_cast<size_t>(u)], kVictim);
      ++remapped;
    } else {
      // The defining consistent-hashing property: keys owned by surviving
      // shards do not move at all.
      EXPECT_EQ(after[static_cast<size_t>(u)], before[static_cast<size_t>(u)])
          << "user " << u << " moved although its shard survived";
    }
  }
  // The victim owned about 1/N of the keyspace.
  EXPECT_LT(remapped, 2 * kUsers / kShards);
  EXPECT_GT(remapped, kUsers / (2 * kShards));
}

TEST(HashRingTest, AddingAShardStealsAboutOneNth) {
  constexpr int kShards = 8;
  constexpr int kUsers = 50'000;
  shard::HashRing ring;
  for (int s = 0; s < kShards; ++s) ring.AddShard(s);
  const std::vector<int> before = AssignUsers(ring, kUsers);

  ring.AddShard(kShards);  // Grow the fleet by one.
  const std::vector<int> after = AssignUsers(ring, kUsers);

  int moved = 0;
  for (int u = 0; u < kUsers; ++u) {
    if (after[static_cast<size_t>(u)] != before[static_cast<size_t>(u)]) {
      // Every moved key moved *to* the new shard, never between old ones.
      EXPECT_EQ(after[static_cast<size_t>(u)], kShards);
      ++moved;
    }
  }
  // The newcomer takes about 1/(N+1) of the keyspace.
  EXPECT_LT(moved, 2 * kUsers / (kShards + 1));
  EXPECT_GT(moved, kUsers / (2 * (kShards + 1)));
}

TEST(HashRingTest, DeterministicUnderSeedAndMembershipOrder) {
  shard::RingConfig cfg;
  cfg.seed = 1234;
  shard::HashRing a(cfg), b(cfg);
  for (int s = 0; s < 5; ++s) a.AddShard(s);
  for (int s = 4; s >= 0; --s) b.AddShard(s);  // Reverse insertion order.
  for (int u = 0; u < 10'000; ++u) {
    ASSERT_EQ(a.ShardFor(u), b.ShardFor(u))
        << "placement depended on insertion order";
  }

  shard::RingConfig other = cfg;
  other.seed = 5678;
  shard::HashRing c(other);
  for (int s = 0; s < 5; ++s) c.AddShard(s);
  int differs = 0;
  for (int u = 0; u < 10'000; ++u) {
    if (a.ShardFor(u) != c.ShardFor(u)) ++differs;
  }
  // A different seed is a different ring: most keys land elsewhere
  // (4/5 expected for 5 shards).
  EXPECT_GT(differs, 5'000);
}

// ---------------------------------------------------------------------------
// ShardRouter over real in-process servers.

/// Deterministic stand-in model (mirrors net_server_test): rotates the
/// list left by `shift` so each shard's answers are recognizable.
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

data::ImpressionList TenItemList(int user_id) {
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

net::WireRequest MakeRequest(const std::string& slot, int user_id) {
  net::WireRequest request;
  request.slot = slot;
  request.lane = serve::Lane::kHigh;
  request.list = TenItemList(user_id);
  return request;
}

template <typename Pred>
bool EventuallyTrue(Pred pred, std::chrono::milliseconds budget = 3s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// A tiny in-process fleet: N servers, each over its own ServingRouter,
/// each slot "main" answering with a shard-identifying rotation.
class ShardFleet {
 public:
  explicit ShardFleet(int num_shards, net::ServerConfig server_cfg = {}) {
    for (int s = 0; s < num_shards; ++s) {
      routers_.push_back(std::make_unique<serve::ServingRouter>(
          data_, serve::RouterConfig{}));
      routers_.back()->InstallSlot(
          "main", std::make_shared<RotateReranker>(s + 1));
      servers_.push_back(
          std::make_unique<net::Server>(*routers_.back(), server_cfg));
      EXPECT_TRUE(servers_.back()->Start());
      endpoints_.push_back({"127.0.0.1", servers_.back()->port()});
    }
  }

  std::vector<shard::ShardEndpoint> endpoints() const { return endpoints_; }
  net::Server& server(int s) { return *servers_[static_cast<size_t>(s)]; }
  serve::ServingRouter& router(int s) {
    return *routers_[static_cast<size_t>(s)];
  }

  /// Stops shard `s`'s server; `Restart` brings a fresh one up on the
  /// *same* port (SO_REUSEADDR) with `cfg`, like a process bounce.
  void Stop(int s) { servers_[static_cast<size_t>(s)]->Stop(); }
  bool Restart(int s, net::ServerConfig cfg = {}) {
    cfg.port = endpoints_[static_cast<size_t>(s)].port;
    servers_[static_cast<size_t>(s)] =
        std::make_unique<net::Server>(*routers_[static_cast<size_t>(s)], cfg);
    return servers_[static_cast<size_t>(s)]->Start();
  }

 private:
  data::Dataset data_;
  std::vector<std::unique_ptr<serve::ServingRouter>> routers_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::vector<shard::ShardEndpoint> endpoints_;
};

shard::ShardRouterConfig FastConfig() {
  shard::ShardRouterConfig cfg;
  cfg.request_timeout_ms = 3000;
  cfg.backoff_initial_ms = 5;
  cfg.backoff_max_ms = 50;
  cfg.poll_slice_ms = 10;
  cfg.admin_timeout_ms = 5000;
  return cfg;
}

TEST(ShardRouterTest, FanOutRoutesByRingAndCorrelatesReplies) {
  ShardFleet fleet(2);
  shard::ShardRouter router(fleet.endpoints(), FastConfig());
  ASSERT_TRUE(router.Start());
  ASSERT_TRUE(router.ShardHealthy(0));
  ASSERT_TRUE(router.ShardHealthy(1));

  // Pipeline the whole batch before reading any reply: correlation has to
  // work with many requests in flight per shard.
  constexpr int kUsers = 64;
  std::vector<std::future<shard::ShardReply>> futures;
  futures.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    futures.push_back(router.Submit(MakeRequest("main", u)));
  }

  int per_shard[2] = {0, 0};
  for (int u = 0; u < kUsers; ++u) {
    shard::ShardReply reply = futures[static_cast<size_t>(u)].get();
    ASSERT_TRUE(reply.ok) << "user " << u << ": " << reply.error;
    const int expect_shard = router.ShardFor(u);
    EXPECT_EQ(reply.shard, expect_shard);
    // The answer proves which shard served it: shard s rotates by s+1.
    EXPECT_EQ(reply.response.items,
              Rotated(TenItemList(u).items, expect_shard + 1))
        << "user " << u << " was served by the wrong shard";
    ++per_shard[expect_shard];
  }
  // The ring actually spread the users (not all on one shard).
  EXPECT_GT(per_shard[0], 0);
  EXPECT_GT(per_shard[1], 0);

  // Fleet stats: both shards scraped, requests sum across the fleet.
  shard::FleetStats stats = router.Stats();
  EXPECT_EQ(stats.shards_up, 2);
  EXPECT_EQ(stats.merged.total.requests, static_cast<uint64_t>(kUsers));
  EXPECT_EQ(stats.shards[0].ok + stats.shards[1].ok,
            static_cast<uint64_t>(kUsers));
  ASSERT_EQ(stats.merged.slots.size(), 1u);
  EXPECT_EQ(stats.merged.slots[0].slot, "main");
  EXPECT_EQ(stats.merged.slots[0].stats.requests,
            static_cast<uint64_t>(kUsers));
  // The fleet readout renders end to end.
  EXPECT_NE(stats.ToTable().find("shards up"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"shards_up\":2"), std::string::npos);
}

TEST(ShardRouterTest, ErrorFramesSurfaceInsteadOfHanging) {
  ShardFleet fleet(2);
  shard::ShardRouter router(fleet.endpoints(), FastConfig());
  ASSERT_TRUE(router.Start());

  // An oversized list violates the server's codec limits, so the server
  // answers with an error frame; the future must resolve with it.
  net::WireRequest bad = MakeRequest("main", 0);
  bad.list.items.assign(100'000, 1);
  bad.list.scores.assign(100'000, 1.0f);
  shard::ShardReply reply = router.Call(std::move(bad));
  EXPECT_FALSE(reply.ok);
  EXPECT_FALSE(reply.error.empty());
}

TEST(ShardRouterTest, DownShardFastFailsOthersKeepServingThenRecovers) {
  ShardFleet fleet(2);
  shard::ShardRouter router(fleet.endpoints(), FastConfig());
  ASSERT_TRUE(router.Start());

  // Pick one user per shard so both paths are exercised by name.
  int user_on[2] = {-1, -1};
  for (int u = 0; user_on[0] < 0 || user_on[1] < 0; ++u) {
    const int s = router.ShardFor(u);
    if (user_on[s] < 0) user_on[s] = u;
  }

  fleet.Stop(1);
  // The receiver notices the dead connection (EOF) and marks the shard
  // down; until then a request may fail via "connection lost" instead of
  // the fast path — both are ok=false, never a hang.
  ASSERT_TRUE(EventuallyTrue([&] { return !router.ShardHealthy(1); }));

  shard::ShardReply down = router.Call(MakeRequest("main", user_on[1]));
  EXPECT_FALSE(down.ok);
  EXPECT_EQ(down.shard, 1);
  EXPECT_FALSE(down.error.empty());

  // The healthy shard is completely unaffected.
  shard::ShardReply up = router.Call(MakeRequest("main", user_on[0]));
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.response.items, Rotated(TenItemList(user_on[0]).items, 1));

  // Bounce the shard: the receiver's backoff redial finds the new server
  // on the same port and traffic resumes with no router restart.
  ASSERT_TRUE(fleet.Restart(1));
  ASSERT_TRUE(EventuallyTrue([&] { return router.ShardHealthy(1); }));
  shard::ShardReply back = router.Call(MakeRequest("main", user_on[1]));
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.response.items, Rotated(TenItemList(user_on[1]).items, 2));

  const shard::FleetStats stats = router.Stats();
  EXPECT_GE(stats.shards[1].failed, 1u);
  EXPECT_GE(stats.shards[1].reconnects, 1u);
  EXPECT_TRUE(stats.shards[1].healthy);
}

// ---------------------------------------------------------------------------
// Coordinated rollout over real snapshots.

class ShardRolloutTest : public ::testing::Test {
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
    path_a_ = TrainAndSnapshot(8, 1, "shard_roll_a.rsnp");
    path_b_ = TrainAndSnapshot(12, 2, "shard_roll_b.rsnp");
  }

  std::string TrainAndSnapshot(int hidden, uint64_t seed,
                               const std::string& file) {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = hidden;
    core::RapidReranker model(cfg);
    model.Fit(data_, train_, seed);
    // One file per process: ctest runs the fixture's tests in parallel.
    const std::string path = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) + "_" + file;
    EXPECT_TRUE(serve::Snapshot::Save(path, model, data_));
    return path;
  }

  /// N servers over the fixture dataset with remote load enabled (or not,
  /// per shard) and no slot installed yet — rollouts do the installing.
  struct Fleet {
    std::vector<std::unique_ptr<serve::ServingRouter>> routers;
    std::vector<std::unique_ptr<net::Server>> servers;
    std::vector<shard::ShardEndpoint> endpoints;
  };
  Fleet MakeFleet(const std::vector<bool>& remote_load_enabled) {
    Fleet fleet;
    for (bool enabled : remote_load_enabled) {
      fleet.routers.push_back(std::make_unique<serve::ServingRouter>(
          data_, serve::RouterConfig{}));
      net::ServerConfig cfg;
      cfg.enable_remote_load = enabled;
      fleet.servers.push_back(
          std::make_unique<net::Server>(*fleet.routers.back(), cfg));
      EXPECT_TRUE(fleet.servers.back()->Start());
      fleet.endpoints.push_back({"127.0.0.1", fleet.servers.back()->port()});
    }
    return fleet;
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
  std::string path_a_;
  std::string path_b_;
};

TEST_F(ShardRolloutTest, CanaryFirstThenFleetWideCommit) {
  Fleet fleet = MakeFleet({true, true});
  shard::ShardRouter router(fleet.endpoints, FastConfig());
  ASSERT_TRUE(router.Start());

  shard::RolloutResult result = router.Rollout("main", path_a_);
  ASSERT_EQ(result.status, shard::RolloutStatus::kCommitted) << result.detail;
  EXPECT_EQ(result.canary_shard, 0);
  ASSERT_EQ(result.versions.size(), 2u);
  EXPECT_EQ(result.versions[0], 1u);
  EXPECT_EQ(result.versions[1], 1u);
  // Both routers really serve the snapshot (checked in-process).
  EXPECT_EQ(fleet.routers[0]->stats().slots.size(), 1u);
  EXPECT_EQ(fleet.routers[1]->stats().slots.size(), 1u);

  // A second rollout advances every shard's version.
  result = router.Rollout("main", path_b_);
  ASSERT_EQ(result.status, shard::RolloutStatus::kCommitted) << result.detail;
  EXPECT_EQ(result.versions[0], 2u);
  EXPECT_EQ(result.versions[1], 2u);
}

TEST_F(ShardRolloutTest, CanaryRejectionLeavesFleetUntouched) {
  Fleet fleet = MakeFleet({true, true});
  shard::ShardRouter router(fleet.endpoints, FastConfig());
  ASSERT_TRUE(router.Start());
  ASSERT_EQ(router.Rollout("main", path_a_).status,
            shard::RolloutStatus::kCommitted);

  // A path that does not exist fails the canary's LoadSlot; the follower
  // must never even be asked.
  const shard::RolloutResult result =
      router.Rollout("main", path_a_ + ".does-not-exist");
  EXPECT_EQ(result.status, shard::RolloutStatus::kCanaryRejected);
  EXPECT_EQ(result.canary_shard, 0);
  EXPECT_EQ(result.versions[0], 0u);
  EXPECT_EQ(result.versions[1], 0u);
  // Both shards still serve version 1 of snapshot A.
  for (int s = 0; s < 2; ++s) {
    const serve::RouterStats stats = fleet.routers[static_cast<size_t>(s)]->stats();
    ASSERT_EQ(stats.slots.size(), 1u);
    EXPECT_EQ(stats.slots[0].version, 1u) << "shard " << s;
  }
}

TEST_F(ShardRolloutTest, FollowerRefusalRollsTheCanaryBack) {
  // Both shards accept the first rollout; then shard 1 is bounced into a
  // config that refuses remote loads, so the next rollout publishes on the
  // canary, fails on the follower, and must roll the canary back.
  Fleet fleet = MakeFleet({true, true});
  shard::ShardRouter router(fleet.endpoints, FastConfig());
  ASSERT_TRUE(router.Start());
  ASSERT_EQ(router.Rollout("main", path_a_).status,
            shard::RolloutStatus::kCommitted);

  fleet.servers[1]->Stop();
  net::ServerConfig refusing;
  refusing.enable_remote_load = false;
  refusing.port = fleet.endpoints[1].port;
  fleet.servers[1] =
      std::make_unique<net::Server>(*fleet.routers[1], refusing);
  ASSERT_TRUE(fleet.servers[1]->Start());

  const shard::RolloutResult result = router.Rollout("main", path_b_);
  ASSERT_EQ(result.status, shard::RolloutStatus::kRolledBack) << result.detail;
  EXPECT_EQ(result.versions[0], 0u);  // Rolled back, not serving B.
  EXPECT_EQ(result.versions[1], 0u);  // Never accepted B.
  EXPECT_NE(result.detail.find("rolled back"), std::string::npos);

  // The canary is back on snapshot A — as a *new* version (LoadSlot
  // re-publish), so its model is A's while the follower never moved.
  const serve::RouterStats canary = fleet.routers[0]->stats();
  ASSERT_EQ(canary.slots.size(), 1u);
  EXPECT_EQ(canary.slots[0].version, 3u);  // A=1, B=2, A-again=3.
  const serve::RouterStats follower = fleet.routers[1]->stats();
  ASSERT_EQ(follower.slots.size(), 1u);
  EXPECT_EQ(follower.slots[0].version, 1u);
}

TEST_F(ShardRolloutTest, NoPreviousCommitMeansRollbackFailedIsReported) {
  // Shard 1 refuses remote loads from the start: the very first rollout
  // publishes on the canary, fails on the follower, and has nothing to
  // roll back to — the honest answer is kRollbackFailed, fleet mixed.
  Fleet fleet = MakeFleet({true, false});
  shard::ShardRouter router(fleet.endpoints, FastConfig());
  ASSERT_TRUE(router.Start());

  const shard::RolloutResult result = router.Rollout("main", path_a_);
  EXPECT_EQ(result.status, shard::RolloutStatus::kRollbackFailed);
  EXPECT_NE(result.detail.find("no previous committed snapshot"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Stats merge unit coverage (pure, no sockets).

TEST(StatsMergeTest, CountersSumMaximaMaxPercentilesWeight) {
  serve::RouterStats a, b;
  a.total.requests = 100;
  a.total.p99_us = 1000.0;
  a.total.max_us = 5000;
  a.total.shed = 3;
  b.total.requests = 300;
  b.total.p99_us = 2000.0;
  b.total.max_us = 4000;
  b.total.shed = 7;
  a.unknown_slot = 2;
  b.unknown_slot = 5;
  a.quota_shed = 1;
  b.quota_shed = 4;
  a.cache.hits = 10;
  b.cache.hits = 20;
  a.cache.negative_hits = 1;
  b.cache.negative_hits = 2;

  serve::RouterStats::SlotEntry slot_a;
  slot_a.slot = "main";
  slot_a.model_name = "old";
  slot_a.version = 1;
  slot_a.stats.requests = 100;
  a.slots.push_back(slot_a);
  serve::RouterStats::SlotEntry slot_b = slot_a;
  slot_b.model_name = "new";
  slot_b.version = 2;  // Mid-rollout skew: the merged entry keeps v2.
  slot_b.stats.requests = 300;
  b.slots.push_back(slot_b);
  serve::RouterStats::SlotEntry only_b;
  only_b.slot = "beta";
  only_b.version = 1;
  b.slots.push_back(only_b);

  serve::RouterStats merged;
  serve::MergeInto(&merged, a);
  serve::MergeInto(&merged, b);

  EXPECT_EQ(merged.total.requests, 400u);
  // Request-weighted: (100*1000 + 300*2000) / 400 = 1750.
  EXPECT_NEAR(merged.total.p99_us, 1750.0, 1e-9);
  EXPECT_EQ(merged.total.max_us, 5000u);
  EXPECT_EQ(merged.total.shed, 10u);
  EXPECT_EQ(merged.unknown_slot, 7u);
  EXPECT_EQ(merged.quota_shed, 5u);
  EXPECT_EQ(merged.cache.hits, 30u);
  EXPECT_EQ(merged.cache.negative_hits, 3u);

  ASSERT_EQ(merged.slots.size(), 2u);  // "beta" < "main", sorted.
  EXPECT_EQ(merged.slots[0].slot, "beta");
  EXPECT_EQ(merged.slots[1].slot, "main");
  EXPECT_EQ(merged.slots[1].version, 2u);
  EXPECT_EQ(merged.slots[1].model_name, "new");
  EXPECT_EQ(merged.slots[1].stats.requests, 400u);
}

TEST(StatsMergeTest, HistogramsSumAndPercentilesAreExactNotWeighted) {
  // Shard A: 90 fast requests (~100us). Shard B: 10 slow ones (~5ms).
  // The fleet p99 lives in B's bucket; a request-weighted average of the
  // per-shard p99 points would land nowhere near it.
  const int fast_bin = serve::ServingStats::LatencyBucketIndex(100);
  const int slow_bin = serve::ServingStats::LatencyBucketIndex(5000);
  ASSERT_NE(fast_bin, slow_bin);

  serve::ServingStats a, b;
  a.requests = 90;
  a.latency_hist[fast_bin] = 90;
  a.p50_us = a.p95_us = a.p99_us = 111.0;  // Stale points, must be ignored.
  b.requests = 10;
  b.latency_hist[slow_bin] = 10;
  b.p50_us = b.p95_us = b.p99_us = 5555.0;

  serve::ServingStats merged;
  serve::MergeInto(&merged, a);
  serve::MergeInto(&merged, b);

  EXPECT_EQ(merged.requests, 100u);
  EXPECT_EQ(merged.latency_hist[fast_bin], 90u);
  EXPECT_EQ(merged.latency_hist[slow_bin], 10u);
  // Rank 49 of 100 sits in the fast bucket; ranks 94 and 99 in the slow
  // one. Exact recompute returns bucket lower bounds, not 111/5555 blends.
  const double fast_us = serve::ServingStats::LatencyBucketValue(fast_bin);
  const double slow_us = serve::ServingStats::LatencyBucketValue(slow_bin);
  EXPECT_DOUBLE_EQ(merged.p50_us, fast_us);
  EXPECT_DOUBLE_EQ(merged.p95_us, slow_us);
  EXPECT_DOUBLE_EQ(merged.p99_us, slow_us);
  // The weighted average of the stale points (0.9*111 + 0.1*5555 = 655.4)
  // must NOT survive anywhere.
  EXPECT_GT(merged.p99_us, 1000.0);
}

TEST(StatsMergeTest, OnlineCountersSumVersionsMaxAndPresencePropagates) {
  serve::RouterStats a, b, c;
  a.has_online = true;
  a.online.feedback_appended = 10;
  a.online.feedback_dropped = 1;
  a.online.feedback_drained = 9;
  a.online.train_rounds = 3;
  a.online.trained_lists = 9;
  a.online.publishes = 2;
  a.online.publish_rejected = 1;
  a.online.publish_skipped = 0;
  a.online.last_published_version = 7;
  b.has_online = true;
  b.online.feedback_appended = 5;
  b.online.publish_skipped = 2;
  b.online.last_published_version = 4;
  // c has no online loop; merging it must not clear the flag.

  serve::RouterStats merged;
  serve::MergeInto(&merged, a);
  serve::MergeInto(&merged, b);
  serve::MergeInto(&merged, c);

  EXPECT_TRUE(merged.has_online);
  EXPECT_EQ(merged.online.feedback_appended, 15u);
  EXPECT_EQ(merged.online.feedback_dropped, 1u);
  EXPECT_EQ(merged.online.feedback_drained, 9u);
  EXPECT_EQ(merged.online.train_rounds, 3u);
  EXPECT_EQ(merged.online.trained_lists, 9u);
  EXPECT_EQ(merged.online.publishes, 2u);
  EXPECT_EQ(merged.online.publish_rejected, 1u);
  EXPECT_EQ(merged.online.publish_skipped, 2u);
  EXPECT_EQ(merged.online.last_published_version, 7u);

  serve::RouterStats none;
  serve::MergeInto(&none, c);
  EXPECT_FALSE(none.has_online);
}

TEST(StatsMergeTest, EmptyFleetMergeStaysZeroWithoutNaN) {
  // A coordinator scraping zero shards (or shards that served nothing)
  // must render a well-formed all-zero view: the weighted-percentile
  // fallback divides by total requests, and an empty merge must not turn
  // that into NaN or garbage.
  serve::RouterStats merged;
  serve::MergeInto(&merged, serve::RouterStats{});
  serve::MergeInto(&merged, serve::RouterStats{});

  EXPECT_EQ(merged.total.requests, 0u);
  EXPECT_EQ(merged.total.p50_us, 0.0);
  EXPECT_EQ(merged.total.p95_us, 0.0);
  EXPECT_EQ(merged.total.p99_us, 0.0);
  EXPECT_EQ(merged.total.mean_us, 0.0);
  EXPECT_EQ(merged.total.max_us, 0u);
  EXPECT_FALSE(merged.total.HasLatencyHist());
  EXPECT_TRUE(merged.slots.empty());
  EXPECT_FALSE(merged.has_net);
  EXPECT_FALSE(merged.has_online);
  // The empty view still renders through both formatters.
  EXPECT_FALSE(merged.ToTable().empty());
  EXPECT_NE(merged.ToJson().find("\"total\""), std::string::npos);
}

TEST(StatsMergeTest, AllHistogramLessPeersUseExactWeightedFallback) {
  // Peers that predate histogram transport report percentile points with
  // all-zero histograms; the merge must fall back to the request-weighted
  // average — and that fallback math must be exact, for every percentile
  // and for the mean.
  serve::ServingStats a, b;
  a.requests = 100;
  a.p50_us = 100.0;
  a.p95_us = 200.0;
  a.p99_us = 300.0;
  a.mean_us = 120.0;
  b.requests = 300;
  b.p50_us = 200.0;
  b.p95_us = 400.0;
  b.p99_us = 700.0;
  b.mean_us = 240.0;

  serve::ServingStats merged;
  serve::MergeInto(&merged, a);
  serve::MergeInto(&merged, b);

  EXPECT_EQ(merged.requests, 400u);
  EXPECT_FALSE(merged.HasLatencyHist());
  EXPECT_NEAR(merged.p50_us, (100.0 * 100 + 200.0 * 300) / 400, 1e-9);
  EXPECT_NEAR(merged.p95_us, (200.0 * 100 + 400.0 * 300) / 400, 1e-9);
  EXPECT_NEAR(merged.p99_us, (300.0 * 100 + 700.0 * 300) / 400, 1e-9);
  EXPECT_NEAR(merged.mean_us, (120.0 * 100 + 240.0 * 300) / 400, 1e-9);

  // Merging a zero-request peer into the fallback view changes nothing.
  serve::MergeInto(&merged, serve::ServingStats{});
  EXPECT_NEAR(merged.p99_us, (300.0 * 100 + 700.0 * 300) / 400, 1e-9);
}

TEST(StatsMergeTest, MixedHistogramAndHistogramLessPeersPinTheRecompute) {
  // One modern peer (with a histogram) plus one legacy peer (points
  // only): the documented behavior is that any histogram sample wins —
  // percentiles recompute from the merged histogram and the legacy
  // percentile points are ignored, while request counts and mean still
  // include the legacy side. Pinned so a refactor that silently blends
  // the two regimes fails loudly.
  const int bin = serve::ServingStats::LatencyBucketIndex(800);
  serve::ServingStats modern, legacy;
  modern.requests = 50;
  modern.latency_hist[bin] = 50;
  modern.mean_us = 800.0;
  legacy.requests = 150;
  legacy.p50_us = legacy.p95_us = legacy.p99_us = 9999.0;
  legacy.mean_us = 100.0;

  // Either merge order lands in the same regime: the histogram survives.
  const double bucket_us = serve::ServingStats::LatencyBucketValue(bin);
  {
    serve::ServingStats merged = modern;
    serve::MergeInto(&merged, legacy);
    EXPECT_EQ(merged.requests, 200u);
    EXPECT_TRUE(merged.HasLatencyHist());
    EXPECT_DOUBLE_EQ(merged.p50_us, bucket_us);
    EXPECT_DOUBLE_EQ(merged.p99_us, bucket_us);
    EXPECT_NEAR(merged.mean_us, (800.0 * 50 + 100.0 * 150) / 200, 1e-9);
  }
  {
    serve::ServingStats merged = legacy;
    serve::MergeInto(&merged, modern);
    EXPECT_EQ(merged.requests, 200u);
    EXPECT_TRUE(merged.HasLatencyHist());
    EXPECT_DOUBLE_EQ(merged.p50_us, bucket_us);
    EXPECT_DOUBLE_EQ(merged.p99_us, bucket_us);
    EXPECT_NEAR(merged.mean_us, (100.0 * 150 + 800.0 * 50) / 200, 1e-9);
  }
}

}  // namespace
}  // namespace rapid
