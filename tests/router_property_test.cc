// Property suite for the serving router's hot-swap/cache consistency
// (serve/router.h): under an arbitrary interleaving of `InstallSlot`
// swaps and `Submit`s with the result cache enabled, every non-degraded
// response must carry a (version, items) pair where the items are exactly
// what the stamped version computes — fresh or cached, no stale pair
// survives a swap, and versions only ever move forward. The models are
// deterministic rotations keyed by install order, so "what the stamped
// version computes" is checkable bit-for-bit from outside the router.
// A third property drives every exit a request can take out of the router
// and checks the accounting identities that hold whichever exit it takes.
//
// Counterexamples shrink to a minimal op schedule and print a replayable
// seed (see tests/proptest.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/types.h"
#include "proptest.h"
#include "rerank/reranker.h"
#include "serve/router.h"

namespace rapid {
namespace {

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
  if (!out.empty()) {
    std::rotate(out.begin(),
                out.begin() + (shift % static_cast<int>(out.size())),
                out.end());
  }
  return out;
}

data::ImpressionList ListOf(int user, int len) {
  data::ImpressionList list;
  list.user_id = user;
  for (int i = 0; i < len; ++i) {
    list.items.push_back(i);
    list.scores.push_back(1.0f - 0.05f * static_cast<float>(i));
  }
  return list;
}

/// True when `response` is consistent with the version it claims answered
/// it: the items are exactly that version's rotation of the input.
bool ResponseMatchesStampedVersion(
    const serve::RouterResponse& response, const data::ImpressionList& input,
    const std::map<uint64_t, int>& shift_of_version) {
  if (response.degraded) {
    // Degraded answers carry version 0 and never claim a model.
    return response.model_version == 0;
  }
  const auto it = shift_of_version.find(response.model_version);
  if (it == shift_of_version.end()) return false;  // Version never published.
  if (response.model_name != "rotate-" + std::to_string(it->second)) {
    return false;
  }
  return response.items == Rotated(input.items, it->second);
}

// ---------------------------------------------------------------------------
// Sequential schedules: installs and submits in one arbitrary order.

struct RouterOp {
  bool install = false;
  int shift = 0;  // Install: the new model's rotation.
  int user = 0;   // Submit: cache-key ingredients.
  int len = 2;
};

std::vector<RouterOp> RandomRouterOps(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len(1, 40);
  std::uniform_int_distribution<int> kind(0, 4);
  std::uniform_int_distribution<int> shift(0, 9);
  std::uniform_int_distribution<int> user(0, 3);
  std::uniform_int_distribution<int> list_len(2, 10);
  std::vector<RouterOp> ops(static_cast<size_t>(len(rng)));
  for (RouterOp& op : ops) {
    op.install = kind(rng) == 0;  // ~1 install per 4 submits.
    op.shift = shift(rng);
    op.user = user(rng);
    op.len = list_len(rng);
  }
  return ops;
}

std::string DescribeRouterOps(const std::vector<RouterOp>& ops) {
  std::ostringstream os;
  os << ops.size() << " ops [";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) os << ' ';
    if (ops[i].install) {
      os << "install(shift=" << ops[i].shift << ")";
    } else {
      os << "submit(user=" << ops[i].user << ",len=" << ops[i].len << ")";
    }
  }
  os << "]";
  return os.str();
}

TEST(RouterPropertyTest, CachedAndFreshResponsesMatchTheirStampedVersion) {
  const data::Dataset data;
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260826, /*trials=*/25, RandomRouterOps,
      proptest::ShrinkOps<RouterOp>,
      [&data](const std::vector<RouterOp>& ops) {
        serve::RouterConfig config;
        config.num_threads = 2;
        config.cache.enabled = true;
        config.cache.capacity = 256;
        serve::ServingRouter router(data, config);
        std::map<uint64_t, int> shift_of_version;
        // Every pending submit: its input, its future, and whether a model
        // was already published when it was submitted (slot resolution
        // happens at dequeue, so such a request can never degrade; one
        // submitted *before* the first install may legitimately degrade as
        // unknown-slot or be served by a later version — both are valid).
        struct Pending {
          data::ImpressionList input;
          std::future<serve::RouterResponse> future;
          bool slot_published = false;
        };
        std::vector<Pending> pending;
        for (const RouterOp& op : ops) {
          if (op.install) {
            const uint64_t version = router.InstallSlot(
                "main", std::make_shared<RotateReranker>(op.shift));
            if (version == 0) return false;  // Installs must publish.
            if (shift_of_version.count(version) > 0) {
              return false;  // Versions are never reused.
            }
            shift_of_version[version] = op.shift;
            continue;
          }
          serve::RouterRequest request;
          request.slot = "main";
          request.lane = serve::Lane::kHigh;
          request.list = ListOf(op.user, op.len);
          data::ImpressionList input = request.list;
          pending.push_back({std::move(input),
                             router.Submit(std::move(request)),
                             !shift_of_version.empty()});
        }
        for (Pending& p : pending) {
          const serve::RouterResponse response = p.future.get();
          if (p.slot_published && response.degraded) return false;
          if (!ResponseMatchesStampedVersion(response, p.input,
                                             shift_of_version)) {
            return false;
          }
        }
        router.Shutdown();
        return true;
      },
      DescribeRouterOps));
}

// ---------------------------------------------------------------------------
// Concurrent swaps: submissions race installs; no torn or stale response.

struct SwapRace {
  std::vector<int> shifts;  // Versions installed by the swapper thread.
  int submissions = 50;
};

TEST(RouterPropertyTest, NoStaleVersionItemsPairSurvivesConcurrentSwaps) {
  const data::Dataset data;
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260827, /*trials=*/4,
      [](std::mt19937_64& rng) {
        SwapRace race;
        std::uniform_int_distribution<int> installs(4, 10);
        std::uniform_int_distribution<int> shift(0, 9);
        std::uniform_int_distribution<int> submissions(30, 120);
        race.shifts.resize(static_cast<size_t>(installs(rng)));
        for (int& s : race.shifts) s = shift(rng);
        race.submissions = submissions(rng);
        return race;
      },
      [](const SwapRace& race) {
        std::vector<SwapRace> out;
        for (std::vector<int>& shifts : proptest::ShrinkOps(race.shifts)) {
          if (shifts.empty()) continue;  // Keep one published version.
          out.push_back({std::move(shifts), race.submissions});
        }
        if (race.submissions > 1) {
          out.push_back({race.shifts, race.submissions / 2});
        }
        return out;
      },
      [&data](const SwapRace& race) {
        serve::RouterConfig config;
        config.num_threads = 3;
        config.cache.enabled = true;
        config.cache.capacity = 256;
        serve::ServingRouter router(data, config);

        // The version map is append-only and written by the swapper while
        // readers wait on futures; a mutex-free handoff is fine because
        // every read happens after the swapper joined.
        std::map<uint64_t, int> shift_of_version;
        const uint64_t first = router.InstallSlot(
            "main", std::make_shared<RotateReranker>(race.shifts[0]));
        if (first == 0) return false;
        shift_of_version[first] = race.shifts[0];

        std::vector<std::pair<uint64_t, int>> later;
        std::thread swapper([&] {
          for (size_t i = 1; i < race.shifts.size(); ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            const uint64_t version = router.InstallSlot(
                "main", std::make_shared<RotateReranker>(race.shifts[i]));
            later.emplace_back(version, race.shifts[i]);
          }
        });

        std::vector<std::pair<data::ImpressionList,
                              std::future<serve::RouterResponse>>> pending;
        for (int i = 0; i < race.submissions; ++i) {
          serve::RouterRequest request;
          request.slot = "main";
          request.list = ListOf(i % 4, 2 + i % 9);
          data::ImpressionList input = request.list;
          pending.emplace_back(std::move(input),
                               router.Submit(std::move(request)));
        }
        swapper.join();
        uint64_t max_version = first;
        for (const auto& [version, shift] : later) {
          if (version == 0 || version <= max_version) {
            return false;  // Swaps publish strictly increasing versions.
          }
          max_version = version;
          shift_of_version[version] = shift;
        }
        for (auto& [input, future] : pending) {
          const serve::RouterResponse response = future.get();
          if (response.degraded) return false;  // Slot published throughout.
          if (!ResponseMatchesStampedVersion(response, input,
                                             shift_of_version)) {
            return false;
          }
        }
        router.Shutdown();
        return true;
      },
      [](const SwapRace& race) {
        std::ostringstream os;
        os << race.submissions << " submissions racing installs of shifts [";
        for (size_t i = 0; i < race.shifts.size(); ++i) {
          if (i > 0) os << ' ';
          os << race.shifts[i];
        }
        os << "]";
        return os.str();
      }));
}

// ---------------------------------------------------------------------------
// Accounting across every exit: negative-cache replay, invalid ids, cache
// hit, watermark shed, quota shed, deadline miss, unknown slot, model
// answer, and inline serve after Shutdown. Which exit a request takes
// depends on scheduling; the identities checked here hold for all of them.

/// A rotation that stalls per list, so bursts back the queue up into sheds
/// and deadline misses.
class SlowRotateReranker : public RotateReranker {
 public:
  SlowRotateReranker(int shift, int stall_us)
      : RotateReranker(shift), stall_us_(stall_us) {}

  std::vector<int> Rerank(const data::Dataset& data,
                          const data::ImpressionList& list) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    return RotateReranker::Rerank(data, list);
  }

 private:
  const int stall_us_;
};

/// Slot 0 "a" (shift 1, quota 2), slot 1 "b" (shift 2), slot 2 "ghost"
/// (never registered).
const char* const kExitSlots[] = {"a", "b", "ghost"};
constexpr int kCatalogUsers = 4;
constexpr int kCatalogItems = 32;

struct ExitOp {
  bool shutdown = false;  // Shutdown instead of submitting; later ops serve
                          // inline.
  int slot = 0;
  int user = 0;  // With `len` and `invalid`, the whole list: repeats replay.
  int len = 2;
  bool invalid = false;  // The last item lies outside the catalog.
  bool low_lane = false;
  bool wait = false;  // Wait for the reply before the next op.
};

struct ExitSchedule {
  bool block = false;  // kBlock admission (deadline-capped push), else kShed.
  std::vector<ExitOp> ops;
};

data::ImpressionList ExitList(const ExitOp& op) {
  data::ImpressionList list = ListOf(op.user, op.len);
  if (op.invalid) list.items.back() = 1'000'000;
  return list;
}

ExitSchedule RandomExitSchedule(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> num_ops(1, 60);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> die(0, 79);
  std::uniform_int_distribution<int> slot(0, 2);
  std::uniform_int_distribution<int> user(0, kCatalogUsers - 1);
  std::uniform_int_distribution<int> len(1, 5);
  ExitSchedule schedule;
  schedule.block = coin(rng) == 1;
  schedule.ops.resize(static_cast<size_t>(num_ops(rng)));
  for (ExitOp& op : schedule.ops) {
    op.shutdown = die(rng) == 0;
    op.slot = slot(rng);
    op.user = user(rng);
    op.len = len(rng);
    op.invalid = die(rng) < 12;
    op.low_lane = coin(rng) == 1;
    op.wait = die(rng) < 24;
  }
  return schedule;
}

std::string DescribeExitSchedule(const ExitSchedule& schedule) {
  std::ostringstream os;
  os << (schedule.block ? "block" : "shed") << ", " << schedule.ops.size()
     << " ops [";
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const ExitOp& op = schedule.ops[i];
    if (i > 0) os << ' ';
    if (op.shutdown) {
      os << "shutdown";
      continue;
    }
    os << kExitSlots[op.slot] << "(u" << op.user << ",n" << op.len
       << (op.invalid ? ",bad" : "") << (op.low_lane ? ",low" : "")
       << (op.wait ? ",wait" : "") << ")";
  }
  os << "]";
  return os.str();
}

TEST(RouterPropertyTest, EveryExitResolvesOnceAndKeepsTheBooks) {
  data::Dataset data;
  data.users.resize(kCatalogUsers);
  data.items.resize(kCatalogItems);
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20261017, /*trials=*/25, RandomExitSchedule,
      [](const ExitSchedule& schedule) {
        std::vector<ExitSchedule> out;
        for (std::vector<ExitOp>& ops : proptest::ShrinkOps(schedule.ops)) {
          out.push_back({schedule.block, std::move(ops)});
        }
        return out;
      },
      [&data](const ExitSchedule& schedule) {
        serve::RouterConfig config;
        config.num_threads = 1;
        config.max_batch = 4;
        config.max_wait_us = 100;
        config.queue_capacity = 8;
        config.deadline_us = 1'000;
        config.admission.policy = schedule.block
                                      ? serve::AdmissionPolicy::kBlock
                                      : serve::AdmissionPolicy::kShed;
        config.admission.low_lane_watermark = 3;
        config.admission.high_lane_watermark = 6;
        config.admission.slot_quotas = {{"a", 2}};
        config.cache.enabled = true;
        config.cache.capacity = 64;
        config.cache.negative_ttl_us = 60'000'000;
        serve::ServingRouter router(data, config);
        router.InstallSlot("a", std::make_shared<SlowRotateReranker>(1, 300));
        router.InstallSlot("b", std::make_shared<SlowRotateReranker>(2, 300));

        struct Sent {
          const ExitOp* op;
          data::ImpressionList input;
          std::future<serve::RouterResponse> future;
        };
        std::vector<Sent> sent;
        for (const ExitOp& op : schedule.ops) {
          if (op.shutdown) {
            router.Shutdown();
            continue;
          }
          serve::RouterRequest request;
          request.slot = kExitSlots[op.slot];
          request.lane = op.low_lane ? serve::Lane::kLow : serve::Lane::kHigh;
          request.list = ExitList(op);
          data::ImpressionList input = request.list;
          sent.push_back(
              {&op, std::move(input), router.Submit(std::move(request))});
          if (op.wait) sent.back().future.wait();
        }

        uint64_t degraded = 0, shed = 0, slot_replies = 0;
        uint64_t served_hits = 0, degraded_hits = 0;
        for (Sent& s : sent) {
          // Exactly once: a lost request never becomes ready, a dropped
          // promise throws here, and a second set_value would throw
          // inside the router.
          if (s.future.wait_for(std::chrono::seconds(30)) !=
              std::future_status::ready) {
            return false;
          }
          serve::RouterResponse response;
          try {
            response = s.future.get();
          } catch (const std::future_error&) {
            return false;
          }
          const bool registered = s.op->slot != 2;
          if (!registered || s.op->invalid) {
            if (!response.degraded) return false;  // No model may answer.
          } else {
            ++slot_replies;
          }
          if (response.shed && !response.degraded) return false;
          if (response.degraded) {
            ++degraded;
            if (response.items != s.input.items) return false;
            if (response.model_version != 0 || !response.model_name.empty()) {
              return false;
            }
          } else {
            const int shift = s.op->slot + 1;
            if (response.model_version != 1 ||
                response.model_name != "rotate-" + std::to_string(shift) ||
                response.items != Rotated(s.input.items, shift)) {
              return false;
            }
          }
          if (response.shed) ++shed;
          if (response.cache_hit) {
            ++(response.degraded ? degraded_hits : served_hits);
          }
        }

        router.Shutdown();
        const serve::RouterStats stats = router.stats();
        uint64_t slot_requests = 0;
        for (const auto& slot : stats.slots) {
          slot_requests += slot.stats.requests;
        }
        return stats.total.requests == sent.size() &&
               stats.total.fallbacks == degraded && stats.total.shed == shed &&
               slot_requests == slot_replies &&
               stats.cache.hits == served_hits &&
               stats.cache.negative_hits == degraded_hits;
      },
      DescribeExitSchedule));
}

}  // namespace
}  // namespace rapid
