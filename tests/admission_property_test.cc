// Property suite for admission control and the two-lane bounded queue
// (serve/admission.h, serve/request_queue.h): the ROADMAP invariant is
// that the shed path never starves the low lane. Concretely, under an
// arbitrary interleaving of pushes and pops,
//
//   - the drain never bypasses waiting low-lane work more than
//     `bursts_per_yield` times in a row;
//   - each lane stays FIFO and no item is lost or duplicated;
//   - `Admit` is monotone in queue depth, the high lane never sheds
//     before the low lane, and `kBlock` never sheds at all;
//   - slot-quota charges never push a slot's queued depth past its limit,
//     and unquota'd slots are never refused;
//   - end-to-end, a shedding router resolves every submitted future.
//
// Counterexamples shrink to a minimal schedule and print a replayable
// seed (see tests/proptest.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/types.h"
#include "proptest.h"
#include "rerank/reranker.h"
#include "serve/admission.h"
#include "serve/request_queue.h"
#include "serve/router.h"

namespace rapid {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Queue drain: the starvation bound itself.

/// One queue schedule: an op string over {push-high, push-low, pop} plus
/// the configured burst allowance.
struct QueueSchedule {
  std::vector<int> ops;  // 0 = push high, 1 = push low, 2 = pop.
  int bursts = 4;
};

QueueSchedule RandomQueueSchedule(std::mt19937_64& rng) {
  QueueSchedule schedule;
  std::uniform_int_distribution<int> len(1, 160);
  std::uniform_int_distribution<int> op(0, 2);
  std::uniform_int_distribution<int> bursts(1, 6);
  schedule.ops.resize(static_cast<size_t>(len(rng)));
  for (int& o : schedule.ops) o = op(rng);
  schedule.bursts = bursts(rng);
  return schedule;
}

std::vector<QueueSchedule> ShrinkQueueSchedule(const QueueSchedule& schedule) {
  std::vector<QueueSchedule> out;
  for (std::vector<int>& ops : proptest::ShrinkOps(schedule.ops)) {
    out.push_back({std::move(ops), schedule.bursts});
  }
  if (schedule.bursts > 1) out.push_back({schedule.ops, 1});
  return out;
}

std::string DescribeQueueSchedule(const QueueSchedule& schedule) {
  std::ostringstream os;
  os << "bursts=" << schedule.bursts << " ops(H/L/pop)=[";
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    os << "HLP"[schedule.ops[i]];
  }
  os << "]";
  return os.str();
}

/// Replays the schedule against a real queue while tracking a model of
/// both lanes. Values encode (sequence, lane) so FIFO violations, losses,
/// and duplications are all distinguishable.
bool CheckQueueDrain(const QueueSchedule& schedule) {
  serve::BoundedRequestQueue<int> queue(schedule.ops.size() + 1,
                                        schedule.bursts);
  std::deque<int> expected[2];
  int next = 0;
  int bypass_streak = 0;
  size_t queued = 0;

  auto pop_one = [&]() {
    const bool low_waiting = queue.lane_size(1) > 0;
    std::vector<int> got;
    if (queue.PopBatch(1, 0us, &got) != 1) return false;
    const int lane = got[0] % 2;
    if (expected[lane].empty() || expected[lane].front() != got[0]) {
      return false;  // Lost, duplicated, or out of FIFO order.
    }
    expected[lane].pop_front();
    --queued;
    if (lane == 0 && low_waiting) {
      // The starvation bound: at most `bursts` consecutive high pops may
      // bypass waiting low work before a low item is served.
      if (++bypass_streak > schedule.bursts) return false;
    } else {
      bypass_streak = 0;
    }
    return true;
  };

  for (int op : schedule.ops) {
    if (op == 2) {
      if (queued == 0) continue;  // A blocking pop would hang; skip.
      if (!pop_one()) return false;
      continue;
    }
    const int value = next * 2 + op;
    ++next;
    if (queue.TryPush(int{value}, static_cast<size_t>(op)) !=
        serve::BoundedRequestQueue<int>::PushResult::kOk) {
      return false;  // Capacity covers every push; kFull is a bug.
    }
    expected[op].push_back(value);
    ++queued;
  }
  while (queued > 0) {
    if (!pop_one()) return false;
  }
  return expected[0].empty() && expected[1].empty();
}

TEST(AdmissionPropertyTest, DrainNeverStarvesTheLowLane) {
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260822, /*trials=*/80, RandomQueueSchedule,
      ShrinkQueueSchedule, CheckQueueDrain, DescribeQueueSchedule));
}

// ---------------------------------------------------------------------------
// Admit: watermark ordering and monotonicity.

struct AdmitCase {
  int capacity = 1;
  int low_watermark = 0;
  int high_watermark = 0;
};

TEST(AdmissionPropertyTest, AdmitIsMonotoneAndHighLaneShedsLast) {
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260823, /*trials=*/200,
      [](std::mt19937_64& rng) {
        std::uniform_int_distribution<int> capacity(1, 64);
        AdmitCase c;
        c.capacity = capacity(rng);
        std::uniform_int_distribution<int> mark(0, c.capacity + 16);
        c.low_watermark = mark(rng);
        c.high_watermark = mark(rng);
        return c;
      },
      [](const AdmitCase& c) {
        std::vector<AdmitCase> out;
        if (c.low_watermark > 0) out.push_back({c.capacity, 0, c.high_watermark});
        if (c.high_watermark > 0) out.push_back({c.capacity, c.low_watermark, 0});
        return out;
      },
      [](const AdmitCase& c) {
        serve::AdmissionConfig config;
        config.policy = serve::AdmissionPolicy::kShed;
        config.low_lane_watermark = c.low_watermark;
        config.high_lane_watermark = c.high_watermark;
        serve::AdmissionController shed(config, c.capacity);
        config.policy = serve::AdmissionPolicy::kBlock;
        serve::AdmissionController block(config, c.capacity);

        // Resolved watermarks: positive, capped by capacity, ordered.
        const size_t low = shed.watermark(serve::Lane::kLow);
        const size_t high = shed.watermark(serve::Lane::kHigh);
        if (low < 1 || high < low ||
            high > static_cast<size_t>(c.capacity)) {
          return false;
        }
        bool low_admitted = true;
        bool high_admitted = true;
        for (size_t depth = 0;
             depth <= static_cast<size_t>(c.capacity) + 4; ++depth) {
          const bool admit_low = shed.Admit(serve::Lane::kLow, depth);
          const bool admit_high = shed.Admit(serve::Lane::kHigh, depth);
          // Once a lane sheds at some depth it sheds at every deeper one.
          if (admit_low && !low_admitted) return false;
          if (admit_high && !high_admitted) return false;
          low_admitted = admit_low;
          high_admitted = admit_high;
          // The high lane never sheds while the low lane still admits.
          if (admit_low && !admit_high) return false;
          // Blocking backpressure never sheds.
          if (!block.Admit(serve::Lane::kLow, depth) ||
              !block.Admit(serve::Lane::kHigh, depth)) {
            return false;
          }
        }
        return true;
      },
      [](const AdmitCase& c) {
        std::ostringstream os;
        os << "capacity=" << c.capacity << " low_wm=" << c.low_watermark
           << " high_wm=" << c.high_watermark;
        return os.str();
      }));
}

// ---------------------------------------------------------------------------
// Slot quotas: the charged depth never exceeds the limit.

struct QuotaSchedule {
  int limit = 1;              // Configured quota (clamped to >= 1).
  std::vector<int> ops;       // 0 = charge quota'd, 1 = release quota'd,
                              // 2 = charge unquota'd slot.
};

TEST(AdmissionPropertyTest, QuotaChargesNeverExceedTheLimit) {
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260824, /*trials=*/120,
      [](std::mt19937_64& rng) {
        QuotaSchedule schedule;
        std::uniform_int_distribution<int> limit(-1, 4);
        std::uniform_int_distribution<int> len(1, 80);
        std::uniform_int_distribution<int> op(0, 2);
        schedule.limit = limit(rng);
        schedule.ops.resize(static_cast<size_t>(len(rng)));
        for (int& o : schedule.ops) o = op(rng);
        return schedule;
      },
      [](const QuotaSchedule& schedule) {
        std::vector<QuotaSchedule> out;
        for (std::vector<int>& ops : proptest::ShrinkOps(schedule.ops)) {
          out.push_back({schedule.limit, std::move(ops)});
        }
        return out;
      },
      [](const QuotaSchedule& schedule) {
        serve::AdmissionConfig config;
        config.slot_quotas.emplace_back("tenant", schedule.limit);
        serve::AdmissionController admission(config, 64);
        const int limit = std::max(schedule.limit, 1);  // Documented clamp.
        int depth = 0;
        for (int op : schedule.ops) {
          if (op == 0) {
            const bool charged = admission.TryChargeSlot("tenant");
            if (charged != (depth < limit)) return false;
            if (charged) ++depth;
          } else if (op == 1) {
            if (depth == 0) continue;  // Releases must balance charges.
            admission.ReleaseSlot("tenant");
            --depth;
          } else if (!admission.TryChargeSlot("free")) {
            return false;  // Slots without a quota always admit.
          }
          if (admission.SlotDepth("tenant") != depth) return false;
          if (admission.SlotDepth("free") != 0) return false;
        }
        return true;
      },
      [](const QuotaSchedule& schedule) {
        std::ostringstream os;
        os << "limit=" << schedule.limit << " ops(C/R/F)=[";
        for (int op : schedule.ops) os << "CRF"[op];
        os << "]";
        return os.str();
      }));
}

// ---------------------------------------------------------------------------
// End to end: a shedding router loses no submission.

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

struct RouterLoad {
  int low_watermark = 0;
  int high_watermark = 0;
  std::vector<int> lanes;  // 0 = high, 1 = low, one entry per request.
};

TEST(AdmissionPropertyTest, SheddingRouterResolvesEverySubmission) {
  const data::Dataset data;
  EXPECT_TRUE(proptest::ForAll(
      /*seed=*/20260825, /*trials=*/6,
      [](std::mt19937_64& rng) {
        RouterLoad load;
        std::uniform_int_distribution<int> mark(0, 10);
        std::uniform_int_distribution<int> count(1, 36);
        std::uniform_int_distribution<int> lane(0, 1);
        load.low_watermark = mark(rng);
        load.high_watermark = mark(rng);
        load.lanes.resize(static_cast<size_t>(count(rng)));
        for (int& l : load.lanes) l = lane(rng);
        return load;
      },
      [](const RouterLoad& load) {
        std::vector<RouterLoad> out;
        for (std::vector<int>& lanes : proptest::ShrinkOps(load.lanes)) {
          out.push_back(
              {load.low_watermark, load.high_watermark, std::move(lanes)});
        }
        return out;
      },
      [&data](const RouterLoad& load) {
        serve::RouterConfig config;
        config.num_threads = 2;
        config.queue_capacity = 8;
        config.admission.policy = serve::AdmissionPolicy::kShed;
        config.admission.low_lane_watermark = load.low_watermark;
        config.admission.high_lane_watermark = load.high_watermark;
        serve::ServingRouter router(data, config);
        router.InstallSlot("main",
                           std::make_shared<RotateReranker>(1, /*stall_us=*/300));

        data::ImpressionList list;
        for (int i = 0; i < 8; ++i) {
          list.items.push_back(i);
          list.scores.push_back(1.0f - 0.1f * static_cast<float>(i));
        }
        std::vector<std::future<serve::RouterResponse>> futures;
        for (int lane : load.lanes) {
          serve::RouterRequest request;
          request.slot = "main";
          request.lane = lane == 0 ? serve::Lane::kHigh : serve::Lane::kLow;
          request.list = list;
          futures.push_back(router.Submit(std::move(request)));
        }
        std::vector<int> sorted = list.items;
        std::sort(sorted.begin(), sorted.end());
        for (auto& future : futures) {
          serve::RouterResponse response = future.get();  // Must resolve.
          if (response.shed && !response.degraded) return false;
          // Shed or served, the answer is always a permutation of the input.
          std::vector<int> items = response.items;
          std::sort(items.begin(), items.end());
          if (items != sorted) return false;
        }
        router.Shutdown();
        return true;
      },
      [](const RouterLoad& load) {
        std::ostringstream os;
        os << "low_wm=" << load.low_watermark
           << " high_wm=" << load.high_watermark << " lanes=[";
        for (int lane : load.lanes) os << "HL"[lane];
        os << "]";
        return os.str();
      }));
}

}  // namespace
}  // namespace rapid
