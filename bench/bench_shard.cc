// Scale-out bench for the sharded serving tier: forks 1/2/4 REAL
// `net::Server` processes (separate address spaces, loopback sockets) and
// drives them through one `shard::ShardRouter`, measuring fan-out
// throughput as the fleet grows. The per-request model cost is a
// sleep-based fetch+compute stall, so a single-core host still shows the
// scaling the sharding buys: the stalls overlap across processes even
// when compute cannot.
//
// Two phases, each of which both measures and *verifies*:
//
//  1. "sweep": the same windowed load against a 1-, 2-, and 4-shard
//     fleet. Reported: throughput and round-trip percentiles per fleet
//     size, plus speedup_2x / speedup_4x over the single shard. Any
//     failed reply fails the bench; `--check` additionally requires
//     speedup_2x >= 1.5.
//
//  2. "rollout": continuous load against the 2-shard fleet while the
//     router coordinates canary-first snapshot rollouts onto a second
//     slot. Every rollout must commit, every concurrent score reply must
//     arrive ok (the zero-drop contract extends fleet-wide), and the
//     rolled slot must end on the expected published version.
//
// Children are forked BEFORE the parent creates any thread (fork and
// threads do not mix); each child writes its ephemeral port over a pipe
// and exits when the control pipe reaches EOF.
//
// Output is one JSON object on stdout; progress goes to stderr. `--json`
// is accepted for run_ledger.sh uniformity (the output is always JSON).
//
//   ./build/bench/bench_shard                   # full run
//   ./build/bench/bench_shard --quick --check   # tier-2 perf gate

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "net/server.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "shard/shard_router.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kStallUs = 2500;
constexpr int kWindow = 64;
constexpr int kNumUsers = 200;

double Percentile(std::vector<int64_t>* latencies, double p) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(latencies->size() - 1));
  return static_cast<double>((*latencies)[idx]);
}

/// The serving-cost stand-in: a per-request fetch+compute stall (feature
/// fetch, model forward) followed by a trivial permutation. Sleeping
/// rather than spinning is what makes the scaling measurable on one core.
class FetchStallReranker : public rapid::rerank::Reranker {
 public:
  explicit FetchStallReranker(int stall_us) : stall_us_(stall_us) {}

  std::string name() const override { return "fetch-stall"; }

  std::vector<int> Rerank(const rapid::data::Dataset& /*data*/,
                          const rapid::data::ImpressionList& list) const
      override {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
    std::vector<int> out = list.items;
    if (!out.empty()) std::rotate(out.begin(), out.begin() + 1, out.end());
    return out;
  }

 private:
  const int stall_us_;
};

/// Child-process body: one shard = one ServingRouter behind one
/// net::Server, remote load enabled (the rollout phase drives it). Writes
/// the bound port to `port_fd`, serves until `ctl_fd` hits EOF.
[[noreturn]] void RunShardServer(const rapid::data::Dataset& dataset,
                                 int port_fd, int ctl_fd) {
  using namespace rapid;
  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 1;
  router_cfg.queue_capacity = 2048;
  serve::ServingRouter router(dataset, router_cfg);
  router.InstallSlot("stall", std::make_shared<FetchStallReranker>(kStallUs));

  net::ServerConfig server_cfg;
  server_cfg.enable_remote_load = true;
  server_cfg.num_dispatchers = 2;
  net::Server server(router, server_cfg);
  if (!server.Start()) std::_Exit(2);
  const uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) std::_Exit(2);
  ::close(port_fd);

  char byte;
  while (::read(ctl_fd, &byte, 1) > 0) {
  }
  server.Stop();
  router.Shutdown();
  std::_Exit(0);
}

struct ShardProcess {
  pid_t pid = -1;
  int ctl_fd = -1;  // Closing it tells the child to exit.
  uint16_t port = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const bool quick = args.quick, check = args.check;

  // ------------------------------------------------------------- environment
  // Dataset + snapshots are built in the parent BEFORE any fork so the
  // children inherit them copy-on-write and never retrain.
  std::fprintf(stderr, "[shard] building dataset + training snapshots...\n");
  data::SimConfig sim;
  sim.kind = data::DatasetKind::kTaobao;
  sim.num_users = kNumUsers;
  sim.num_items = 250;
  sim.rerank_lists_per_user = 1;
  data::Dataset dataset = data::GenerateDataset(sim, 2024);
  click::GroundTruthClickModel dcm(&dataset, click::DcmConfig{});
  std::mt19937_64 click_rng(13);
  std::vector<data::ImpressionList> lists;
  for (const data::Request& req : dataset.rerank_train_requests) {
    data::ImpressionList list;
    list.user_id = req.user_id;
    list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
    for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
    list.clicks = dcm.SimulateClicks(list.user_id, list.items, click_rng);
    lists.push_back(std::move(list));
  }
  const char* snapshot_paths[2] = {"/tmp/bench_shard_a.rsnp",
                                   "/tmp/bench_shard_b.rsnp"};
  for (int s = 0; s < 2; ++s) {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = s == 0 ? 8 : 12;
    core::RapidReranker model(cfg);
    model.Fit(dataset, lists, /*seed=*/static_cast<uint64_t>(s + 1));
    if (!serve::Snapshot::Save(snapshot_paths[s], model, dataset)) {
      std::fprintf(stderr, "[shard] snapshot save failed\n");
      return 1;
    }
  }

  // ------------------------------------------------------------------ fleets
  // Fork every child for every fleet size up front — the parent is still
  // single-threaded here, which is the only safe time to fork.
  const std::vector<int> fleet_sizes = {1, 2, 4};
  std::vector<std::vector<ShardProcess>> fleets;
  for (int size : fleet_sizes) {
    std::vector<ShardProcess> fleet;
    for (int s = 0; s < size; ++s) {
      int port_pipe[2], ctl_pipe[2];
      if (::pipe(port_pipe) != 0 || ::pipe(ctl_pipe) != 0) {
        std::fprintf(stderr, "[shard] pipe failed\n");
        return 1;
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::fprintf(stderr, "[shard] fork failed\n");
        return 1;
      }
      if (pid == 0) {
        ::close(port_pipe[0]);
        ::close(ctl_pipe[1]);
        RunShardServer(dataset, port_pipe[1], ctl_pipe[0]);
      }
      ::close(port_pipe[1]);
      ::close(ctl_pipe[0]);
      ShardProcess proc;
      proc.pid = pid;
      proc.ctl_fd = ctl_pipe[1];
      if (::read(port_pipe[0], &proc.port, sizeof(proc.port)) !=
          sizeof(proc.port)) {
        std::fprintf(stderr, "[shard] child failed to report a port\n");
        return 1;
      }
      ::close(port_pipe[0]);
      fleet.push_back(proc);
    }
    fleets.push_back(std::move(fleet));
  }
  const auto shutdown_all = [&] {
    for (auto& fleet : fleets) {
      for (ShardProcess& proc : fleet) {
        if (proc.ctl_fd >= 0) ::close(proc.ctl_fd);
        proc.ctl_fd = -1;
      }
    }
    bool clean = true;
    for (auto& fleet : fleets) {
      for (ShardProcess& proc : fleet) {
        int status = 0;
        ::waitpid(proc.pid, &status, 0);
        clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
    }
    return clean;
  };

  const auto endpoints_of = [&](const std::vector<ShardProcess>& fleet) {
    std::vector<shard::ShardEndpoint> endpoints;
    for (const ShardProcess& proc : fleet) {
      endpoints.push_back({"127.0.0.1", proc.port});
    }
    return endpoints;
  };

  data::ImpressionList probe_list;
  for (int i = 0; i < 10; ++i) {
    probe_list.items.push_back(i);
    probe_list.scores.push_back(1.0f - 0.05f * i);
  }
  const auto make_request = [&](const std::string& slot, int user) {
    net::WireRequest request;
    request.slot = slot;
    request.lane = serve::Lane::kHigh;
    request.list = probe_list;
    request.list.user_id = user % kNumUsers;
    return request;
  };

  // Windowed fan-out load through the shard router; every reply must be ok.
  struct LoadResult {
    std::vector<int64_t> lat_us;
    uint64_t failures = 0;
    double secs = 0.0;
  };
  const auto run_load = [&](shard::ShardRouter& router, int requests) {
    LoadResult result;
    result.lat_us.reserve(static_cast<size_t>(requests));
    std::deque<std::pair<std::future<shard::ShardReply>, Clock::time_point>>
        window;
    int submitted = 0;
    const auto t0 = Clock::now();
    while (static_cast<int>(result.lat_us.size()) + result.failures <
           static_cast<uint64_t>(requests)) {
      if (submitted < requests && static_cast<int>(window.size()) < kWindow) {
        window.emplace_back(router.Submit(make_request("stall", submitted)),
                            Clock::now());
        ++submitted;
        continue;
      }
      auto [future, sent_at] = std::move(window.front());
      window.pop_front();
      const shard::ShardReply reply = future.get();
      if (reply.ok) {
        result.lat_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - sent_at)
                .count());
      } else {
        ++result.failures;
      }
    }
    result.secs = std::chrono::duration<double>(Clock::now() - t0).count();
    return result;
  };

  bool failed = false;

  // ------------------------------------------------------------------- sweep
  const int sweep_requests = quick ? 240 : 800;
  struct SweepPoint {
    int shards = 0;
    double rps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    uint64_t failures = 0;
  };
  std::vector<SweepPoint> sweep;
  for (size_t f = 0; f < fleets.size(); ++f) {
    shard::ShardRouter router(endpoints_of(fleets[f]));
    if (!router.Start()) {
      std::fprintf(stderr, "[shard] router start failed\n");
      return 1;
    }
    LoadResult r = run_load(router, sweep_requests);
    SweepPoint point;
    point.shards = fleet_sizes[f];
    point.rps = static_cast<double>(r.lat_us.size()) / r.secs;
    point.p50_us = Percentile(&r.lat_us, 0.50);
    point.p99_us = Percentile(&r.lat_us, 0.99);
    point.failures = r.failures;
    sweep.push_back(point);
    std::fprintf(stderr,
                 "[shard] sweep %d shard(s): %.0f req/s p50=%.0fus "
                 "p99=%.0fus failures=%llu\n",
                 point.shards, point.rps, point.p50_us, point.p99_us,
                 static_cast<unsigned long long>(point.failures));
    if (point.failures > 0) {
      std::fprintf(stderr, "[shard] FAIL: sweep saw failed replies\n");
      failed = true;
    }
    router.Shutdown();
  }
  const double speedup2 = sweep[1].rps / std::max(sweep[0].rps, 1.0);
  const double speedup4 = sweep[2].rps / std::max(sweep[0].rps, 1.0);
  std::fprintf(stderr, "[shard] speedup: 2 shards %.2fx, 4 shards %.2fx\n",
               speedup2, speedup4);
  if (check && speedup2 < 1.5) {
    std::fprintf(stderr,
                 "[shard] FAIL: 2-shard speedup %.2fx below the 1.5x gate\n",
                 speedup2);
    failed = true;
  }

  // ----------------------------------------------------------------- rollout
  // Continuous score load on the 2-shard fleet while snapshots roll out
  // canary-first onto a second slot. The zero-drop contract must hold
  // fleet-wide: every concurrent reply arrives ok, every rollout commits.
  const int rollouts = 4;
  const int rollout_load = quick ? 400 : 1200;
  uint64_t rollout_failures = 0;
  int rollouts_committed = 0;
  uint64_t rolled_version = 0;
  {
    shard::ShardRouter router(endpoints_of(fleets[1]));
    if (!router.Start()) {
      std::fprintf(stderr, "[shard] router start failed\n");
      return 1;
    }
    std::atomic<uint64_t> load_failures{0};
    std::atomic<bool> load_done{false};
    std::thread load([&] {
      std::deque<std::future<shard::ShardReply>> window;
      int submitted = 0;
      int received = 0;
      while (received < rollout_load) {
        if (submitted < rollout_load &&
            static_cast<int>(window.size()) < kWindow) {
          window.push_back(router.Submit(make_request("stall", submitted)));
          ++submitted;
          continue;
        }
        if (!window.front().get().ok) load_failures.fetch_add(1);
        window.pop_front();
        ++received;
      }
      load_done.store(true);
    });
    for (int r = 0; r < rollouts; ++r) {
      const shard::RolloutResult result =
          router.Rollout("served", snapshot_paths[r % 2]);
      if (result.status == shard::RolloutStatus::kCommitted) {
        ++rollouts_committed;
        rolled_version = result.versions[0];
      } else {
        std::fprintf(stderr, "[shard] FAIL: rollout %d: %s\n", r,
                     result.detail.c_str());
      }
    }
    load.join();
    rollout_failures = load_failures.load();
    std::fprintf(stderr,
                 "[shard] rollout: %d/%d committed, slot version %llu, "
                 "%llu/%d load failures\n",
                 rollouts_committed, rollouts,
                 static_cast<unsigned long long>(rolled_version),
                 static_cast<unsigned long long>(rollout_failures),
                 rollout_load);
    if (rollouts_committed != rollouts ||
        rolled_version != static_cast<uint64_t>(rollouts) ||
        rollout_failures > 0) {
      std::fprintf(stderr,
                   "[shard] FAIL: rollout under load was not zero-drop\n");
      failed = true;
    }
    // The fleet view sees both shards and the aggregate request count.
    const shard::FleetStats stats = router.Stats();
    if (stats.shards_up != 2) {
      std::fprintf(stderr, "[shard] FAIL: stats scrape saw %d/2 shards\n",
                   stats.shards_up);
      failed = true;
    }
    router.Shutdown();
  }

  if (!shutdown_all()) {
    std::fprintf(stderr, "[shard] FAIL: a shard process exited uncleanly\n");
    failed = true;
  }

  std::printf(
      "{\"bench\": \"shard\", \"hardware_threads\": %u, "
      "\"stall_us\": %d, \"window\": %d, \"requests\": %d, "
      "\"sweep\": ["
      "{\"shards\": 1, \"throughput_rps\": %.1f, \"p50_us\": %.0f, "
      "\"p99_us\": %.0f}, "
      "{\"shards\": 2, \"throughput_rps\": %.1f, \"p50_us\": %.0f, "
      "\"p99_us\": %.0f}, "
      "{\"shards\": 4, \"throughput_rps\": %.1f, \"p50_us\": %.0f, "
      "\"p99_us\": %.0f}], "
      "\"speedup_2x\": %.2f, \"speedup_4x\": %.2f, "
      "\"rollout\": {\"rollouts\": %d, \"committed\": %d, "
      "\"slot_version\": %llu, \"load_requests\": %d, "
      "\"load_failures\": %llu}}\n",
      std::thread::hardware_concurrency(), kStallUs, kWindow, sweep_requests,
      sweep[0].rps, sweep[0].p50_us, sweep[0].p99_us, sweep[1].rps,
      sweep[1].p50_us, sweep[1].p99_us, sweep[2].rps, sweep[2].p50_us,
      sweep[2].p99_us, speedup2, speedup4, rollouts, rollouts_committed,
      static_cast<unsigned long long>(rolled_version), rollout_load,
      static_cast<unsigned long long>(rollout_failures));

  return failed ? 1 : 0;
}
