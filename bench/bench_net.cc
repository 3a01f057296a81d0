// Slow-peer isolation gate for the network serving front-end (the tier-2
// `perf_net_gate`): healthy connections must keep their tail latency while
// one injected peer pipelines large requests and never reads a byte back.
//
// Two runs of the same window-pipelined load over loopback sockets, each
// against a fresh net::Server over one published RAPID snapshot:
//
//  1. "baseline": the load alone. Its p99 round-trip latency is the
//     denominator of the gate and is reported for nothing else.
//
//  2. "slow_client": the same load beside the offender. The server must
//     disconnect the offender (write-buffer cap / write-stall guard), and
//     under --check the healthy p99 must stay within 2x of the baseline
//     p99, with a 2000 us absolute floor to absorb scheduler noise.
//
// A load that sees an error reply, or an offender the server never cuts,
// fails the bench with or without --check. Throughput under load is what
// benchmark/ measures open loop, and the graceful-drain contract is
// NetServerTest.DrainUnderLoadDropsNothing, so neither is measured here.
//
// Output is one JSON object on stdout; progress goes to stderr. `--json`
// is accepted for uniformity (the output is always JSON); `--quick`
// shrinks the stream.
//
//   ./build/bench/bench_net --quick            # report only
//   ./build/bench/bench_net --quick --check    # tier-2 gate

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<int64_t>* latencies, double p) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(latencies->size() - 1));
  return static_cast<double>((*latencies)[idx]);
}

/// Minimal raw socket for the injected offender: it must be able to keep a
/// connection open while deliberately never reading, which the
/// well-behaved net::Client API does not model.
class RawSocket {
 public:
  ~RawSocket() { Close(); }

  bool Connect(uint16_t port, int rcvbuf_bytes) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::vector<uint8_t>& bytes) {
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;  // The server kicked us out — the expected outcome.
      }
      written += static_cast<size_t>(n);
    }
    return true;
  }

 private:
  int fd_ = -1;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const bool quick = args.quick, check = args.check;

  // ------------------------------------------------------------- environment
  std::fprintf(stderr, "[net] building dataset + training a snapshot...\n");
  data::SimConfig sim;
  sim.kind = data::DatasetKind::kTaobao;
  sim.num_users = 40;
  sim.num_items = 250;
  sim.rerank_lists_per_user = 4;
  data::Dataset dataset = data::GenerateDataset(sim, 2023);
  click::GroundTruthClickModel dcm(&dataset, click::DcmConfig{});
  std::mt19937_64 click_rng(11);
  std::vector<data::ImpressionList> lists;
  for (const data::Request& req : dataset.rerank_train_requests) {
    data::ImpressionList list;
    list.user_id = req.user_id;
    list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
    for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
    list.clicks = dcm.SimulateClicks(list.user_id, list.items, click_rng);
    lists.push_back(std::move(list));
  }

  const std::string snapshot_path = "/tmp/bench_net_a.rsnp";
  {
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = 16;
    core::RapidReranker model(cfg);
    model.Fit(dataset, lists, /*seed=*/7);
    if (!serve::Snapshot::Save(snapshot_path, model, dataset)) {
      std::fprintf(stderr, "[net] snapshot save failed\n");
      return 1;
    }
  }

  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 4;
  router_cfg.queue_capacity = 1024;
  serve::ServingRouter router(dataset, router_cfg);
  if (router.LoadSlot("main", snapshot_path) == 0) {
    std::fprintf(stderr, "[net] LoadSlot failed\n");
    return 1;
  }

  const int connections = 4;
  const int window = 8;
  const int per_conn = quick ? 300 : 1500;

  // Window-pipelined load from `connections` client threads against
  // `port`, recording client-observed round-trip latency per request.
  struct LoadResult {
    std::vector<int64_t> lat_us;
    uint64_t errors = 0;
  };
  const auto run_load = [&](uint16_t port, int n_conns, int requests_each) {
    std::vector<std::vector<int64_t>> lat(n_conns);
    std::atomic<uint64_t> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n_conns; ++t) {
      threads.emplace_back([&, t] {
        net::Client client;
        if (!client.Connect("127.0.0.1", port)) {
          errors.fetch_add(static_cast<uint64_t>(requests_each));
          return;
        }
        std::mt19937_64 rng(300 + static_cast<uint64_t>(t));
        std::unordered_map<uint64_t, Clock::time_point> sent;
        lat[t].reserve(static_cast<size_t>(requests_each));
        int submitted = 0;
        int received = 0;
        while (received < requests_each) {
          if (submitted < requests_each &&
              static_cast<int>(sent.size()) < window) {
            net::WireRequest request;
            request.slot = "main";
            request.list = lists[rng() % lists.size()];
            const uint64_t id = client.Send(&request);
            if (id == 0) {
              errors.fetch_add(
                  static_cast<uint64_t>(requests_each - received));
              return;
            }
            sent[id] = Clock::now();
            ++submitted;
            continue;
          }
          net::Client::Reply reply;
          if (!client.Receive(&reply, 10'000)) {
            errors.fetch_add(static_cast<uint64_t>(requests_each - received));
            return;
          }
          const auto it = sent.find(reply.request_id());
          if (it != sent.end()) {
            lat[t].push_back(std::chrono::duration_cast<
                                 std::chrono::microseconds>(Clock::now() -
                                                            it->second)
                                 .count());
            sent.erase(it);
          }
          if (reply.is_error) errors.fetch_add(1);
          ++received;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    LoadResult result;
    result.errors = errors.load();
    for (std::vector<int64_t>& l : lat) {
      result.lat_us.insert(result.lat_us.end(), l.begin(), l.end());
    }
    return result;
  };

  bool failed = false;

  // ---------------------------------------------------------------- baseline
  std::fprintf(stderr, "[net] baseline: %d conns x %d reqs (window %d)...\n",
               connections, per_conn, window);
  double base_p99 = 0.0;
  {
    net::Server server(router);
    if (!server.Start()) {
      std::fprintf(stderr, "[net] server start failed\n");
      return 1;
    }
    LoadResult r = run_load(server.port(), connections, per_conn);
    server.Stop();
    base_p99 = Percentile(&r.lat_us, 0.99);
    std::fprintf(stderr, "[net] baseline: p99=%.0fus errors=%llu\n",
                 base_p99, static_cast<unsigned long long>(r.errors));
    if (r.errors > 0) {
      std::fprintf(stderr, "[net] FAIL: baseline saw errors\n");
      failed = true;
    }
  }

  // ------------------------------------------------------------- slow client
  // Healthy load shares the server with one offender that never reads.
  std::fprintf(stderr, "[net] slow client: injecting a non-reading peer...\n");
  const int healthy_per_conn = quick ? 300 : 1000;
  double slow_p99 = 0.0, p99_ratio = 0.0;
  uint64_t slow_closed = 0;
  {
    net::ServerConfig cfg;
    // Pin kernel buffering small so the offender's backpressure reaches
    // the server's write buffer instead of vanishing into autotuned
    // socket buffers.
    cfg.so_sndbuf = 4096;
    cfg.max_write_buffer_bytes = 64 * 1024;
    cfg.write_stall_timeout_ms = 500;
    cfg.poll_tick_ms = 5;
    cfg.max_inflight_per_conn = 256;
    net::Server server(router, cfg);
    if (!server.Start()) {
      std::fprintf(stderr, "[net] server start failed\n");
      return 1;
    }
    std::thread offender([&] {
      RawSocket slow;
      if (!slow.Connect(server.port(), /*rcvbuf_bytes=*/4096)) return;
      // Large candidate lists make each response ~4KB so the offender's
      // unread responses overflow the write-buffer cap quickly. The ids
      // stay within the dataset's range, and the unknown slot routes them
      // through the cheap fallback — the offender should not be able to
      // burn model compute either.
      data::ImpressionList big;
      for (int i = 0; i < 1024; ++i) {
        big.items.push_back(i % sim.num_items);
        big.scores.push_back(1.0f);
      }
      std::vector<uint8_t> encoded;
      for (uint64_t i = 0; i < 64; ++i) {
        net::WireRequest request;
        request.request_id = i + 1;
        request.slot = "flood";
        request.list = big;
        encoded.clear();
        net::EncodeScoreRequest(request, &encoded);
        if (!slow.SendAll(encoded)) break;  // Disconnected, as designed.
      }
      // Hold the (dead or dying) socket open while the healthy load runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    });
    LoadResult healthy =
        run_load(server.port(), connections, healthy_per_conn);
    offender.join();
    server.Stop();
    slow_p99 = Percentile(&healthy.lat_us, 0.99);
    slow_closed = server.stats().closed_slow;
    p99_ratio = slow_p99 / std::max(base_p99, 1.0);
    std::fprintf(stderr,
                 "[net] slow client: closed_slow=%llu healthy p99=%.0fus "
                 "(%.2fx baseline) errors=%llu\n",
                 static_cast<unsigned long long>(slow_closed), slow_p99,
                 p99_ratio, static_cast<unsigned long long>(healthy.errors));
    if (slow_closed < 1) {
      std::fprintf(stderr, "[net] FAIL: offender was never disconnected\n");
      failed = true;
    }
    if (healthy.errors > 0) {
      std::fprintf(stderr, "[net] FAIL: healthy connections saw errors\n");
      failed = true;
    }
    // The 2x gate, with an absolute floor: at sub-millisecond baselines a
    // scheduler hiccup alone can double a p99 without meaning anything.
    if (check && p99_ratio > 2.0 && slow_p99 - base_p99 >= 2000.0) {
      std::fprintf(stderr, "[net] FAIL: healthy p99 degraded %.2fx\n",
                   p99_ratio);
      failed = true;
    }
  }

  std::printf(
      "{\"bench\": \"net\", \"hardware_threads\": %u, "
      "\"connections\": %d, \"window\": %d, \"baseline_p99_us\": %.0f, "
      "\"healthy_p99_us\": %.0f, \"p99_ratio\": %.2f, "
      "\"closed_slow\": %llu}\n",
      std::thread::hardware_concurrency(), connections, window, base_p99,
      slow_p99, p99_ratio, static_cast<unsigned long long>(slow_closed));

  return failed ? 1 : 0;
}
