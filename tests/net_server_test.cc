// Integration tests for the network serving front-end: a real net::Server
// over a real ServingRouter, driven through loopback sockets. Everything
// here exercises the full stack — codec, connection loop, dispatchers,
// router admission/cache — not mocks.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rapid {
namespace {

using namespace std::chrono_literals;

/// Deterministic stand-in model (mirrors router_test): rotates the list
/// left by `shift`, optionally stalling to emulate inference cost.
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

net::WireRequest MakeRequest(const std::string& slot,
                             const data::ImpressionList& list) {
  net::WireRequest request;
  request.slot = slot;
  request.lane = serve::Lane::kHigh;
  request.list = list;
  return request;
}

/// Spins until `pred()` holds or ~2s elapse. The server's counters update
/// from its own threads, so tests observing them must poll.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// A raw TCP connection for driving the server with bytes the well-behaved
/// `net::Client` refuses to produce: garbage framing, hand-built headers,
/// and a reader that deliberately never reads.
class RawConn {
 public:
  ~RawConn() { Close(); }

  bool Connect(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf_bytes > 0) {
      // Must be set before connect so the window is negotiated small.
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
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool SendAll(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    size_t written = 0;
    while (written < size) {
      const ssize_t n =
          ::send(fd_, p + written, size - written, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;  // Server closed on us (expected in slow-client tests).
      }
      written += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocking-reads until one complete frame parses off the stream.
  bool ReadFrame(net::Frame* out) {
    for (;;) {
      size_t consumed = 0;
      const net::DecodeStatus status =
          net::ExtractFrame(rbuf_.data(), rbuf_.size(), &consumed, out);
      if (status == net::DecodeStatus::kError) return false;
      if (status == net::DecodeStatus::kOk) {
        rbuf_.erase(rbuf_.begin(),
                    rbuf_.begin() + static_cast<ptrdiff_t>(consumed));
        return true;
      }
      uint8_t scratch[4096];
      const ssize_t n = ::read(fd_, scratch, sizeof(scratch));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;  // EOF or error.
      }
      rbuf_.insert(rbuf_.end(), scratch, scratch + n);
    }
  }

  /// True when the peer sent FIN (a clean read of 0 bytes).
  bool ReadEof() {
    for (;;) {
      uint8_t scratch[4096];
      const ssize_t n = ::read(fd_, scratch, sizeof(scratch));
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;  // RST also means "closed".
    }
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> rbuf_;
};

/// Hand-builds a frame header (little-endian, matching codec.cc) so tests
/// can produce well-framed-but-invalid payloads.
std::vector<uint8_t> RawHeader(net::FrameType type, uint64_t request_id,
                               uint32_t payload_len) {
  std::vector<uint8_t> out(net::kFrameHeaderBytes, 0);
  const uint32_t magic = net::kFrameMagic;
  std::memcpy(out.data(), &magic, 4);
  out[4] = net::kProtocolVersion;
  out[5] = static_cast<uint8_t>(type);
  std::memcpy(out.data() + 8, &request_id, 8);
  std::memcpy(out.data() + 16, &payload_len, 4);
  return out;
}

TEST(NetServerTest, StartFailsOnUnbindableAddress) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  net::ServerConfig cfg;
  cfg.host = "not-an-address";
  net::Server server(router, cfg);
  EXPECT_FALSE(server.Start());
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, RoundTripMatchesDirectRerankWithAttribution) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(3));
  net::Server server(router);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", TenItemList()), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_EQ(reply.response.items, Rotated(TenItemList().items, 3));
  EXPECT_FALSE(reply.response.degraded);
  EXPECT_EQ(reply.response.model_name, "rotate-3");
  EXPECT_EQ(reply.response.model_version, 1u);
  EXPECT_GE(reply.response.server_latency_us, 0);

  const serve::RouterStats stats = server.StatsWithNet();
  EXPECT_TRUE(stats.has_net);
  EXPECT_EQ(stats.net.connections_accepted, 1u);
  EXPECT_EQ(stats.net.frames_in, 1u);
  EXPECT_TRUE(EventuallyTrue([&] { return server.stats().frames_out == 1u; }));
  EXPECT_EQ(server.stats().dropped_responses, 0u);
  // The rendered ops readout includes the net section end to end.
  EXPECT_NE(stats.ToTable().find("net"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"net\""), std::string::npos);
}

TEST(NetServerTest, PipelinedRepliesCorrelateByRequestId) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  // The slow slot stalls long enough that the fast reply overtakes it on
  // the wire: the same connection sees responses out of submission order.
  router.InstallSlot("slow", std::make_shared<RotateReranker>(2, 30'000));
  router.InstallSlot("fast", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::WireRequest slow_req = MakeRequest("slow", TenItemList());
  net::WireRequest fast_req = MakeRequest("fast", TenItemList());
  const uint64_t slow_id = client.Send(&slow_req);
  const uint64_t fast_id = client.Send(&fast_req);
  ASSERT_NE(slow_id, 0u);
  ASSERT_NE(fast_id, 0u);

  std::map<uint64_t, std::vector<int>> by_id;
  for (int i = 0; i < 2; ++i) {
    net::Client::Reply reply;
    ASSERT_TRUE(client.Receive(&reply, 5000));
    ASSERT_FALSE(reply.is_error);
    by_id[reply.request_id()] = reply.response.items;
  }
  EXPECT_EQ(by_id[slow_id], Rotated(TenItemList().items, 2));
  EXPECT_EQ(by_id[fast_id], Rotated(TenItemList().items, 1));
}

TEST(NetServerTest, UnknownSlotDegradesOverTheWire) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("no-such-slot", TenItemList()), &reply,
                          2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(reply.response.degraded);
  EXPECT_EQ(reply.response.model_version, 0u);
  // The degraded answer is still a permutation of the candidates.
  std::vector<int> sorted = reply.response.items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, TenItemList().items);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // Wrong protocol entirely.
  ASSERT_TRUE(raw.SendAll(garbage, sizeof(garbage) - 1));
  // Framing is unrecoverable: the server must drop the connection (a
  // clean FIN or an RST both count as closed).
  EXPECT_TRUE(raw.ReadEof());
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.stats().closed_protocol_error == 1u; }));
  EXPECT_EQ(server.stats().frames_in, 0u);
}

TEST(NetServerTest, MalformedPayloadGetsErrorFrameAndConnectionSurvives) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  RawConn raw;
  ASSERT_TRUE(raw.Connect(server.port()));
  // Well-framed but unparseable: a score request with an empty payload.
  const std::vector<uint8_t> bad = RawHeader(net::FrameType::kScoreRequest,
                                             /*request_id=*/7,
                                             /*payload_len=*/0);
  ASSERT_TRUE(raw.SendAll(bad.data(), bad.size()));
  net::Frame frame;
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.header.type, net::FrameType::kError);
  net::WireError error;
  ASSERT_TRUE(net::ParseError(frame, &error));
  EXPECT_EQ(error.request_id, 7u);

  // Framing survived, so the same connection still serves a good request.
  net::WireRequest good = MakeRequest("main", TenItemList());
  good.request_id = 8;
  std::vector<uint8_t> encoded;
  net::EncodeScoreRequest(good, &encoded);
  ASSERT_TRUE(raw.SendAll(encoded.data(), encoded.size()));
  ASSERT_TRUE(raw.ReadFrame(&frame));
  EXPECT_EQ(frame.header.type, net::FrameType::kScoreResponse);
  net::WireResponse response;
  ASSERT_TRUE(net::ParseScoreResponse(frame, &response));
  EXPECT_EQ(response.request_id, 8u);
  EXPECT_EQ(response.items, Rotated(TenItemList().items, 1));

  const serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.error_frames_out, 1u);
  EXPECT_EQ(stats.closed_protocol_error, 0u);
  EXPECT_EQ(stats.connections_active, 1u);
}

TEST(NetServerTest, HalfClosedBatchStillGetsEveryResponse) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1, 1000));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  constexpr int kBatch = 8;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBatch; ++i) {
    net::WireRequest request = MakeRequest("main", TenItemList(i));
    ids.push_back(client.Send(&request));
    ASSERT_NE(ids.back(), 0u);
  }
  client.FinishSending();  // SHUT_WR: the batch is done, answers still owed.

  std::vector<uint64_t> answered;
  for (int i = 0; i < kBatch; ++i) {
    net::Client::Reply reply;
    ASSERT_TRUE(client.Receive(&reply, 5000));
    ASSERT_FALSE(reply.is_error);
    answered.push_back(reply.request_id());
  }
  std::sort(answered.begin(), answered.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(answered, ids);
  // After the last owed response the server closes its side too.
  net::Client::Reply reply;
  EXPECT_FALSE(client.Receive(&reply, 2000));
  EXPECT_TRUE(EventuallyTrue(
      [&] { return server.stats().dropped_responses == 0u &&
                   server.stats().connections_active == 0u; }));
}

TEST(NetServerTest, DrainUnderLoadDropsNothing) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  // Enough per-request stall that Stop() lands with real work in flight.
  router.InstallSlot("main", std::make_shared<RotateReranker>(1, 3000));
  net::ServerConfig cfg;
  cfg.drain_linger_ms = 100;
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  constexpr uint64_t kBatch = 32;
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kBatch; ++i) {
    net::WireRequest request = MakeRequest("main", TenItemList());
    ids.push_back(client.Send(&request));
    ASSERT_NE(ids.back(), 0u);
  }
  // Wait until every request is parsed server-side, so the drain is
  // guaranteed to see all of them as in-flight...
  ASSERT_TRUE(
      EventuallyTrue([&] { return server.stats().frames_in == kBatch; }));
  // ...then stop while most are still stalled in the model.
  server.Stop();

  // Every response must already be flushed (Stop blocks until drained):
  // read them all, then see a clean FIN.
  std::vector<uint64_t> answered;
  for (uint64_t i = 0; i < kBatch; ++i) {
    net::Client::Reply reply;
    ASSERT_TRUE(client.Receive(&reply, 5000)) << "reply " << i << " missing";
    ASSERT_FALSE(reply.is_error);
    EXPECT_EQ(reply.response.items, Rotated(TenItemList().items, 1));
    answered.push_back(reply.request_id());
  }
  std::sort(answered.begin(), answered.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(answered, ids);
  net::Client::Reply reply;
  EXPECT_FALSE(client.Receive(&reply, 2000));  // EOF after the last frame.

  const serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.dropped_responses, 0u) << "graceful drain dropped responses";
  EXPECT_EQ(stats.frames_out, kBatch);
  EXPECT_EQ(stats.frames_in, kBatch);
}

TEST(NetServerTest, SlowClientIsDisconnectedWithoutHurtingHealthyPeers) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::ServerConfig cfg;
  // Pin kernel buffering small so backpressure reaches the server's own
  // write buffer deterministically instead of vanishing into autotuned
  // socket buffers.
  cfg.so_sndbuf = 4096;
  cfg.max_write_buffer_bytes = 32 * 1024;
  cfg.write_stall_timeout_ms = 500;
  cfg.max_inflight_per_conn = 256;
  cfg.poll_tick_ms = 5;
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  // The offender: pipelines large requests and never reads a byte back.
  RawConn slow;
  ASSERT_TRUE(slow.Connect(server.port(), /*rcvbuf_bytes=*/4096));
  data::ImpressionList big;
  big.user_id = 0;
  for (int i = 0; i < 1024; ++i) {
    big.items.push_back(i);
    big.scores.push_back(1.0f);
  }
  std::vector<uint8_t> encoded;
  for (uint64_t i = 0; i < 64; ++i) {
    net::WireRequest request = MakeRequest("main", big);
    request.request_id = i + 1;
    encoded.clear();
    net::EncodeScoreRequest(request, &encoded);
    if (!slow.SendAll(encoded.data(), encoded.size())) break;  // Kicked out.
  }
  EXPECT_TRUE(EventuallyTrue([&] { return server.stats().closed_slow >= 1u; }))
      << "slow client was never disconnected";
  // Its unread responses are accounted, not silently lost.
  EXPECT_GT(server.stats().dropped_responses, 0u);

  // A healthy connection keeps being served throughout.
  net::Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server.port()));
  net::Client::Reply reply;
  ASSERT_TRUE(healthy.Call(MakeRequest("main", TenItemList()), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_EQ(reply.response.items, Rotated(TenItemList().items, 1));
}

TEST(NetServerTest, IdleConnectionsAreReaped) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::ServerConfig cfg;
  cfg.idle_timeout_ms = 50;
  cfg.poll_tick_ms = 5;
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // An active request resets the clock; only true idleness is reaped.
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", TenItemList()), &reply, 2000));
  EXPECT_TRUE(
      EventuallyTrue([&] { return server.stats().closed_idle >= 1u; }));
  EXPECT_FALSE(client.Receive(&reply, 1000));  // Server hung up.
}

TEST(NetServerTest, PollBackendServesIdentically) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(4));
  net::ServerConfig cfg;
  cfg.use_poll = true;  // Exercise the portable poll(2) event loop.
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", TenItemList()), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_EQ(reply.response.items, Rotated(TenItemList().items, 4));
}

TEST(NetServerTest, SynchronousWaitIsBoundedByOneDeadlineNotPerFrame) {
  // A stream of unrelated pipelined replies must not restart Call's clock:
  // the fake server below answers a request id the client never issued,
  // every 25ms, and the Call (200ms timeout) must still return promptly.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    // 40 unrelated frames over ~1s: an implementation that grants the full
    // timeout to every ReadFrame would sit here the whole second.
    for (int i = 0; i < 40 && !stop.load(); ++i) {
      net::WireResponse unrelated;
      unrelated.request_id = 999900 + i;
      std::vector<uint8_t> frame;
      net::EncodeScoreResponse(unrelated, &frame);
      if (::send(conn, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) break;
      std::this_thread::sleep_for(25ms);
    }
    ::close(conn);
  });

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  net::WireRequest request = MakeRequest("main", TenItemList());
  net::Client::Reply reply;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Call(std::move(request), &reply, 200));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 150);
  EXPECT_LT(elapsed.count(), 700) << "per-frame timeout restarted the clock";

  stop.store(true);
  feeder.join();
  ::close(listener);
}

TEST(NetServerTest, StatsScrapeOverTheWireMatchesLocalReadout) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(2));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (int i = 0; i < 3; ++i) {
    net::Client::Reply reply;
    ASSERT_TRUE(client.Call(MakeRequest("main", TenItemList(i)), &reply, 2000));
    ASSERT_FALSE(reply.is_error);
  }

  // Binary scrape: the structured RouterStats crosses the wire intact.
  serve::RouterStats scraped;
  ASSERT_TRUE(client.GetStats(&scraped, 2000));
  EXPECT_EQ(scraped.total.requests, 3u);
  ASSERT_EQ(scraped.slots.size(), 1u);
  EXPECT_EQ(scraped.slots[0].slot, "main");
  EXPECT_EQ(scraped.slots[0].model_name, "rotate-2");
  ASSERT_TRUE(scraped.has_net);
  EXPECT_EQ(scraped.net.frames_in, 3u);

  // JSON scrape: the server-rendered text, unbounded by string limits.
  std::string json;
  ASSERT_TRUE(client.GetStatsJson(&json, 2000));
  EXPECT_NE(json.find("\"requests\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"net\""), std::string::npos);

  EXPECT_TRUE(EventuallyTrue([&] { return server.stats().stats_frames == 2u; }));
  // Admin frames are not score frames: frames_in counts scores only.
  EXPECT_EQ(server.stats().frames_in, 3u);
}

TEST(NetServerTest, RemoteLoadDisabledIsRefusedAndConnectionSurvives) {
  const data::Dataset data;
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);  // enable_remote_load defaults to false.
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  uint64_t version = 99;
  std::string message;
  // True = the server answered; version 0 + message = application refusal.
  ASSERT_TRUE(client.RemoteLoadSlot("main", "/tmp/nope.rsnp", &version,
                                    &message, 2000));
  EXPECT_EQ(version, 0u);
  EXPECT_NE(message.find("disabled"), std::string::npos);
  EXPECT_TRUE(EventuallyTrue([&] { return server.stats().load_frames == 1u; }));

  // The refusal was an error frame, not a disconnect.
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", TenItemList()), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_EQ(reply.response.items, Rotated(TenItemList().items, 1));
}

// End-to-end with real fitted models over real sockets: concurrent client
// threads stream requests while the main thread hot-swaps snapshots via
// LoadSlot. Every response must be internally consistent — the items must
// be exactly what the stamped model version produces — and nothing may be
// dropped. This is the primary TSan target for the net subsystem.
class NetSwapTest : public ::testing::Test {
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

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
};

// A remote caller controls every byte of the request, so ids pointing
// outside the dataset must never reach a model's embedding tables — the
// router answers them degraded, in submitted order, and counts them.
TEST_F(NetSwapTest, OutOfRangeIdsAreRejectedBeforeReachingTheModel) {
  const std::string path = TrainAndSnapshot(8, 3, "net_guard.rsnp");
  serve::ServingRouter router(data_, {});
  ASSERT_EQ(router.LoadSlot("main", path), 1u);
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  data::ImpressionList hostile;
  hostile.user_id = 0;
  for (int i = 0; i < 10; ++i) {
    hostile.items.push_back(1'000'000 + i);  // No such items exist.
    hostile.scores.push_back(1.0f);
  }
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", hostile), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(reply.response.degraded);
  EXPECT_EQ(reply.response.model_version, 0u);
  EXPECT_EQ(reply.response.items, hostile.items);  // Submitted order.
  EXPECT_EQ(router.stats().invalid_ids, 1u);

  // The same connection still gets real model service afterwards.
  ASSERT_TRUE(client.Call(MakeRequest("main", train_[0]), &reply, 2000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_FALSE(reply.response.degraded);
  EXPECT_EQ(reply.response.model_version, 1u);
}

TEST_F(NetSwapTest, RemoteLoadPublishesWhenEnabled) {
  const std::string path = TrainAndSnapshot(8, 5, "net_remote_load.rsnp");
  serve::ServingRouter router(data_, {});
  net::ServerConfig cfg;
  cfg.enable_remote_load = true;
  net::Server server(router, cfg);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  uint64_t version = 0;
  std::string message;
  ASSERT_TRUE(client.RemoteLoadSlot("main", path, &version, &message, 10'000));
  EXPECT_EQ(version, 1u) << message;

  // The remotely loaded snapshot serves real traffic on this connection.
  net::Client::Reply reply;
  ASSERT_TRUE(client.Call(MakeRequest("main", train_[0]), &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_FALSE(reply.response.degraded);
  EXPECT_EQ(reply.response.model_version, 1u);

  // A bad path is refused with a reason; the published version survives.
  ASSERT_TRUE(client.RemoteLoadSlot("main", path + ".missing", &version,
                                    &message, 10'000));
  EXPECT_EQ(version, 0u);
  EXPECT_FALSE(message.empty());
  ASSERT_TRUE(client.Call(MakeRequest("main", train_[0]), &reply, 5000));
  EXPECT_EQ(reply.response.model_version, 1u);
}

TEST_F(NetSwapTest, ConcurrentConnectionsSeeConsistentVersionsAcrossSwaps) {
  const std::string path_a = TrainAndSnapshot(8, 1, "net_swap_a.rsnp");
  const std::string path_b = TrainAndSnapshot(12, 2, "net_swap_b.rsnp");
  const auto model_a = serve::Snapshot::Load(path_a, data_);
  const auto model_b = serve::Snapshot::Load(path_b, data_);
  ASSERT_NE(model_a, nullptr);
  ASSERT_NE(model_b, nullptr);

  // Precompute what each model produces for each probe list: a response
  // stamped with version v must carry exactly version v's permutation.
  const size_t kLists = std::min<size_t>(train_.size(), 8);
  std::vector<std::vector<int>> expect_a(kLists), expect_b(kLists);
  for (size_t i = 0; i < kLists; ++i) {
    expect_a[i] = model_a->Rerank(data_, train_[i]);
    expect_b[i] = model_b->Rerank(data_, train_[i]);
  }

  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 3;
  serve::ServingRouter router(data_, router_cfg);
  ASSERT_EQ(router.LoadSlot("main", path_a), 1u);
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      net::Client client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t li = static_cast<size_t>(t + i) % kLists;
        net::Client::Reply reply;
        if (!client.Call(MakeRequest("main", train_[li]), &reply, 5000) ||
            reply.is_error) {
          failures.fetch_add(1);
          continue;
        }
        if (reply.response.degraded) continue;  // No version to check.
        // Versions alternate a, b, a, b, ... as LoadSlot swaps below.
        const std::vector<int>& want = (reply.response.model_version % 2 == 1)
                                           ? expect_a[li]
                                           : expect_b[li];
        if (reply.response.items != want) mismatches.fetch_add(1);
      }
    });
  }

  // Mid-stream hot swaps while the clients hammer the socket.
  const std::string* paths[2] = {&path_b, &path_a};
  for (int swap = 0; swap < 4; ++swap) {
    std::this_thread::sleep_for(10ms);
    EXPECT_EQ(router.LoadSlot("main", *paths[swap % 2]),
              static_cast<uint64_t>(swap + 2));
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "a response carried items from a different model version";
  const serve::NetStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, static_cast<uint64_t>(kClients) *
                                 kRequestsPerClient);
  EXPECT_EQ(stats.dropped_responses, 0u);
  // The hot-swapped version is visible over the wire.
  net::Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
  net::Client::Reply reply;
  ASSERT_TRUE(probe.Call(MakeRequest("main", train_[0]), &reply, 2000));
  EXPECT_EQ(reply.response.model_version, 5u);
}

}  // namespace
}  // namespace rapid
