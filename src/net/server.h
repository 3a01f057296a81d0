#ifndef RAPID_NET_SERVER_H_
#define RAPID_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/fault.h"
#include "serve/metrics.h"
#include "serve/router.h"

namespace rapid::online {
class FeedbackLog;
}  // namespace rapid::online

namespace rapid::net {

struct ServerConfig {
  /// Bind address. Loopback by default — the bench and tests drive the
  /// server over 127.0.0.1; bind 0.0.0.0 to serve a real ranking tier.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, readable via `port()`
  /// after `Start` (how the tests avoid port collisions).
  uint16_t port = 0;
  /// Threads that wait on router futures and serialize responses. They
  /// bound how many requests can be *blocked* on the router concurrently
  /// (the router's own worker pool bounds actual inference parallelism).
  int num_dispatchers = 4;
  /// Accepts beyond this many open connections are refused immediately.
  int max_connections = 256;
  /// Per-connection pipelining cap: once this many parsed requests are
  /// unanswered, the server stops *reading* that connection (TCP
  /// backpressure) instead of buffering unboundedly. Parsed requests are
  /// never rejected.
  int max_inflight_per_conn = 64;
  /// Close a connection with no readable traffic, no in-flight requests,
  /// and nothing to write for this long. 0 disables.
  int64_t idle_timeout_ms = 0;
  /// Slow-client guard: a connection whose write buffer has made no
  /// progress for this long is disconnected. 0 disables.
  int64_t write_stall_timeout_ms = 2000;
  /// Slow-client guard: a connection whose buffered-but-unsent responses
  /// exceed this many bytes is disconnected rather than buffering
  /// unboundedly (a reader that stopped reading would otherwise grow the
  /// server's memory without limit).
  size_t max_write_buffer_bytes = 4u << 20;
  /// How long `Stop` keeps reading-and-discarding after flushing, so a
  /// client mid-write sees a clean FIN instead of an RST that could tear
  /// down responses still in its receive buffer.
  int64_t drain_linger_ms = 200;
  /// Event-loop tick used for timeout bookkeeping, milliseconds.
  int64_t poll_tick_ms = 20;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Pinning
  /// it small makes slow-client backpressure deterministic (kernel
  /// autotuning can otherwise absorb megabytes before the server's own
  /// write buffer sees any pressure) — used by the slow-client tests and
  /// `bench_net`'s injection phase.
  int so_sndbuf = 0;
  /// Allow `kLoadSlotRequest` frames to drive `ServingRouter::LoadSlot`
  /// remotely. Off by default: the frame carries a filesystem path the
  /// server will open, so it is trusted-operator surface (the shard
  /// rollout coordinator), not something an internet-facing listener
  /// should honor. When off, the frame is answered with an error frame
  /// and the connection survives.
  bool enable_remote_load = false;
  /// Destination for `kFeedback` frames (impressions + clicks from served
  /// lists). Null = feedback disabled: the frame is answered with an
  /// error frame and the connection survives. When set, appends are O(1)
  /// and bounded (the log drops, never blocks), so the event loop handles
  /// them inline without a dispatcher round-trip; the ack reports whether
  /// the event was accepted or dropped. Must outlive the server.
  online::FeedbackLog* feedback_log = nullptr;
  /// Optional provider of online-loop counters (typically
  /// `OnlineTrainer::Stats`). When set, stats scrapes and `StatsWithNet`
  /// include the `online` block. Called from dispatcher threads and from
  /// `StatsWithNet` callers — must be thread-safe. Must outlive the
  /// server.
  std::function<serve::OnlineStats()> online_stats;
  /// Force the portable poll(2) backend instead of epoll(7) (Linux).
  /// Functionally identical; epoll scales better past a few hundred fds.
  bool use_poll = false;
  /// Decoder bounds applied to every inbound frame.
  CodecLimits limits;
  /// Deterministic fault injection (tests only; see net/fault.h). When
  /// set, socket reads/writes on the event loop consult the plan: reads
  /// may be clamped short, writes split partial, connections dropped, and
  /// completed response frames held for a few ticks — all on a seeded,
  /// replayable schedule. Null (the default) leaves every I/O path
  /// untouched. Borrowed; must outlive the server.
  FaultPlan* fault_plan = nullptr;
};

/// The network serving front-end: a non-blocking accept + connection loop
/// that reads length-prefixed score-request frames, submits them through
/// the wrapped `ServingRouter` (admission, cache, and hot-swap semantics
/// all apply unchanged), and writes response frames back — possibly out
/// of order per connection; the request id correlates them.
///
/// ## Threading
///
/// One event-loop thread owns every connection (sockets, buffers,
/// timers); `num_dispatchers` threads only move work between the loop and
/// the router through two locked queues, so no socket state is ever
/// shared across threads. A self-pipe wakes the loop when a dispatcher
/// completes a response.
///
/// ## Graceful drain
///
/// `Stop()` closes the listener, stops parsing new frames, lets every
/// already-parsed request finish *on the model version the router
/// resolves for it* (mirroring `LoadSlot`'s zero-drop swap guarantee
/// across the wire), flushes every response frame, sends FIN, lingers
/// briefly to avoid an RST racing the client's last read, then closes.
/// Zero in-flight responses are dropped; `NetStats::dropped_responses`
/// stays 0 across a drain.
///
/// The server borrows `router` (must outlive it) and never shuts the
/// router down — the owner decides whether the router keeps serving
/// in-process traffic after the socket front-end stops.
class Server {
 public:
  explicit Server(serve::ServingRouter& router, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the loop + dispatcher threads. Returns
  /// false (with the server stopped) if the address cannot be bound.
  bool Start();

  /// The bound port (after a successful `Start`); useful with `port = 0`.
  uint16_t port() const { return port_; }

  /// Graceful drain as described above. Idempotent; called by the
  /// destructor. Safe to call from any thread except the loop itself.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Connection-layer counters (see `serve::NetStats`).
  serve::NetStats stats() const;

  /// Router stats with the `net` section filled in — the one-call ops
  /// readout for a networked deployment.
  serve::RouterStats StatsWithNet() const;

  /// Event-loop backend: epoll on Linux, poll(2) everywhere (and on
  /// Linux when `use_poll` is set). Public only so the implementations
  /// (anonymous namespace in server.cc) can subclass it.
  class Poller;

 private:
  struct Connection;

  struct Work {
    uint64_t conn_id = 0;
    /// What the dispatcher should do: score (the default), answer a stats
    /// scrape, or apply a remote snapshot load. Admin work rides the same
    /// queue and inflight accounting as scores, so a graceful drain
    /// flushes admin answers too.
    FrameType type = FrameType::kScoreRequest;
    WireRequest request;
    uint64_t admin_request_id = 0;
    StatsFormat stats_format = StatsFormat::kBinary;
    std::string load_slot;
    std::string load_path;
    WirePageRequest page;
  };
  struct Completion {
    uint64_t conn_id = 0;
    std::vector<uint8_t> frame;  // Encoded response, ready to write.
  };

  void LoopThread();
  void DispatcherThread();
  /// Page fan-out on a dispatcher thread: submits every list of the page
  /// through the router (they micro-batch together), gathers the routed
  /// orders, runs the cross-list greedy pass when every list came back
  /// clean, and encodes the page response frame into `frame_out`.
  void ServePage(WirePageRequest page, std::vector<uint8_t>* frame_out);

  void AcceptReady();
  /// Reads until EAGAIN, then parses every complete frame in the buffer.
  void ReadReady(Connection* conn);
  /// Flushes as much buffered response data as the socket accepts.
  void WriteReady(Connection* conn);
  void ParseFrames(Connection* conn);
  void HandleFrame(Connection* conn, Frame frame);
  /// Charges the connection's inflight count and hands `work` to the
  /// dispatcher pool.
  void EnqueueWork(Connection* conn, Work work);
  /// Appends bytes to the connection's write queue and tries an
  /// opportunistic immediate flush.
  void QueueWrite(Connection* conn, std::vector<uint8_t> bytes);
  void QueueWriteTagged(Connection* conn, std::vector<uint8_t> bytes,
                        bool is_response);
  void DrainCompletions();
  void CloseConnection(uint64_t conn_id);
  void UpdateInterest(Connection* conn);
  void EnforceTimeouts();
  /// Fault seam: ages injected frame delays by one event-loop tick and
  /// flushes frames whose hold expired. No-op without a fault plan.
  void TickFaultDelays();
  /// True once every parsed request has been answered and flushed.
  bool DrainComplete() const;

  serve::ServingRouter& router_;
  const ServerConfig config_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;

  std::unique_ptr<Poller> poller_;
  /// Owned exclusively by the loop thread.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Work> work_;
  bool work_closed_ = false;

  std::mutex completion_mu_;
  std::deque<Completion> completions_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread loop_;
  std::vector<std::thread> dispatchers_;

  serve::stats::LiveStats<serve::NetStats> net_stats_;
  serve::stats::LiveStats<serve::PageStats> page_stats_;
};

}  // namespace rapid::net

#endif  // RAPID_NET_SERVER_H_
