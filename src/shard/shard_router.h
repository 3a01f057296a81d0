#ifndef RAPID_SHARD_SHARD_ROUTER_H_
#define RAPID_SHARD_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/codec.h"
#include "serve/metrics.h"
#include "serve/router.h"
#include "shard/ring.h"

namespace rapid::shard {

/// One shard's network address (a running `net::Server`).
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct ShardRouterConfig {
  /// Ring geometry; the ring is seeded with shard indices 0..N-1 in
  /// endpoint order, so two routers over the same endpoint list agree.
  RingConfig ring;
  /// A routed request with no reply after this long fails with a timeout
  /// reply (the shard may still answer later; the late reply is dropped
  /// by id). 0 disables the scan.
  int request_timeout_ms = 2000;
  /// Receiver redial backoff after a shard connection dies: first retry
  /// after `backoff_initial_ms`, doubling to `backoff_max_ms`.
  int backoff_initial_ms = 10;
  int backoff_max_ms = 1000;
  /// Receive slice the receiver threads poll in; bounds how stale the
  /// timeout scan and shutdown notice can be.
  int poll_slice_ms = 50;
  /// Timeout for admin round-trips (stats scrape, rollout load). Remote
  /// loads rebuild a snapshot server-side, so this is generous.
  int admin_timeout_ms = 10000;
  net::CodecLimits limits;
};

/// Client-side counters of one shard connection.
struct ShardStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t error_frames = 0;
  uint64_t failed = 0;
  uint64_t timeouts = 0;
  uint64_t reconnects = 0;
  bool healthy = false;

  template <typename F>
  static void Fields(F&& f) {
    using serve::stats::Field;
    using K = serve::stats::Kind;
    f(Field{1, "sent", K::kCounter, "requests", "Requests sent."},
      &ShardStats::sent);
    f(Field{2, "ok", K::kCounter, "requests",
            "Score responses correlated back to a caller."},
      &ShardStats::ok);
    f(Field{3, "error_frames", K::kCounter, "requests",
            "Server error frames surfaced to callers."},
      &ShardStats::error_frames);
    f(Field{4, "failed", K::kCounter, "requests",
            "Requests failed locally: shard down at submit, send failure, "
            "or connection death with the request in flight."},
      &ShardStats::failed);
    f(Field{5, "timeouts", K::kCounter, "requests",
            "Requests failed by the timeout scan."},
      &ShardStats::timeouts);
    f(Field{6, "reconnects", K::kCounter, "redials",
            "Successful redials after a connection died."},
      &ShardStats::reconnects);
    f(Field{7, "healthy", K::kGauge, "", "Shard connection is up."},
      &ShardStats::healthy);
  }
};

/// One answered (or failed) fan-out request.
struct ShardReply {
  /// True when a score response arrived — inspect `response`. False means
  /// the failure is local or an error frame: `error` says which, and
  /// `response.items` is empty (callers degrade themselves; the shard
  /// router does not invent rankings).
  bool ok = false;
  std::string error;
  /// Which shard the ring routed to (-1 if the ring was empty).
  int shard = -1;
  net::WireResponse response;
};

/// How a coordinated rollout ended.
enum class RolloutStatus {
  /// Canary published, every other live shard published: the fleet serves
  /// the new snapshot.
  kCommitted,
  /// The canary shard refused the snapshot (load failure or canary-probe
  /// rejection). Nothing was applied anywhere else; the fleet is
  /// untouched.
  kCanaryRejected,
  /// Some post-canary shard refused; every shard that had published was
  /// rolled back to the previous committed snapshot. The fleet is
  /// consistent on the old version.
  kRolledBack,
  /// A rollback re-apply itself failed (or there was no previous
  /// committed snapshot to re-apply): the fleet is mixed and needs an
  /// operator. `detail` names the shards.
  kRollbackFailed,
  /// No shard was reachable.
  kNoShards,
};

struct RolloutResult {
  RolloutStatus status = RolloutStatus::kNoShards;
  int canary_shard = -1;
  /// Per-shard published version; 0 = not applied (down, refused, or
  /// rolled back).
  std::vector<uint64_t> versions;
  std::string detail;
};

/// Fleet-wide stats: the per-shard `RouterStats` scrapes merged into one
/// (see serve/stats_merge.h for the merge semantics) plus the router's
/// own client-side counters.
struct FleetStats {
  serve::RouterStats merged;
  std::vector<ShardStats> shards;
  /// Shards that answered the scrape.
  int shards_up = 0;

  std::string ToTable() const;
  std::string ToJson() const;
};

/// The scale-out front-end: N independent `net::Server` processes behind
/// one submit interface.
///
/// ## Fan-out
///
/// `Submit` hashes the request's user id on the consistent ring, picks
/// that shard's pipelined connection, and sends with a router-assigned
/// request id. A receiver thread per shard correlates replies — which
/// arrive out of order (a cache hit on the shard overtakes a model run) —
/// back to promises by id.
///
/// ## Degradation
///
/// A shard marked unhealthy fast-fails its requests (no queueing behind a
/// dead socket, no hangs); its receiver redials with exponential backoff
/// and flips it healthy again on success. Server error frames resolve the
/// caller's future with `ok = false` and the message — never a hang.
/// In-flight requests on a dying connection fail immediately; requests
/// with no reply past `request_timeout_ms` fail via the timeout scan.
///
/// ## Threading
///
/// Senders (any thread calling `Submit`) serialize on a per-shard mutex
/// that guards the pending map and the socket write; each shard's
/// receiver thread reads the same socket *without* that mutex (POSIX
/// allows concurrent read/write on one fd) and takes it only to resolve
/// pending entries or redial. The receiver alone may reconnect or close
/// the connection — `Reconnect` replaces the fd and read buffers its own
/// lock-free read is using, so a sender that hits a send failure only
/// marks the shard unhealthy and fails the request; the redial is the
/// receiver's. Request ids are assigned and the pending entry inserted
/// *before* the bytes hit the wire, so a reply can never race its own
/// bookkeeping, and `Submit` re-checks `running_` under the shard lock so
/// a racing `Shutdown` always drains (never strands) a just-registered
/// promise.
///
/// Admin traffic (stats scrape, rollout) uses short-lived dedicated
/// connections per call, never the pipelined score connections.
class ShardRouter {
 public:
  explicit ShardRouter(std::vector<ShardEndpoint> endpoints,
                       ShardRouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Dials every shard and starts the receiver threads. True if at least
  /// one shard connected; unreachable shards start unhealthy and their
  /// receivers keep redialing in the background.
  bool Start();

  /// Fails outstanding requests, joins receivers, closes connections.
  /// Idempotent; called by the destructor.
  void Shutdown();

  size_t num_shards() const { return shards_.size(); }

  /// Ring lookup only (no I/O): which shard owns `user_id`.
  int ShardFor(int64_t user_id) const { return ring_.ShardFor(user_id); }

  bool ShardHealthy(int shard) const;

  /// Routes by `request.list.user_id`. The returned future always
  /// resolves — with a score response, an error-frame message, or a
  /// local failure — never hangs on a dead shard.
  std::future<ShardReply> Submit(net::WireRequest request);

  /// Synchronous convenience around `Submit`.
  ShardReply Call(net::WireRequest request);

  /// Coordinated snapshot rollout: apply `LoadSlot(slot, path)` on one
  /// canary shard first; only if the canary publishes, roll the rest of
  /// the fleet; on a partial failure re-apply the previous committed
  /// snapshot to every shard that had published. Serving traffic is
  /// never interrupted — each shard swaps atomically (`LoadSlot`
  /// semantics) and the fleet is version-mixed only between the canary
  /// publish and the last follower publish (or rollback).
  ///
  /// `path` must name the snapshot on each shard server's filesystem
  /// (same path fleet-wide — shards share a snapshot store), and the
  /// servers must run `enable_remote_load`.
  RolloutResult Rollout(const std::string& slot, const std::string& path);

  /// Scrapes every live shard's `RouterStats` over the wire and merges
  /// them (request-weighted percentiles; see serve/stats_merge.h).
  FleetStats Stats();

  const ShardRouterConfig& config() const { return config_; }

 private:
  struct Pending {
    std::promise<ShardReply> promise;
    std::chrono::steady_clock::time_point deadline;
  };

  /// One shard connection: the pipelined client, its pending map, and the
  /// receiver that drains it. `mu` guards `client` sends, `pending`, and
  /// redials; `healthy` is read lock-free on the submit fast path.
  struct Shard {
    explicit Shard(net::CodecLimits limits) : client(limits) {}
    ShardEndpoint endpoint;
    std::mutex mu;
    net::Client client;
    std::map<uint64_t, Pending> pending;
    std::atomic<bool> healthy{false};
    std::thread receiver;
    // Counters (relaxed; snapshotted by Stats()).
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> error_frames{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> reconnects{0};
  };

  void ReceiverLoop(Shard* shard);
  int IndexOf(const Shard* shard) const;
  /// Resolves one received reply against the pending map.
  void ResolveReply(Shard* shard, net::Client::Reply reply);
  /// Fails every pending entry (connection death, shutdown).
  void FailAllPending(Shard* shard, const std::string& reason);
  /// Fails entries whose deadline passed.
  void ExpirePending(Shard* shard);
  static ShardReply FailedReply(int shard_index, std::string error);

  const ShardRouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<bool> running_{false};
  /// Previous committed snapshot per slot — what a failed rollout rolls
  /// back to. Guarded by `rollout_mu_`; rollouts are serialized.
  std::mutex rollout_mu_;
  std::map<std::string, std::string> last_committed_path_;
};

}  // namespace rapid::shard

#endif  // RAPID_SHARD_SHARD_ROUTER_H_
