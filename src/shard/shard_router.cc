#include "shard/shard_router.h"

#include <algorithm>
#include <utility>

#include "serve/stats_merge.h"

namespace rapid::shard {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

ShardRouter::ShardRouter(std::vector<ShardEndpoint> endpoints,
                         ShardRouterConfig config)
    : config_(config), ring_(config.ring) {
  shards_.reserve(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    auto shard = std::make_unique<Shard>(config_.limits);
    shard->endpoint = std::move(endpoints[i]);
    shards_.push_back(std::move(shard));
    ring_.AddShard(static_cast<int>(i));
  }
}

ShardRouter::~ShardRouter() { Shutdown(); }

bool ShardRouter::Start() {
  if (running_.exchange(true)) return true;
  int connected = 0;
  for (auto& shard : shards_) {
    // Dial before spawning the receiver so a reachable fleet is healthy the
    // moment Start returns; unreachable shards stay unhealthy and their
    // receiver keeps redialing in the background.
    if (shard->client.Connect(shard->endpoint.host, shard->endpoint.port)) {
      shard->healthy.store(true, std::memory_order_release);
      ++connected;
    }
    shard->receiver = std::thread(&ShardRouter::ReceiverLoop, this,
                                  shard.get());
  }
  return connected > 0;
}

void ShardRouter::Shutdown() {
  if (!running_.exchange(false)) return;
  for (auto& shard : shards_) {
    if (shard->receiver.joinable()) shard->receiver.join();
    FailAllPending(shard.get(), "shard router shut down");
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->client.Close();
    shard->healthy.store(false, std::memory_order_release);
  }
}

bool ShardRouter::ShardHealthy(int shard) const {
  if (shard < 0 || static_cast<size_t>(shard) >= shards_.size()) return false;
  return shards_[static_cast<size_t>(shard)]->healthy.load(
      std::memory_order_acquire);
}

ShardReply ShardRouter::FailedReply(int shard_index, std::string error) {
  ShardReply reply;
  reply.ok = false;
  reply.shard = shard_index;
  reply.error = std::move(error);
  return reply;
}

std::future<ShardReply> ShardRouter::Submit(net::WireRequest request) {
  std::promise<ShardReply> promise;
  std::future<ShardReply> future = promise.get_future();
  const int shard_index = ring_.ShardFor(request.list.user_id);
  if (shard_index < 0 || !running_.load(std::memory_order_acquire)) {
    promise.set_value(FailedReply(shard_index, "no shards on the ring"));
    return future;
  }
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];
  if (!shard.healthy.load(std::memory_order_acquire)) {
    // Fast-fail: a dead shard answers immediately instead of queueing the
    // caller behind a socket that cannot make progress.
    shard.failed.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(FailedReply(shard_index, "shard down"));
    return future;
  }
  // Ids come from the router, not the client, so the pending entry can be
  // registered before the bytes hit the wire — a reply can never arrive
  // ahead of its own bookkeeping.
  const uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.request_id = id;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Re-checked under the lock: Shutdown's final drain (FailAllPending)
    // also takes shard.mu, so an entry inserted while this load still saw
    // `running_` is ordered before that drain and gets failed by it —
    // never stranded after the receiver has been joined.
    if (!running_.load(std::memory_order_acquire)) {
      promise.set_value(FailedReply(shard_index, "shard router shut down"));
      return future;
    }
    auto [it, inserted] = shard.pending.try_emplace(id);
    it->second.promise = std::move(promise);
    it->second.deadline = deadline;
    const bool sent =
        shard.client.connected() && shard.client.Send(&request) != 0;
    if (!sent) {
      // Never redial here: the receiver thread reads this Client without
      // the lock, so only it may reconnect (Reconnect mutates the fd and
      // buffers a concurrent read is using). Mark the shard down, fail
      // this request, and let the receiver's backoff loop recover.
      shard.healthy.store(false, std::memory_order_release);
      shard.failed.fetch_add(1, std::memory_order_relaxed);
      Pending pending = std::move(it->second);
      shard.pending.erase(it);
      pending.promise.set_value(FailedReply(shard_index, "send failed"));
      return future;
    }
    shard.sent.fetch_add(1, std::memory_order_relaxed);
  }
  return future;
}

ShardReply ShardRouter::Call(net::WireRequest request) {
  return Submit(std::move(request)).get();
}

void ShardRouter::ResolveReply(Shard* shard, net::Client::Reply reply) {
  const uint64_t id = reply.request_id();
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->pending.find(id);
    if (it == shard->pending.end()) return;  // Late reply past its timeout.
    pending = std::move(it->second);
    shard->pending.erase(it);
  }
  ShardReply out;
  out.shard = IndexOf(shard);
  if (reply.is_error) {
    out.ok = false;
    out.error = std::move(reply.error_message);
    shard->error_frames.fetch_add(1, std::memory_order_relaxed);
  } else if (reply.type == net::FrameType::kScoreResponse) {
    out.ok = true;
    out.response = std::move(reply.response);
    shard->ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A stats/load frame on the score connection — nothing sends those
    // here, but surface rather than hang.
    out.ok = false;
    out.error = "unexpected admin frame on score connection";
    shard->error_frames.fetch_add(1, std::memory_order_relaxed);
  }
  pending.promise.set_value(std::move(out));
}

int ShardRouter::IndexOf(const Shard* shard) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].get() == shard) return static_cast<int>(i);
  }
  return -1;
}

void ShardRouter::FailAllPending(Shard* shard, const std::string& reason) {
  std::vector<Pending> doomed;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    doomed.reserve(shard->pending.size());
    for (auto& [id, pending] : shard->pending) {
      doomed.push_back(std::move(pending));
    }
    shard->pending.clear();
  }
  const int shard_index = IndexOf(shard);
  shard->failed.fetch_add(doomed.size(), std::memory_order_relaxed);
  for (Pending& pending : doomed) {
    // set_value outside the lock: a caller's .get() continuation may call
    // back into Submit.
    pending.promise.set_value(FailedReply(shard_index, reason));
  }
}

void ShardRouter::ExpirePending(Shard* shard) {
  if (config_.request_timeout_ms <= 0) return;
  const auto now = Clock::now();
  std::vector<Pending> expired;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->pending.begin(); it != shard->pending.end();) {
      if (it->second.deadline <= now) {
        expired.push_back(std::move(it->second));
        it = shard->pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (expired.empty()) return;
  const int shard_index = IndexOf(shard);
  shard->timeouts.fetch_add(expired.size(), std::memory_order_relaxed);
  for (Pending& pending : expired) {
    pending.promise.set_value(FailedReply(shard_index, "request timed out"));
  }
}

void ShardRouter::ReceiverLoop(Shard* shard) {
  int backoff_ms = config_.backoff_initial_ms;
  while (running_.load(std::memory_order_acquire)) {
    if (!shard->healthy.load(std::memory_order_acquire)) {
      // A submit may have marked the shard down on a send failure without
      // draining the map (it owns neither the socket nor the redial).
      // Whatever is still in flight can never be answered once we redial —
      // Reconnect discards the old stream — so fail it ahead of the
      // timeout scan.
      FailAllPending(shard, "shard connection lost");
      // Redial with exponential backoff. Sleep *outside* the lock so
      // Submit's fast-fail path never blocks behind a backoff wait.
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        if (shard->client.Reconnect()) {
          shard->reconnects.fetch_add(1, std::memory_order_relaxed);
          shard->healthy.store(true, std::memory_order_release);
          backoff_ms = config_.backoff_initial_ms;
          continue;
        }
      }
      const auto wake = Clock::now() + std::chrono::milliseconds(backoff_ms);
      while (running_.load(std::memory_order_acquire) && Clock::now() < wake) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min(backoff_ms, config_.poll_slice_ms)));
      }
      backoff_ms = std::min(backoff_ms * 2, config_.backoff_max_ms);
      continue;
    }
    // The receiver reads the socket without shard->mu — POSIX permits a
    // concurrent read and write on one fd — and only takes the lock inside
    // ResolveReply to touch the pending map.
    net::Client::Reply reply;
    const net::Client::RecvStatus status =
        shard->client.ReceiveStatus(&reply, config_.poll_slice_ms);
    switch (status) {
      case net::Client::RecvStatus::kOk:
        ResolveReply(shard, std::move(reply));
        break;
      case net::Client::RecvStatus::kTimeout:
        break;  // Nothing arrived this slice; fall through to the scan.
      case net::Client::RecvStatus::kClosed:
        // Requests in flight on the dead connection can never be answered;
        // fail them now rather than letting the timeout scan find them.
        shard->healthy.store(false, std::memory_order_release);
        FailAllPending(shard, "shard connection lost");
        break;
    }
    ExpirePending(shard);
  }
}

RolloutResult ShardRouter::Rollout(const std::string& slot,
                                   const std::string& path) {
  std::lock_guard<std::mutex> rollout_lock(rollout_mu_);
  RolloutResult result;
  result.versions.assign(shards_.size(), 0);

  // Admin round-trips use fresh short-lived connections: a slow snapshot
  // load must not stall pipelined score traffic, and a half-dead score
  // socket must not veto a rollout.
  auto load_on = [&](size_t i, const std::string& p, uint64_t* version,
                     std::string* message) -> bool {
    net::Client admin(config_.limits);
    if (!admin.Connect(shards_[i]->endpoint.host, shards_[i]->endpoint.port)) {
      return false;
    }
    return admin.RemoteLoadSlot(slot, p, version, message,
                                config_.admin_timeout_ms);
  };

  // Phase 1: canary. The first reachable shard takes the snapshot alone;
  // the fleet is untouched until it publishes.
  int canary = -1;
  for (size_t i = 0; i < shards_.size(); ++i) {
    uint64_t version = 0;
    std::string message;
    if (!load_on(i, path, &version, &message)) continue;
    canary = static_cast<int>(i);
    result.canary_shard = canary;
    if (version == 0) {
      result.status = RolloutStatus::kCanaryRejected;
      result.detail = "canary shard " + std::to_string(canary) +
                      " rejected: " + message;
      return result;
    }
    result.versions[i] = version;
    break;
  }
  if (canary < 0) {
    result.status = RolloutStatus::kNoShards;
    result.detail = "no shard reachable for canary";
    return result;
  }

  // Phase 2: fleet. Stop at the first refusal — shards past it never see
  // the new snapshot, which keeps the rollback set minimal.
  std::vector<size_t> published = {static_cast<size_t>(canary)};
  std::string failure;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (static_cast<int>(i) == canary) continue;
    uint64_t version = 0;
    std::string message;
    if (!load_on(i, path, &version, &message)) {
      // Unreachable is not a failure: the shard is down, and a rollout
      // cannot wait for it. It picks the snapshot up when it restarts.
      continue;
    }
    if (version == 0) {
      failure = "shard " + std::to_string(i) + " rejected: " + message;
      break;
    }
    result.versions[i] = version;
    published.push_back(i);
  }

  if (failure.empty()) {
    result.status = RolloutStatus::kCommitted;
    last_committed_path_[slot] = path;
    return result;
  }

  // Phase 3: rollback. Re-apply the previous committed snapshot to every
  // shard that already published the new one.
  const auto prev = last_committed_path_.find(slot);
  if (prev == last_committed_path_.end()) {
    result.status = RolloutStatus::kRollbackFailed;
    result.detail = failure + "; no previous committed snapshot to roll back "
                              "to — fleet is mixed";
    return result;
  }
  std::string stuck;
  for (size_t i : published) {
    uint64_t version = 0;
    std::string message;
    if (!load_on(i, prev->second, &version, &message) || version == 0) {
      stuck += (stuck.empty() ? "shard " : ", shard ") + std::to_string(i);
      continue;
    }
    result.versions[i] = 0;  // Back on the old snapshot.
  }
  if (!stuck.empty()) {
    result.status = RolloutStatus::kRollbackFailed;
    result.detail = failure + "; rollback failed on " + stuck;
    return result;
  }
  result.status = RolloutStatus::kRolledBack;
  result.detail = failure + "; fleet rolled back";
  return result;
}

FleetStats ShardRouter::Stats() {
  FleetStats fleet;
  fleet.shards.reserve(shards_.size());
  for (auto& shard : shards_) {
    ShardStats stats;
    stats.sent = shard->sent.load(std::memory_order_relaxed);
    stats.ok = shard->ok.load(std::memory_order_relaxed);
    stats.error_frames = shard->error_frames.load(std::memory_order_relaxed);
    stats.failed = shard->failed.load(std::memory_order_relaxed);
    stats.timeouts = shard->timeouts.load(std::memory_order_relaxed);
    stats.reconnects = shard->reconnects.load(std::memory_order_relaxed);
    stats.healthy = shard->healthy.load(std::memory_order_acquire);
    fleet.shards.push_back(stats);

    net::Client admin(config_.limits);
    if (!admin.Connect(shard->endpoint.host, shard->endpoint.port)) continue;
    serve::RouterStats scraped;
    if (!admin.GetStats(&scraped, config_.admin_timeout_ms)) continue;
    serve::MergeInto(&fleet.merged, scraped);
    ++fleet.shards_up;
  }
  return fleet;
}

std::string FleetStats::ToTable() const {
  std::string out = "fleet " + std::to_string(shards_up) + " shards up / " +
                    std::to_string(shards.size()) + "\n";
  for (size_t i = 0; i < shards.size(); ++i) {
    out += "shard " + std::to_string(i) + ":\n" +
           serve::stats::RenderTable(shards[i]);
  }
  return out + merged.ToTable();
}

std::string FleetStats::ToJson() const {
  std::string out = "{\"shards_up\":" + std::to_string(shards_up);
  out += ",\"shards\":[";
  for (size_t i = 0; i < shards.size(); ++i) {
    out += (i > 0 ? "," : "") + serve::stats::RenderJson(shards[i]);
  }
  out += "],\"merged\":" + merged.ToJson() + "}";
  return out;
}

}  // namespace rapid::shard
