#include "serve/router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/snapshot.h"

namespace rapid::serve {

namespace {

/// `value` as a quoted JSON string. Slot names can arrive from the wire
/// (a remote load, a shard rollout), so quotes, backslashes and control
/// characters are escaped.
std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

RouterConfig Sanitized(RouterConfig cfg) {
  cfg.num_threads = std::max(cfg.num_threads, 1);
  cfg.max_batch = std::max(cfg.max_batch, 1);
  cfg.max_wait_us = std::max(cfg.max_wait_us, 0);
  cfg.queue_capacity = std::max(cfg.queue_capacity, 1);
  cfg.deadline_us = std::max<int64_t>(cfg.deadline_us, 0);
  return cfg;
}

}  // namespace

ServingRouter::ServingRouter(const data::Dataset& data, RouterConfig config)
    : data_(data),
      config_(Sanitized(config)),
      admission_(config_.admission, config_.queue_capacity),
      cache_(config_.cache),
      queue_(static_cast<size_t>(config_.queue_capacity)) {
  workers_.reserve(config_.num_threads);
  for (int i = 0; i < config_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingRouter::~ServingRouter() { Shutdown(); }

uint64_t ServingRouter::LoadSlot(const std::string& slot,
                                 const std::string& path) {
  // The expensive part of the swap — rebuilding the model from disk —
  // happens here on the caller's thread; workers keep answering from the
  // old version until the Publish below swaps the slot pointer.
  std::unique_ptr<rerank::NeuralReranker> model = Snapshot::LoadAny(path, data_);
  if (model == nullptr) return 0;
  if (!CanaryPasses(slot, path, *model)) {
    rejections_.Add(&RouterStats::canary_rejected);
    return 0;
  }
  const uint64_t version = registry_.Publish(
      slot, WrapForSlot(slot, std::shared_ptr<const rerank::Reranker>(
                                  std::move(model))));
  // Entries cached under older versions became unreachable with the
  // publish (the version is part of the key); reclaim their memory, and
  // retire the slot's remembered "no such slot" answers, before returning.
  cache_.Sweep(slot, version);
  return version;
}

uint64_t ServingRouter::InstallSlot(
    const std::string& slot, std::shared_ptr<const rerank::Reranker> model) {
  if (model == nullptr) return 0;
  const uint64_t version = registry_.Publish(slot, WrapForSlot(slot, std::move(model)));
  cache_.Sweep(slot, version);
  return version;
}

void ServingRouter::SetSlotWrapper(const std::string& slot,
                                   ModelWrapper wrapper) {
  std::lock_guard<std::mutex> lock(wrapper_mu_);
  if (wrapper == nullptr) {
    wrappers_.erase(slot);
  } else {
    wrappers_[slot] = std::move(wrapper);
  }
}

bool ServingRouter::ClearSlotWrapper(const std::string& slot) {
  std::lock_guard<std::mutex> lock(wrapper_mu_);
  return wrappers_.erase(slot) > 0;
}

std::shared_ptr<const rerank::Reranker> ServingRouter::WrapForSlot(
    const std::string& slot,
    std::shared_ptr<const rerank::Reranker> model) const {
  ModelWrapper wrapper;
  {
    std::lock_guard<std::mutex> lock(wrapper_mu_);
    const auto it = wrappers_.find(slot);
    if (it == wrappers_.end()) return model;
    wrapper = it->second;  // Copied so the user callback runs unlocked.
  }
  std::shared_ptr<const rerank::Reranker> wrapped = wrapper(model);
  // A wrapper returning null must not turn a valid publish into an
  // unpublish; fall back to the unwrapped model.
  return wrapped != nullptr ? std::move(wrapped) : std::move(model);
}

bool ServingRouter::RemoveSlot(const std::string& slot) {
  if (!registry_.Remove(slot)) return false;
  cache_.Sweep(slot, /*live_version=*/0);
  return true;
}

void ServingRouter::SetCanary(const std::string& slot, CanaryProbe probe) {
  std::lock_guard<std::mutex> lock(canary_mu_);
  canaries_[slot] = std::move(probe);
}

bool ServingRouter::ClearCanary(const std::string& slot) {
  std::lock_guard<std::mutex> lock(canary_mu_);
  return canaries_.erase(slot) > 0;
}

bool ServingRouter::CanaryPasses(const std::string& slot,
                                 const std::string& path,
                                 const rerank::NeuralReranker& model) const {
  CanaryProbe probe;
  bool have_probe = false;
  {
    std::lock_guard<std::mutex> lock(canary_mu_);
    const auto it = canaries_.find(slot);
    if (it != canaries_.end()) {
      probe = it->second;
      have_probe = true;
    }
  }
  if (!have_probe) {
    // No explicit canary for the slot: fall back to the probe the snapshot
    // auto-recorded at save time (format v3+). A probe referencing entities
    // outside this serving dataset was recorded against a different world —
    // scoring it would index out of range — so it is treated as absent.
    if (!Snapshot::ReadCanary(path, &probe)) return true;
    if (probe.list.user_id < 0 ||
        static_cast<size_t>(probe.list.user_id) >= data_.users.size()) {
      return true;
    }
    for (int id : probe.list.items) {
      if (id < 0 || static_cast<size_t>(id) >= data_.items.size()) return true;
    }
  }
  const std::vector<float> scores = model.ScoreList(data_, probe.list);
  if (scores.size() != probe.expected_scores.size()) return false;
  for (size_t i = 0; i < scores.size(); ++i) {
    const float drift = std::fabs(scores[i] - probe.expected_scores[i]);
    // Negated comparison so NaN drift (corrupted weights can produce NaN
    // scores) fails the probe instead of slipping through.
    if (!(drift <= probe.tolerance)) return false;
  }
  return true;
}

void ServingRouter::WorkerLoop() {
  std::vector<PendingRequest> batch;
  batch.reserve(config_.max_batch);
  while (queue_.PopBatch(static_cast<size_t>(config_.max_batch),
                         std::chrono::microseconds(config_.max_wait_us),
                         &batch) > 0) {
    ProcessBatch(batch);
    batch.clear();
  }
}

void ServingRouter::ProcessBatch(std::span<PendingRequest> batch) {
  // Triage: resolve each request's slot exactly once (the swap-consistency
  // invariant — attribution and cache inserts below reuse the same
  // resolved version) and degrade requests the model won't answer.
  // Survivors are grouped by resolved model so a dequeued batch mixing
  // slots, or racing a hot swap, still runs one batched forward per
  // distinct published model.
  const auto now = std::chrono::steady_clock::now();
  struct Group {
    std::shared_ptr<const ServedModel> served;
    std::vector<PendingRequest*> requests;
  };
  std::vector<Group> groups;
  for (PendingRequest& request : batch) {
    // The request left the queue: its slot-quota charge is returned now,
    // before any processing, so the quota tracks queue depth only.
    if (request.charged) {
      admission_.ReleaseSlot(request.request.slot);
      request.charged = false;
    }
    std::shared_ptr<const ServedModel> served =
        registry_.Acquire(request.request.slot);
    if (served == nullptr) {
      rejections_.Add(&RouterStats::unknown_slot);
      // Remembered before the promise resolves, so a replay of the same
      // bad request is answered inline at submit time. The fingerprint was
      // computed on the submit path (negative lookups precede everything
      // else there).
      cache_.InsertNegative(request.request.slot, request.fingerprint,
                            request.request.list.items);
      Degrade(&request, nullptr);
      continue;
    }
    if (config_.deadline_us > 0 &&
        now - request.enqueued_at >=
            std::chrono::microseconds(config_.deadline_us)) {
      Degrade(&request, served.get());
      continue;
    }
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.served.get() == served.get()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back({std::move(served), {}});
      group = &groups.back();
    }
    group->requests.push_back(&request);
  }

  for (Group& group : groups) {
    const ServedModel& served = *group.served;
    aggregate_metrics_.RecordBatch(static_cast<int>(group.requests.size()));
    served.metrics->RecordBatch(static_cast<int>(group.requests.size()));
    std::vector<const data::ImpressionList*> lists;
    lists.reserve(group.requests.size());
    for (const PendingRequest* request : group.requests) {
      lists.push_back(&request->request.list);
    }
    // Per-thread scratch kept warm across batches — the model's batched
    // path allocates nothing on the heap once this is sized.
    static thread_local std::vector<std::vector<int>> permutations;
    served.model->RerankBatchInto(data_, lists, &permutations);
    for (size_t i = 0; i < group.requests.size(); ++i) {
      PendingRequest* request = group.requests[i];
      RouterResponse response;
      // Copy out of the scratch; the response (and the cache insert below)
      // own their items independently of the reused buffer.
      response.items = permutations[i];
      response.model_name = served.model_name;
      response.model_version = served.version;
      if (request->cacheable) {
        // Keyed under the version that actually answered — which may
        // already be newer than the one probed at submit time if a swap
        // landed in between. Either way the (version, items) pair is
        // consistent.
        cache_.Insert(request->request.slot, served.version,
                      request->fingerprint,
                      {response.items, served.model_name, served.version});
      }
      Finish(request, std::move(response), &served);
    }
  }
}

void ServingRouter::Degrade(PendingRequest* request, const ServedModel* served,
                            bool shed, bool cache_hit) {
  RouterResponse response;
  response.items = request->request.list.items;
  response.degraded = true;
  response.shed = shed;
  response.cache_hit = cache_hit;
  Finish(request, std::move(response), served);
}

void ServingRouter::Finish(PendingRequest* request, RouterResponse response,
                           const ServedModel* served) {
  response.latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() -
                            request->enqueued_at)
                            .count();
  const uint64_t latency = static_cast<uint64_t>(response.latency_us);
  aggregate_metrics_.RecordRequest(latency, response.degraded);
  if (response.shed) aggregate_metrics_.RecordShed();
  if (served != nullptr) {
    served->metrics->RecordRequest(latency, response.degraded);
    if (response.shed) served->metrics->RecordShed();
  }
  request->promise.set_value(std::move(response));
}

bool ServingRouter::ListInBounds(const data::ImpressionList& list) const {
  if (data_.users.empty() && data_.items.empty()) return true;
  if (list.user_id < 0 ||
      static_cast<size_t>(list.user_id) >= data_.users.size()) {
    return false;
  }
  if (list.scores.size() != list.items.size()) return false;
  for (const int item : list.items) {
    if (item < 0 || static_cast<size_t>(item) >= data_.items.size()) {
      return false;
    }
  }
  return true;
}

std::future<RouterResponse> ServingRouter::Submit(RouterRequest request) {
  PendingRequest pending;
  pending.request = std::move(request);
  pending.enqueued_at = std::chrono::steady_clock::now();
  std::future<RouterResponse> future = pending.promise.get_future();

  // Replayed bad traffic first: a (slot, list) pair the router already
  // rejected — invalid ids or an unknown slot — is answered from the
  // negative cache before re-running the bounds check or occupying a
  // queue slot. The fingerprint covers the items, so the remembered
  // answer is this request's submitted order.
  if (cache_.NegativeEnabled()) {
    pending.fingerprint = ResultCache::Fingerprint(pending.request.list);
    if (cache_.LookupNegative(pending.request.slot, pending.fingerprint)) {
      Degrade(&pending, nullptr, /*shed=*/false, /*cache_hit=*/true);
      return future;
    }
  }

  // Defensive bounds check on caller-supplied ids: a networked caller can
  // put anything on the wire, and an out-of-range user or item id would
  // index past the model's embedding tables. Such requests never reach a
  // model. Datasets without users or items (heuristic-only setups) have
  // no id universe to check against.
  if (!ListInBounds(pending.request.list)) {
    rejections_.Add(&RouterStats::invalid_ids);
    cache_.InsertNegative(pending.request.slot, pending.fingerprint,
                          pending.request.list.items);
    Degrade(&pending, nullptr);
    return future;
  }

  if (shutdown_.load(std::memory_order_acquire)) {
    // Serve inline on the caller's thread so no submission is ever lost.
    // The inline path always runs the model (no cache lookup or insert).
    ProcessBatch({&pending, 1});
    return future;
  }

  if (cache_.enabled()) {
    if (!cache_.EnabledFor(pending.request.slot)) {
      cache_.RecordBypass(pending.request.slot);
    } else if (const std::shared_ptr<const ServedModel> served =
                   registry_.Acquire(pending.request.slot);
               served != nullptr) {
      // Probe under the version published right now. A swap racing this
      // lookup is harmless: the response is stamped with the same version
      // whose cached output it carries, exactly as if the request had been
      // processed an instant before the swap.
      if (pending.fingerprint == 0) {
        pending.fingerprint = ResultCache::Fingerprint(pending.request.list);
      }
      pending.cacheable = true;
      std::optional<ResultCache::CachedResult> hit = cache_.Lookup(
          pending.request.slot, served->version, pending.fingerprint);
      if (hit.has_value()) {
        RouterResponse response;
        response.items = std::move(hit->items);
        response.model_name = std::move(hit->model_name);
        response.model_version = hit->model_version;
        response.cache_hit = true;
        Finish(&pending, std::move(response), served.get());
        return future;
      }
    }
  }

  // Admission: the lane watermark, then the per-slot quota, independent of
  // the global policy — one tenant's burst is shed at its own budget even
  // while the shared queue has room. A shed request is still attributed to
  // its slot.
  const bool admitted = admission_.Admit(pending.request.lane, queue_.size());
  if (!admitted || !admission_.TryChargeSlot(pending.request.slot)) {
    if (admitted) rejections_.Add(&RouterStats::quota_shed);
    Degrade(&pending, registry_.Acquire(pending.request.slot).get(),
            /*shed=*/true);
    return future;
  }
  pending.charged = admission_.has_quotas();

  using PushResult = BoundedRequestQueue<PendingRequest>::PushResult;
  const size_t lane = pending.request.lane == Lane::kHigh ? 0 : 1;
  const bool shed_mode = admission_.config().policy == AdmissionPolicy::kShed;
  PushResult result;
  if (shed_mode) {
    // Shed mode never blocks: losing the TryPush race to capacity is the
    // same signal as the watermark.
    result = queue_.TryPush(std::move(pending), lane);
  } else if (config_.deadline_us > 0) {
    const auto deadline =
        pending.enqueued_at + std::chrono::microseconds(config_.deadline_us);
    result = queue_.PushUntil(std::move(pending), deadline, lane);
  } else {
    result = queue_.Push(std::move(pending), lane) ? PushResult::kOk
                                                   : PushResult::kClosed;
  }

  if (result == PushResult::kOk) {
    aggregate_metrics_.RecordQueueDepth(static_cast<int>(queue_.size()));
  } else if (result == PushResult::kFull && shed_mode) {
    // The request never entered the queue, so its quota charge comes back
    // here.
    if (pending.charged) admission_.ReleaseSlot(pending.request.slot);
    Degrade(&pending, registry_.Acquire(pending.request.slot).get(),
            /*shed=*/true);
  } else {
    // The queue closed under the push, or (block mode) the producer waited
    // out the deadline: a batch of one serves it here, which returns the
    // quota charge and degrades a request that is already past saving.
    ProcessBatch({&pending, 1});
  }
  return future;
}

void ServingRouter::Shutdown() {
  if (shutdown_.exchange(true)) return;
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

RouterStats ServingRouter::stats() const {
  RouterStats out = rejections_.Snapshot();
  out.total = aggregate_metrics_.Snapshot();
  out.cache = cache_.TotalStats();
  out.process = ProcessStats::Capture();
  for (const std::string& name : registry_.Names()) {
    const auto served = registry_.Acquire(name);
    if (served == nullptr) continue;  // Removed since Names().
    out.slots.push_back({name, served->model_name, served->version,
                         served->metrics->Snapshot(), cache_.StatsFor(name)});
  }
  return out;
}

std::string RouterStats::ToTable() const {
  std::string out = "aggregate:\n" + total.ToTable() + cache.ToTable() +
                    stats::RenderTable(*this);
  if (has_net) out += net.ToTable();
  if (has_online) out += online.ToTable();
  if (has_page) out += page.ToTable();
  out += process.ToTable();
  for (const SlotEntry& slot : slots) {
    out += "slot " + slot.slot + " (" + slot.model_name + " v" +
           std::to_string(slot.version) + "):\n";
    out += slot.stats.ToTable();
    out += slot.cache.ToTable();
  }
  return out;
}

std::string RouterStats::ToJson() const {
  std::string out = "{\"total\": " + total.ToJson();
  out += ", \"cache\": " + cache.ToJson();
  if (has_net) out += ", \"net\": " + net.ToJson();
  if (has_online) out += ", \"online\": " + online.ToJson();
  if (has_page) out += ", \"page\": " + page.ToJson();
  out += ", \"process\": " + process.ToJson();
  out += ", " + stats::RenderJsonMembers(*this) + ", \"slots\": {";
  for (const SlotEntry& slot : slots) {
    if (&slot != &slots.front()) out += ", ";
    out += JsonString(slot.slot) + ": {\"model\": " +
           JsonString(slot.model_name) +
           ", \"version\": " + std::to_string(slot.version) +
           ", \"stats\": " + slot.stats.ToJson() +
           ", \"cache\": " + slot.cache.ToJson() + "}";
  }
  out += "}}";
  return out;
}

}  // namespace rapid::serve
