#ifndef RAPID_SERVE_ROUTER_H_
#define RAPID_SERVE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/types.h"
#include "rerank/neural_base.h"
#include "rerank/reranker.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "serve/snapshot.h"

namespace rapid::serve {

struct RouterConfig {
  /// Size of the worker pool, shared by every slot.
  int num_threads = 4;
  /// Requests a worker pulls per micro-batch (may mix slots and lanes).
  int max_batch = 8;
  /// Batching window after the first dequeue of a batch, microseconds.
  int max_wait_us = 200;
  /// Bounded request queue capacity, shared across both priority lanes.
  int queue_capacity = 1024;
  /// Per-request deadline measured from `Submit`; 0 disables. A request
  /// dequeued after its deadline is answered degraded, in submitted order.
  int64_t deadline_us = 0;
  /// Load-shedding policy, lane watermarks and per-slot quotas. The lane
  /// drain is fixed: one low-lane pop after every 4 high-lane pops that
  /// bypassed waiting low-lane work (`BoundedRequestQueue`'s default).
  AdmissionConfig admission;
  /// Router-level result cache (off by default): repeated
  /// (user, candidate-set) requests against the same published model
  /// version are answered inline from a sharded LRU instead of re-running
  /// the forward pass. See `serve::ResultCache` for the swap-consistency
  /// argument.
  CachePolicy cache;
};

/// One routed re-ranking request: which model slot should answer, on which
/// priority lane.
struct RouterRequest {
  std::string slot;
  Lane lane = Lane::kHigh;
  data::ImpressionList list;
};

/// One answered routed request.
struct RouterResponse {
  /// Re-ranked item ids (a permutation of the submitted `list.items`).
  std::vector<int> items;
  /// True if the model did not run (deadline miss, shed, unknown slot or
  /// invalid ids): `items` is then the submitted order, the initial
  /// ranking a final-stage re-ranker falls back to.
  bool degraded = false;
  /// True if admission control rejected the request (implies `degraded`).
  bool shed = false;
  /// Attribution: the published model that answered, or version 0 and an
  /// empty name for degraded responses. Under a concurrent hot swap every
  /// response carries exactly the pre- or the post-swap version — never a
  /// mixture.
  std::string model_name;
  uint64_t model_version = 0;
  /// True if the result cache answered inline (queue and admission lanes
  /// bypassed). For non-degraded hits the items are byte-identical to what
  /// the stamped model version would have produced — only the latency
  /// differs. With `degraded` also set, the hit came from the *negative*
  /// cache: a replay of a previously rejected request, answered with the
  /// remembered degraded items.
  bool cache_hit = false;
  /// End-to-end latency (submit -> response ready), microseconds.
  int64_t latency_us = 0;
};

/// Point-in-time view of the router: per-slot serving stats plus the
/// aggregate across all traffic (including unknown-slot requests).
struct RouterStats {
  struct SlotEntry {
    std::string slot;
    std::string model_name;
    uint64_t version = 0;
    ServingStats stats;
    /// Result-cache counters attributed to this slot.
    CacheStats cache;
  };
  std::vector<SlotEntry> slots;  // Sorted by slot name.
  ServingStats total;
  /// Aggregate result-cache counters across all slots.
  CacheStats cache;
  /// Router-level rejection counters; see `Fields`.
  uint64_t unknown_slot = 0;
  uint64_t invalid_ids = 0;
  uint64_t canary_rejected = 0;
  uint64_t quota_shed = 0;
  /// Process-wide numbers, captured once per snapshot (not per slot).
  ProcessStats process;
  /// Connection-layer counters, filled by `net::Server::StatsWithNet` when
  /// a network front-end wraps this router; absent for in-process use.
  bool has_net = false;
  NetStats net;
  /// Online-loop counters (feedback log + background trainer), filled by
  /// `online::OnlineTrainer::FillStats` / the net server's online-stats
  /// provider when the loop wraps this router; absent otherwise.
  bool has_online = false;
  OnlineStats online;
  /// Page-level reranking counters (`src/page/` served over the wire),
  /// filled by `net::Server::StatsWithNet`; absent for in-process use and
  /// for servers that never saw a `kPageRequest` frame.
  bool has_page = false;
  PageStats page;

  /// The declared table of the router's own counters (the nested blocks
  /// declare theirs).
  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    constexpr auto kCounter = stats::Kind::kCounter;
    // Answered degraded, counted in `total` only.
    f(Field{1, "unknown_slot", kCounter, "requests",
            "Requests naming no registered slot."},
      &RouterStats::unknown_slot);
    // User or item ids outside the dataset, or mismatched score/item
    // lengths: a remote caller probing the serving tier. Answered
    // degraded, in submitted order.
    f(Field{2, "invalid_ids", kCounter, "requests",
            "Requests rejected by the id bounds check."},
      &RouterStats::invalid_ids);
    // LoadSlot returned 0 and the slot kept serving its previous version.
    f(Field{3, "canary_rejected", kCounter, "snapshots",
            "Snapshots rejected by a canary probe before publish."},
      &RouterStats::canary_rejected);
    // Also counted in `shed`; this isolates the per-tenant cause.
    f(Field{4, "quota_shed", kCounter, "requests",
            "Requests shed by a per-slot admission quota."},
      &RouterStats::quota_shed);
  }

  std::string ToTable() const;
  /// One JSON object: `{"total": {...}, "unknown_slot": n, "slots": {...}}`.
  std::string ToJson() const;
};

/// The multi-tenant serving tier: N named model slots served by one shared
/// worker pool, with hot snapshot swap and admission control.
///
/// Requests enter a two-lane bounded queue (high lane drained first,
/// starvation-free) guarded by an `AdmissionController`: under the `kShed`
/// policy a request arriving above its lane's depth watermark is answered
/// immediately, degraded, instead of blocking the caller. Workers
/// micro-batch across slots, grouping each dequeued batch by resolved
/// model and answering every group with a single
/// `Reranker::RerankBatch` call; each request resolves its
/// slot to the currently published `ServedModel` exactly once, so a
/// concurrent `LoadSlot` swap is invisible except through the version
/// stamped on each response: in-flight requests finish on the old model,
/// new dequeues see the new one, and the old snapshot retires when its
/// last reference drops — zero requests are dropped or torn by a swap.
///
/// The router borrows `data` (must outlive it) and owns its models via the
/// registry. Published models must be fitted and uphold the `Reranker`
/// const-inference thread-safety contract (see reranker.h). With
/// `deadline_us == 0` and the default `kBlock` admission, every response
/// for a registered slot is identical to calling its model's `Rerank`
/// directly, for any thread count and batching: scheduling changes only
/// latency.
class ServingRouter {
 public:
  explicit ServingRouter(const data::Dataset& data, RouterConfig config = {});
  ~ServingRouter();

  ServingRouter(const ServingRouter&) = delete;
  ServingRouter& operator=(const ServingRouter&) = delete;

  /// Hot swap: loads the family-tagged snapshot at `path` on the calling
  /// thread (workers keep serving the old version throughout the build),
  /// then atomically publishes it as the new current model of `slot`,
  /// creating the slot on first use. The candidate is scored against a
  /// canary probe *before* publish — the one set via `SetCanary`, or (for
  /// format v3+ snapshots) the probe `Snapshot::Save` auto-recorded in the
  /// file — and a drifting (corrupt-but-parseable) snapshot is rejected.
  /// Returns the new version, or 0 if the snapshot failed to load or the
  /// canary rejected it — either way the slot keeps serving its current
  /// version. A publish returns only after the result cache has swept the
  /// slot's entries of other versions, so no answer the previous version
  /// cached, and no remembered "no such slot", outlives the return.
  uint64_t LoadSlot(const std::string& slot, const std::string& path);

  /// Registers (or replaces) an explicit canary probe guarding `LoadSlot`
  /// for `slot`, overriding the snapshot's auto-recorded probe. Record
  /// `probe.expected_scores` with `ScoreList` on the fitted model at
  /// snapshot-save time.
  void SetCanary(const std::string& slot, CanaryProbe probe);

  /// Drops the canary for `slot`; returns false if none was set.
  bool ClearCanary(const std::string& slot);

  /// Publishes an in-memory fitted model into `slot` (same swap semantics
  /// as `LoadSlot`). Useful for heuristic models and tests.
  uint64_t InstallSlot(const std::string& slot,
                       std::shared_ptr<const rerank::Reranker> model);

  /// Decorates every model published into `slot` — by `LoadSlot` (after
  /// the canary passes) and `InstallSlot` alike. The wrapper receives the
  /// validated base model and returns the model actually published; it
  /// must uphold the `Reranker` const-inference thread-safety contract.
  /// This is how `online::OnlinePolicy` layers UCB exploration onto a
  /// slot without the serve layer depending on the online subsystem.
  /// Takes effect on the *next* publish; slots without a wrapper publish
  /// the base model unchanged (deterministic serving stays the default).
  using ModelWrapper = std::function<std::shared_ptr<const rerank::Reranker>(
      std::shared_ptr<const rerank::Reranker>)>;
  void SetSlotWrapper(const std::string& slot, ModelWrapper wrapper);

  /// Drops the wrapper for `slot`; returns false if none was set. Already
  /// published wrapped models keep serving until the next publish.
  bool ClearSlotWrapper(const std::string& slot);

  /// Unregisters `slot` and sweeps its cached answers before returning.
  /// In-flight requests finish on the retiring model; subsequent
  /// submissions to the slot are answered degraded.
  bool RemoveSlot(const std::string& slot);

  /// Registered slot names, sorted.
  std::vector<std::string> slots() const { return registry_.Names(); }

  /// Current published version of `slot`, 0 if absent.
  uint64_t SlotVersion(const std::string& slot) const {
    return registry_.VersionOf(slot);
  }

  /// Routes a request. Never loses a submission: depending on admission
  /// policy and queue state the future resolves from the model, degraded
  /// (shed / deadline / unknown slot / invalid ids), or — after
  /// `Shutdown` — an inline synchronous serve on the caller's thread.
  /// Under `kBlock` with a deadline configured, the blocking wait is
  /// capped at the deadline and times out into a degraded answer.
  std::future<RouterResponse> Submit(RouterRequest request);

  /// Closes the queue, drains outstanding requests, and joins the shared
  /// worker pool. Idempotent; called by the destructor.
  void Shutdown();

  /// Per-slot and aggregate serving stats.
  RouterStats stats() const;

  const RouterConfig& config() const { return config_; }

  /// The borrowed dataset this router serves against — the item catalog
  /// the page-level cross-list pass needs for topic-coverage vectors.
  const data::Dataset& dataset() const { return data_; }

 private:
  struct PendingRequest {
    RouterRequest request;
    std::promise<RouterResponse> promise;
    std::chrono::steady_clock::time_point enqueued_at;
    /// Set at submit time when the cache missed: the worker that answers
    /// this request inserts its result under the version that served it.
    bool cacheable = false;
    uint64_t fingerprint = 0;
    /// Holds a slot-quota charge (`AdmissionController::TryChargeSlot`)
    /// that must be released exactly once — on dequeue, or when the push
    /// it guarded fails.
    bool charged = false;
  };

  void WorkerLoop();
  /// The model path, for a dequeued micro-batch or for one request served
  /// inline (after `Shutdown`, or when the queue closed under its push).
  /// Each request resolves its slot exactly once; unknown-slot and
  /// deadline-blown requests are degraded, the rest are grouped by the
  /// published model that answers them and served by one
  /// `Reranker::RerankBatchInto` call per group (so a batch mixing slots
  /// still batches within each slot). Realized group sizes are recorded on
  /// the aggregate and per-slot metrics.
  void ProcessBatch(std::span<PendingRequest> batch);
  /// The one degraded answer: the submitted order — the initial ranking a
  /// final-stage re-ranker falls back to, safe for any ids. `served`
  /// attributes it to a registered slot's metrics (null: aggregate only).
  void Degrade(PendingRequest* request, const ServedModel* served,
               bool shed = false, bool cache_hit = false);
  /// The one exit of every request: stamps the end-to-end latency, records
  /// the aggregate metrics (and the slot's, when `served` is set) and
  /// fulfils the promise.
  void Finish(PendingRequest* request, RouterResponse response,
              const ServedModel* served);
  /// True if every id in `list` is inside the dataset's user/item universe
  /// and the score vector matches the item vector — i.e. the request is
  /// safe to hand to a model. Vacuously true for empty datasets.
  bool ListInBounds(const data::ImpressionList& list) const;
  /// True if `model` reproduces the recorded probe scores within
  /// tolerance. The probe is the explicit canary set for `slot` when one
  /// exists, else the one auto-recorded inside the snapshot at `path`
  /// (format v3+); with neither, the check passes vacuously.
  bool CanaryPasses(const std::string& slot, const std::string& path,
                    const rerank::NeuralReranker& model) const;

  const data::Dataset& data_;
  const RouterConfig config_;
  ModelRegistry registry_;
  AdmissionController admission_;
  ResultCache cache_;
  /// Applies the registered wrapper for `slot` (if any) to `model`.
  std::shared_ptr<const rerank::Reranker> WrapForSlot(
      const std::string& slot,
      std::shared_ptr<const rerank::Reranker> model) const;

  mutable std::mutex canary_mu_;
  std::map<std::string, CanaryProbe> canaries_;
  mutable std::mutex wrapper_mu_;
  std::map<std::string, ModelWrapper> wrappers_;
  ServingMetrics aggregate_metrics_;
  /// The router's own rejection counters (`RouterStats::Fields`).
  stats::LiveStats<RouterStats> rejections_;
  BoundedRequestQueue<PendingRequest> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_ROUTER_H_
