#ifndef RAPID_SERVE_ADMISSION_H_
#define RAPID_SERVE_ADMISSION_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rapid::serve {

/// Priority lane of a routed request. High-priority traffic (interactive
/// surfaces) is drained first and shed last; low-priority traffic
/// (prefetch, background refresh) absorbs overload first. The drain is
/// starvation-free (see `BoundedRequestQueue`), so low-lane requests make
/// progress even under a sustained high-lane flood.
enum class Lane { kHigh = 0, kLow = 1 };

inline constexpr int kNumLanes = 2;

/// What happens when the request queue runs hot.
enum class AdmissionPolicy {
  /// Producers block in `Submit` while the queue is full (backpressure).
  /// Latency is unbounded under overload.
  kBlock,
  /// Requests arriving above a lane's depth watermark are rejected and
  /// answered immediately by the fallback heuristic (`shed` in the
  /// response and per-slot metrics). `Submit` never blocks; tail latency
  /// stays bounded by queue depth at the watermark.
  kShed,
};

/// Load-shedding configuration of a `ServingRouter`.
struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// Queue depth at/above which low-lane requests are shed (kShed only).
  /// 0 means "the full queue capacity" — shed only when the queue is full.
  int low_lane_watermark = 0;
  /// Depth at/above which even high-lane requests are shed. 0 = capacity.
  /// Must be >= the low watermark to mean anything; the controller clamps.
  int high_lane_watermark = 0;
  /// Starvation-free drain: after this many consecutive high-lane pops
  /// while low-lane work waited, one low-lane request is served.
  int high_bursts_per_low = 4;
  /// Optional per-slot queue-depth quotas: at most this many requests of a
  /// slot may sit in the queue at once; a request arriving above its
  /// slot's quota is shed (answered by the fallback) regardless of the
  /// global policy, so one tenant's burst cannot fill the shared queue and
  /// starve every other slot. Slots without an entry are unlimited.
  /// Quota sheds are counted in `RouterStats::quota_shed`. Non-positive
  /// quotas are clamped to 1.
  std::vector<std::pair<std::string, int>> slot_quotas;
};

/// Decides, per request, whether it enters the queue or is shed. The lane
/// watermarks are resolved against the queue capacity at construction, so
/// `Admit` is safe to call from any number of submitter threads
/// concurrently; per-slot quota charges are tracked in atomics behind a
/// const map (no lock on the submit path).
///
/// Ordering note: the router consults its result cache *before* admission
/// — a cache hit is answered inline without entering either lane, so hits
/// neither count toward queue depth nor can be shed. Only cache misses
/// (and bypassed slots) reach `Admit`.
class AdmissionController {
 public:
  AdmissionController(const AdmissionConfig& config, int queue_capacity);

  /// True if a request on `lane` arriving while the queue holds `depth`
  /// items should be admitted; false means shed it (answer with the
  /// fallback immediately). Always true under `kBlock` — blocking
  /// backpressure is applied by the queue itself, not here.
  bool Admit(Lane lane, size_t depth) const;

  /// Per-slot quota charge, called once per request just before it enters
  /// the queue. Returns false — without charging — when `slot` has a quota
  /// and its queued count is already at it: the caller must shed. A true
  /// return must be balanced by exactly one `ReleaseSlot`, either when the
  /// request is dequeued or when the push it guarded fails. Slots without
  /// a quota always charge successfully (and keep no count).
  bool TryChargeSlot(const std::string& slot);

  /// Returns a successful `TryChargeSlot` charge for `slot`.
  void ReleaseSlot(const std::string& slot);

  bool has_quotas() const { return !quotas_.empty(); }

  /// Currently queued (charged) requests of a quota'd slot; 0 for slots
  /// without a quota. Racy gauge, for tests and stats.
  int SlotDepth(const std::string& slot) const;

  const AdmissionConfig& config() const { return config_; }

  /// The resolved shed watermark for a lane, in requests.
  size_t watermark(Lane lane) const {
    return lane == Lane::kHigh ? high_mark_ : low_mark_;
  }

 private:
  struct SlotQuota {
    int limit = 0;
    std::atomic<int> depth{0};
  };

  AdmissionConfig config_;
  size_t low_mark_ = 0;
  size_t high_mark_ = 0;
  /// Immutable after construction; only the atomic depths mutate.
  std::unordered_map<std::string, std::unique_ptr<SlotQuota>> quotas_;
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_ADMISSION_H_
