#ifndef RAPID_SERVE_RESULT_CACHE_H_
#define RAPID_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datagen/types.h"
#include "serve/metrics.h"

namespace rapid::serve {

/// Result-cache behaviour of a `ServingRouter`. Re-ranking is
/// deterministic at inference (no deadline, no randomness on the const
/// path), so a repeated (user, candidate-set) request against the same
/// model version can be answered from memory instead of re-running the
/// forward pass.
struct CachePolicy {
  /// Off by default: the cache changes no response, only its latency, but
  /// memoization is opt-in because it holds copies of ranked lists.
  bool enabled = false;
  /// Total cached responses. Enforced per shard as `capacity / num_shards`
  /// (min 1), so the bound is approximate unless `num_shards == 1`.
  size_t capacity = 4096;
  /// Entry lifetime from insert, microseconds; 0 = entries never expire on
  /// age (they still die with their model version on a swap).
  int64_t ttl_us = 0;
  /// Hash-partitioned shards; submitters touching different keys contend
  /// on different mutexes. Clamped to [1, capacity].
  int num_shards = 8;
  /// Slots that never consult the cache (counted as `bypass` per slot) —
  /// e.g. an exploration arm whose traffic must always hit the model.
  std::vector<std::string> bypass_slots;
  /// Admission control for heavy-tailed traffic: store a result only on
  /// the *second* miss of its key. One-off (user, candidate-set) requests
  /// then never displace entries the hot set will actually re-read; the
  /// price is one extra model run on each genuinely repeating key. First
  /// sightings live in a small per-shard direct-mapped sketch, so a
  /// sighting can be displaced by a colliding key (re-deferring the
  /// victim) — an accepted approximation, like the LRU bound itself.
  bool admit_on_second_hit = false;
  /// Sketch cells per shard when `admit_on_second_hit` is set.
  size_t admission_sketch_slots = 1024;
  /// Negative-result caching (0 = off): rejections that never reach a
  /// model — unknown-slot and invalid-id requests — are remembered for
  /// this many microseconds, so a remote caller replaying the same bad
  /// request is answered from memory instead of re-running the bounds
  /// check or occupying a queue slot and a worker for the fallback
  /// heuristic. Entries are keyed under the reserved version 0 (registry
  /// versions start at 1, so they can never shadow a real result) and are
  /// swept like any dead version when the slot publishes — a slot that
  /// comes into existence invalidates its own unknown-slot entries (the
  /// ones inserted before the publish; later ones are current). The
  /// TTL should be short: between an insert racing a publish and the
  /// sweep, a stale negative entry can answer degraded for at most one
  /// TTL. Requires `enabled`.
  int64_t negative_ttl_us = 0;
};

/// A sharded LRU of re-ranked responses keyed on
/// `(slot, model_version, list_fingerprint)`, sitting in front of the
/// router's worker pool.
///
/// ## Swap consistency
///
/// The published model version is part of the key. `ModelRegistry`
/// versions increase monotonically and are never reused, so the instant
/// `LoadSlot` publishes version v+1, every entry cached under version v
/// becomes *unreachable* — a lookup resolves the slot's current version
/// first and probes only under it. No flush, no epoch counter, no lock
/// shared with the publish path: the atomicity of the swap is inherited
/// from the RCU publish itself. Stale entries still occupy memory until
/// the background sweep (kicked by each publish/remove) reclaims them,
/// but they can never answer a request.
///
/// ## Fingerprint
///
/// `Fingerprint` hashes the user id plus the *ordered* candidate item ids
/// and initial scores (FNV-1a over the raw bytes), so a permutation of
/// the same candidates is a different key — re-rankers are order-aware.
/// Click labels are deliberately excluded: inference never reads them.
/// A 64-bit collision between two live lists would serve the wrong
/// ranking; at ~2^-64 per pair this is accepted and documented rather
/// than defended against.
///
/// All methods are thread-safe.
class ResultCache {
 public:
  /// What a hit returns: the re-ranked items plus the attribution of the
  /// version that originally computed them (== the key's version).
  struct CachedResult {
    std::vector<int> items;
    std::string model_name;
    uint64_t model_version = 0;
  };

  explicit ResultCache(CachePolicy policy);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Order-sensitive hash of (user id, item ids, initial scores).
  static uint64_t Fingerprint(const data::ImpressionList& list);

  bool enabled() const { return policy_.enabled; }

  /// False when the cache is disabled or `slot` is on the bypass list.
  bool EnabledFor(const std::string& slot) const;

  /// True when negative-result caching is active (`enabled` plus a
  /// positive `negative_ttl_us`).
  bool NegativeEnabled() const {
    return policy_.enabled && policy_.negative_ttl_us > 0;
  }

  /// Probes the negative cache (version-0 entries) for a previously
  /// rejected (slot, list) request. Hits count as `negative_hits`; misses
  /// are not counted at all — every submission probes here when the
  /// policy is on, and folding those into `misses` would wreck the
  /// positive cache's hit rate.
  std::optional<std::vector<int>> LookupNegative(const std::string& slot,
                                                 uint64_t fingerprint);

  /// Remembers the degraded answer of a rejected request under the
  /// reserved version 0 with the negative TTL. Bypasses second-hit
  /// admission: the whole point is absorbing the *second* arrival.
  void InsertNegative(const std::string& slot, uint64_t fingerprint,
                      std::vector<int> items);

  /// Counts a request that skipped the cache for `slot`.
  void RecordBypass(const std::string& slot);

  /// Probes the cache; a hit refreshes the entry's LRU position. Expired
  /// entries are discarded on contact and reported as a miss.
  std::optional<CachedResult> Lookup(const std::string& slot,
                                     uint64_t version, uint64_t fingerprint);

  /// Inserts (or refreshes) an entry, evicting from the cold end of the
  /// shard when over capacity.
  void Insert(const std::string& slot, uint64_t version, uint64_t fingerprint,
              CachedResult result);

  /// Asks the background sweeper to reclaim entries of `slot` whose
  /// version differs from `live_version` (0 = all versions, for slot
  /// removal). Entries are already unreachable the moment the registry
  /// republished; this only frees their memory. Returns immediately.
  void ScheduleSweep(std::string slot, uint64_t live_version);

  /// Blocks until every scheduled sweep has completed (tests, shutdown
  /// sequencing).
  void DrainSweeps();

  /// Live entries across all shards (racy gauge).
  size_t size() const;

  CacheStats TotalStats() const { return total_.Snapshot(); }
  /// Counters attributed to one slot; zeroes if the slot never traded.
  CacheStats StatsFor(const std::string& slot) const;

  const CachePolicy& policy() const { return policy_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Key {
    std::string slot;
    uint64_t version = 0;
    uint64_t fingerprint = 0;
    bool operator==(const Key& other) const {
      return version == other.version && fingerprint == other.fingerprint &&
             slot == other.slot;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // The fingerprint is already a well-mixed 64-bit hash; fold in the
      // version and slot so versions of the same list land apart.
      uint64_t h = key.fingerprint ^ (key.version * 0x9E3779B97F4A7C15ull);
      h ^= std::hash<std::string>{}(key.slot) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    Key key;
    CachedResult result;
    Clock::time_point inserted_at;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    /// Direct-mapped first-sighting sketch (`admit_on_second_hit`): cell
    /// holds the full key hash (never 0) of the last first-seen key that
    /// mapped there. Guarded by `mu`; empty when the policy is off.
    std::vector<uint64_t> seen;
  };
  /// Per-slot (and aggregate) counters.
  using Counters = stats::LiveStats<CacheStats>;

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash{}(key) % shards_.size()];
  }
  /// Find-or-create the counter block for `slot` (short leaf lock).
  Counters& CountersFor(const std::string& slot);
  /// Counts one event in `field` for `slot` and in the aggregate.
  void Count(Counters& slot, uint64_t CacheStats::*field);
  bool ExpiredAt(const Entry& entry, Clock::time_point now) const {
    // Version 0 marks a negative entry, which lives on its own (short)
    // TTL; positive entries use the regular one.
    const int64_t ttl_us =
        entry.key.version == 0 ? policy_.negative_ttl_us : policy_.ttl_us;
    return ttl_us > 0 &&
           now - entry.inserted_at >= std::chrono::microseconds(ttl_us);
  }

  void SweeperLoop();
  /// One publish's cleanup: `slot` entries on versions other than
  /// `live_version` are dead, except negative (version-0) entries
  /// inserted at or after `scheduled_at` — those were answered against
  /// the new publish and stay valid.
  struct Sweep {
    std::string slot;
    uint64_t live_version = 0;
    Clock::time_point scheduled_at;
  };

  /// Erases the sweep's dead entries (and any TTL-expired entry it walks
  /// past) across all shards.
  void SweepSlot(const Sweep& sweep);

  const CachePolicy policy_;
  const size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counters total_;
  mutable std::mutex slots_mu_;
  std::map<std::string, std::unique_ptr<Counters>> slot_counters_;

  std::mutex sweep_mu_;
  std::condition_variable sweep_cv_;
  std::condition_variable sweep_idle_cv_;
  std::deque<Sweep> pending_sweeps_;
  bool sweep_active_ = false;
  bool stop_ = false;
  std::thread sweeper_;
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_RESULT_CACHE_H_
