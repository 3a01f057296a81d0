#include "serve/result_cache.h"

#include <algorithm>

namespace rapid::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
/// Cells per shard of the `admit_on_second_hit` first-sighting sketch.
constexpr size_t kSketchCells = 1024;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

CachePolicy Sanitized(CachePolicy policy) {
  policy.capacity = std::max<size_t>(policy.capacity, 1);
  policy.num_shards = std::clamp<int>(policy.num_shards, 1,
                                      static_cast<int>(policy.capacity));
  policy.ttl_us = std::max<int64_t>(policy.ttl_us, 0);
  policy.negative_ttl_us = std::max<int64_t>(policy.negative_ttl_us, 0);
  return policy;
}

}  // namespace

ResultCache::ResultCache(CachePolicy policy)
    : policy_(Sanitized(std::move(policy))),
      per_shard_capacity_(std::max<size_t>(
          policy_.capacity / static_cast<size_t>(policy_.num_shards), 1)) {
  shards_.reserve(static_cast<size_t>(policy_.num_shards));
  for (int i = 0; i < policy_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    if (policy_.enabled && policy_.admit_on_second_hit) {
      shards_.back()->seen.assign(kSketchCells, 0);
    }
  }
}

uint64_t ResultCache::Fingerprint(const data::ImpressionList& list) {
  uint64_t h = kFnvOffset;
  const int32_t user = list.user_id;
  h = Fnv1a(h, &user, sizeof(user));
  // Hashing the arrays front-to-back makes the fingerprint order-sensitive
  // by construction: a permuted candidate list is a different key.
  const uint32_t num_items = static_cast<uint32_t>(list.items.size());
  h = Fnv1a(h, &num_items, sizeof(num_items));
  h = Fnv1a(h, list.items.data(), list.items.size() * sizeof(int));
  const uint32_t num_scores = static_cast<uint32_t>(list.scores.size());
  h = Fnv1a(h, &num_scores, sizeof(num_scores));
  h = Fnv1a(h, list.scores.data(), list.scores.size() * sizeof(float));
  return h;
}

bool ResultCache::EnabledFor(const std::string& slot) const {
  if (!policy_.enabled) return false;
  return std::find(policy_.bypass_slots.begin(), policy_.bypass_slots.end(),
                   slot) == policy_.bypass_slots.end();
}

void ResultCache::Count(Counters& slot, uint64_t CacheStats::*field) {
  total_.Add(field);
  slot.Add(field);
}

ResultCache::Counters& ResultCache::CountersFor(const std::string& slot) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  std::unique_ptr<Counters>& counters = slot_counters_[slot];
  if (counters == nullptr) counters = std::make_unique<Counters>();
  return *counters;
}

void ResultCache::RecordBypass(const std::string& slot) {
  Count(CountersFor(slot), &CacheStats::bypass);
}

std::optional<ResultCache::CachedResult> ResultCache::Probe(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  if (ExpiredAt(*it->second, Clock::now())) {
    Count(CountersFor(key.slot), &CacheStats::expired);
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

void ResultCache::Store(Key key, CachedResult result) {
  Shard& shard = ShardFor(key);
  Counters& counters = CountersFor(key.slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent misses on the same key both run the model; last writer
    // refreshes (both computed the same deterministic answer anyway).
    it->second->result = std::move(result);
    it->second->inserted_at = Clock::now();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  const bool negative = key.version == 0;
  if (!negative && !shard.seen.empty()) {
    // Second-hit admission: the first miss of a key only records its full
    // hash in the sketch (|1 so an empty cell never matches); the repeat
    // miss finds it and admits. A hot-swap resets nothing here — the
    // version is part of the key, so every key re-earns admission under
    // the new version, which is the conservative behaviour we want.
    const uint64_t h = static_cast<uint64_t>(KeyHash{}(key)) | 1ull;
    uint64_t& cell = shard.seen[h % shard.seen.size()];
    if (cell != h) {
      cell = h;
      Count(counters, &CacheStats::deferred);
      return;
    }
  }
  shard.lru.push_front(Entry{std::move(key), std::move(result), Clock::now()});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  Count(counters,
        negative ? &CacheStats::negative_inserts : &CacheStats::inserts);
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    Count(CountersFor(victim.key.slot), &CacheStats::evictions);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

std::optional<ResultCache::CachedResult> ResultCache::Lookup(
    const std::string& slot, uint64_t version, uint64_t fingerprint) {
  std::optional<CachedResult> hit = Probe({slot, version, fingerprint});
  Count(CountersFor(slot), hit ? &CacheStats::hits : &CacheStats::misses);
  return hit;
}

void ResultCache::Insert(const std::string& slot, uint64_t version,
                         uint64_t fingerprint, CachedResult result) {
  Store({slot, version, fingerprint}, std::move(result));
}

std::optional<std::vector<int>> ResultCache::LookupNegative(
    const std::string& slot, uint64_t fingerprint) {
  if (!NegativeEnabled()) return std::nullopt;
  std::optional<CachedResult> hit = Probe({slot, 0, fingerprint});
  if (!hit) return std::nullopt;
  Count(CountersFor(slot), &CacheStats::negative_hits);
  return std::move(hit->items);
}

void ResultCache::InsertNegative(const std::string& slot, uint64_t fingerprint,
                                 std::vector<int> items) {
  // No second-hit sketch here (`Store` skips it for version 0): the goal
  // is absorbing the second arrival of the same bad request, so the first
  // rejection must already store.
  if (!NegativeEnabled()) return;
  Store({slot, 0, fingerprint}, {std::move(items), "", 0});
}

void ResultCache::Sweep(const std::string& slot, uint64_t live_version) {
  if (!policy_.enabled) return;
  const Clock::time_point now = Clock::now();
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const bool dead_version =
          it->key.slot == slot && it->key.version != live_version;
      if (!dead_version && !ExpiredAt(*it, now)) {
        ++it;
        continue;
      }
      Count(CountersFor(it->key.slot),
            dead_version ? &CacheStats::swept : &CacheStats::expired);
      shard->index.erase(it->key);
      it = shard->lru.erase(it);
    }
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

CacheStats ResultCache::StatsFor(const std::string& slot) const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  const auto it = slot_counters_.find(slot);
  return it == slot_counters_.end() ? CacheStats{} : it->second->Snapshot();
}

}  // namespace rapid::serve
