#include "serve/result_cache.h"

#include <algorithm>

namespace rapid::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

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
  policy.admission_sketch_slots =
      std::max<size_t>(policy.admission_sketch_slots, 1);
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
      shards_.back()->seen.assign(policy_.admission_sketch_slots, 0);
    }
  }
  if (policy_.enabled) {
    sweeper_ = std::thread([this] { SweeperLoop(); });
  }
}

ResultCache::~ResultCache() {
  {
    std::lock_guard<std::mutex> lock(sweep_mu_);
    stop_ = true;
  }
  sweep_cv_.notify_all();
  if (sweeper_.joinable()) sweeper_.join();
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

std::optional<ResultCache::CachedResult> ResultCache::Lookup(
    const std::string& slot, uint64_t version, uint64_t fingerprint) {
  Key key{slot, version, fingerprint};
  Shard& shard = ShardFor(key);
  Counters& counters = CountersFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    Count(counters, &CacheStats::misses);
    return std::nullopt;
  }
  if (ExpiredAt(*it->second, Clock::now())) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    Count(counters, &CacheStats::expired);
    Count(counters, &CacheStats::misses);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  Count(counters, &CacheStats::hits);
  return it->second->result;
}

void ResultCache::Insert(const std::string& slot, uint64_t version,
                         uint64_t fingerprint, CachedResult result) {
  Key key{slot, version, fingerprint};
  Shard& shard = ShardFor(key);
  Counters& counters = CountersFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent misses on the same key both run the model; last writer
    // refreshes (both computed the same deterministic answer anyway).
    it->second->result = std::move(result);
    it->second->inserted_at = Clock::now();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (!shard.seen.empty()) {
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
  Count(counters, &CacheStats::inserts);
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    Count(CountersFor(victim.key.slot), &CacheStats::evictions);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

std::optional<std::vector<int>> ResultCache::LookupNegative(
    const std::string& slot, uint64_t fingerprint) {
  if (!NegativeEnabled()) return std::nullopt;
  Key key{slot, 0, fingerprint};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  if (ExpiredAt(*it->second, Clock::now())) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    Counters& counters = CountersFor(slot);
    Count(counters, &CacheStats::expired);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  Counters& counters = CountersFor(slot);
  Count(counters, &CacheStats::negative_hits);
  return it->second->result.items;
}

void ResultCache::InsertNegative(const std::string& slot, uint64_t fingerprint,
                                 std::vector<int> items) {
  if (!NegativeEnabled()) return;
  Key key{slot, 0, fingerprint};
  Shard& shard = ShardFor(key);
  Counters& counters = CountersFor(slot);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->result.items = std::move(items);
    it->second->inserted_at = Clock::now();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  // No second-hit sketch here: the goal is absorbing the second arrival of
  // the same bad request, so the first rejection must already store.
  shard.lru.push_front(Entry{std::move(key),
                             CachedResult{std::move(items), "", 0},
                             Clock::now()});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  Count(counters, &CacheStats::negative_inserts);
  while (shard.lru.size() > per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    Count(CountersFor(victim.key.slot), &CacheStats::evictions);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

void ResultCache::ScheduleSweep(std::string slot, uint64_t live_version) {
  if (!policy_.enabled) return;
  {
    std::lock_guard<std::mutex> lock(sweep_mu_);
    if (stop_) return;
    pending_sweeps_.push_back({std::move(slot), live_version, Clock::now()});
  }
  sweep_cv_.notify_one();
}

void ResultCache::DrainSweeps() {
  std::unique_lock<std::mutex> lock(sweep_mu_);
  sweep_idle_cv_.wait(
      lock, [this] { return pending_sweeps_.empty() && !sweep_active_; });
}

void ResultCache::SweeperLoop() {
  std::unique_lock<std::mutex> lock(sweep_mu_);
  for (;;) {
    sweep_cv_.wait(lock, [this] { return stop_ || !pending_sweeps_.empty(); });
    if (pending_sweeps_.empty()) {
      if (stop_) return;
      continue;
    }
    const Sweep sweep = std::move(pending_sweeps_.front());
    pending_sweeps_.pop_front();
    sweep_active_ = true;
    lock.unlock();
    SweepSlot(sweep);
    lock.lock();
    sweep_active_ = false;
    if (pending_sweeps_.empty()) sweep_idle_cv_.notify_all();
  }
}

void ResultCache::SweepSlot(const Sweep& sweep) {
  const Clock::time_point now = Clock::now();
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const bool dead_version =
          it->key.slot == sweep.slot && it->key.version != sweep.live_version &&
          (it->key.version != 0 || it->inserted_at < sweep.scheduled_at);
      const bool aged_out = ExpiredAt(*it, now);
      if (!dead_version && !aged_out) {
        ++it;
        continue;
      }
      Counters& counters = CountersFor(it->key.slot);
      if (dead_version) {
        Count(counters, &CacheStats::swept);
      } else {
        Count(counters, &CacheStats::expired);
      }
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
