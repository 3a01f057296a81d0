#include "serve/metrics.h"

#include <bit>

#include "nn/arena.h"

namespace rapid::serve {

int ServingStats::LatencyBucketIndex(uint64_t us) {
  constexpr int kBits = kLatencySubBucketBits;
  if (us < (1u << kBits)) return static_cast<int>(us);
  // Octave = position of the highest set bit; the next kBits bits select
  // the sub-bucket, giving a fixed relative resolution of 2^-kBits
  // (~12.5% bucket width, ~9% mean error).
  const int octave = 63 - std::countl_zero(us);
  const int sub = static_cast<int>((us >> (octave - kBits)) & ((1 << kBits) - 1));
  const int index = ((octave - kBits + 1) << kBits) + sub;
  return index < kLatencyHistBins ? index : kLatencyHistBins - 1;
}

double ServingStats::LatencyBucketValue(int index) {
  constexpr int kBits = kLatencySubBucketBits;
  if (index < (1 << kBits)) return index;
  const int octave = (index >> kBits) + kBits - 1;
  const int sub = index & ((1 << kBits) - 1);
  const double base = static_cast<double>(1ull << octave);
  return base + sub * (base / (1 << kBits));
}

bool ServingStats::HasLatencyHist() const {
  for (int i = 0; i < kLatencyHistBins; ++i) {
    if (latency_hist[i] != 0) return true;
  }
  return false;
}

void ServingStats::RecomputeLatencyPercentiles() {
  uint64_t total = 0;
  for (int i = 0; i < kLatencyHistBins; ++i) total += latency_hist[i];
  if (total == 0) return;
  auto percentile = [&](double q) -> double {
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    for (int i = 0; i < kLatencyHistBins; ++i) {
      seen += latency_hist[i];
      if (seen > rank) return LatencyBucketValue(i);
    }
    return LatencyBucketValue(kLatencyHistBins - 1);
  };
  p50_us = percentile(0.50);
  p95_us = percentile(0.95);
  p99_us = percentile(0.99);
}

void ServingMetrics::RecordRequest(uint64_t latency_us, bool fallback) {
  live_.Add(&ServingStats::requests);
  if (fallback) live_.Add(&ServingStats::fallbacks);
  total_us_.fetch_add(latency_us, std::memory_order_relaxed);
  live_.Max(&ServingStats::max_us, latency_us);
  live_.AddToBin(&ServingStats::latency_hist,
                 static_cast<size_t>(ServingStats::LatencyBucketIndex(latency_us)));
}

void ServingMetrics::RecordShed() { live_.Add(&ServingStats::shed); }

void ServingMetrics::RecordQueueDepth(int depth) {
  live_.Max(&ServingStats::max_queue_depth, depth);
}

void ServingMetrics::RecordBatch(int size) {
  if (size <= 0) return;
  live_.Add(&ServingStats::batches);
  live_.Add(&ServingStats::batched_lists, static_cast<uint64_t>(size));
  live_.Max(&ServingStats::max_batch_size, size);
  live_.AddToBin(&ServingStats::batch_size_hist, static_cast<size_t>(size - 1));
}

ServingStats ServingMetrics::Snapshot() const {
  ServingStats s = live_.Snapshot();
  if (s.requests == 0) return s;
  s.mean_us = static_cast<double>(total_us_.load(std::memory_order_relaxed)) /
              static_cast<double>(s.requests);
  s.RecomputeLatencyPercentiles();
  return s;
}

double CacheStats::hit_rate() const {
  const uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

ProcessStats ProcessStats::Capture() {
  const nn::arena::GlobalStats arena = nn::arena::GlobalArenaStats();
  ProcessStats s;
  s.arena_heap_allocs = arena.heap_allocs;
  s.arena_allocs = arena.arena_allocs;
  s.arena_chunk_mallocs = arena.chunk_mallocs;
  s.arena_reserved_bytes = arena.reserved_bytes;
  s.arena_high_water_bytes = arena.high_water_bytes;
  return s;
}

}  // namespace rapid::serve
