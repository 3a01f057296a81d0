#ifndef RAPID_SERVE_METRICS_H_
#define RAPID_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "serve/stats_schema.h"

namespace rapid::serve {

// Each stats block below is a plain snapshot struct plus its declared field
// table (`Fields`), which documents every member and drives the renderers,
// the binary codec and the fleet merge (see serve/stats_schema.h). The
// snapshots are safe to copy around and render after their source is gone.

/// Serving counters of one router slot or a router aggregate.
struct ServingStats {
  /// Realized-batch-size histogram: bin `i` counts model-bound batches of
  /// exactly `i + 1` requests; the last bin absorbs everything larger.
  static constexpr int kBatchHistBins = 16;

  /// Latency histogram geometry (HDR-style: 32 octaves x 8 sub-buckets,
  /// ~9% relative error). The raw bucket counts travel with the snapshot
  /// so fleet merges can sum histograms and recompute exact percentiles
  /// instead of averaging per-shard percentile points.
  static constexpr int kLatencySubBucketBits = 3;
  static constexpr int kLatencyHistBins = 32 << kLatencySubBucketBits;

  /// Bucket index for a latency sample, in microseconds.
  static int LatencyBucketIndex(uint64_t us);
  /// Representative (lower-bound) latency of a bucket, in microseconds.
  static double LatencyBucketValue(int index);

  uint64_t requests = 0;
  uint64_t fallbacks = 0;
  uint64_t shed = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  uint64_t max_us = 0;
  int max_queue_depth = 0;
  uint64_t batches = 0;
  uint64_t batched_lists = 0;
  int max_batch_size = 0;
  std::array<uint64_t, kBatchHistBins> batch_size_hist{};
  /// All zero for stats from peers without histogram transport; merges
  /// fall back to the percentile points then.
  std::array<uint64_t, kLatencyHistBins> latency_hist{};

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    using K = stats::Kind;
    f(Field{1, "requests", K::kCounter, "requests",
            "Completed requests, including degraded and shed ones."},
      &ServingStats::requests);
    f(Field{2, "fallbacks", K::kCounter, "requests",
            "Requests answered by the fallback heuristic."},
      &ServingStats::fallbacks);
    f(Field{3, "shed", K::kCounter, "requests",
            "Requests rejected by admission control."},
      &ServingStats::shed);
    f(Field{4, "p50_us", K::kQuantile, "us",
            "End-to-end latency percentile points.", stats::Scope::kInstance,
            "latency_quantile_microseconds", "quantile=\"0.5\""},
      &ServingStats::p50_us);
    f(Field{5, "p95_us", K::kQuantile, "us",
            "End-to-end latency percentile points.", stats::Scope::kInstance,
            "latency_quantile_microseconds", "quantile=\"0.95\""},
      &ServingStats::p95_us);
    f(Field{6, "p99_us", K::kQuantile, "us",
            "End-to-end latency percentile points.", stats::Scope::kInstance,
            "latency_quantile_microseconds", "quantile=\"0.99\""},
      &ServingStats::p99_us);
    f(Field{7, "mean_us", K::kMean, "us", "Mean end-to-end latency.",
            stats::Scope::kInstance, "mean_latency_microseconds"},
      &ServingStats::mean_us);
    f(Field{8, "max_us", K::kMax, "us", "Largest observed latency.",
            stats::Scope::kInstance, "max_latency_microseconds"},
      &ServingStats::max_us);
    f(Field{9, "max_queue_depth", K::kMax, "requests",
            "Highest queue depth observed at submit."},
      &ServingStats::max_queue_depth);
    f(Field{10, "batches", K::kCounter, "batches",
            "Model-bound micro-batches executed, size-1 batches included.",
            stats::Scope::kInstance, "model_batches"},
      &ServingStats::batches);
    f(Field{11, "batched_lists", K::kCounter, "lists",
            "Requests served through micro-batches."},
      &ServingStats::batched_lists);
    f(Field{12, "max_batch_size", K::kMax, "lists",
            "Largest realized micro-batch."},
      &ServingStats::max_batch_size);
    f(Field{13, "batch_size_hist", K::kHistogram, "batches",
            "Micro-batches by realized size; the last bin is open-ended.",
            stats::Scope::kInstance, "batch_size", "size"},
      &ServingStats::batch_size_hist);
    f(Field{14, "latency_hist", K::kHistogram, "requests",
            "End-to-end request latency.", stats::Scope::kInstance,
            "request_latency_microseconds", "le"},
      &ServingStats::latency_hist);
  }

  /// True when `latency_hist` carries at least one sample.
  bool HasLatencyHist() const;
  /// Recomputes p50/p95/p99 from `latency_hist`. No-op when the
  /// histogram is empty (keeps whatever percentile points were set).
  void RecomputeLatencyPercentiles();

  /// Two-column human-readable table.
  std::string ToTable() const { return stats::RenderTable(*this); }
  /// Flat JSON object (no trailing newline), e.g. for bench output.
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Counters of the router-level result cache (see serve/result_cache.h),
/// reported per slot and in aggregate by `RouterStats`. All zero when
/// caching is disabled.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t expired = 0;
  uint64_t bypass = 0;
  uint64_t swept = 0;
  uint64_t deferred = 0;
  uint64_t negative_hits = 0;
  uint64_t negative_inserts = 0;

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    constexpr auto kCounter = stats::Kind::kCounter;
    f(Field{1, "hits", kCounter, "lookups",
            "Lookups answered from the cache, bypassing the queue."},
      &CacheStats::hits);
    f(Field{2, "misses", kCounter, "lookups",
            "Lookups that found no usable entry (absent, expired or dead)."},
      &CacheStats::misses);
    f(Field{3, "inserts", kCounter, "entries",
            "Entries written after a model answered a miss."},
      &CacheStats::inserts);
    f(Field{4, "evictions", kCounter, "entries",
            "Entries displaced by the LRU capacity bound."},
      &CacheStats::evictions);
    f(Field{5, "expired", kCounter, "entries",
            "Entries discarded because their TTL elapsed."},
      &CacheStats::expired);
    f(Field{6, "bypass", kCounter, "requests",
            "Requests that skipped the cache (slot on the bypass list)."},
      &CacheStats::bypass);
    f(Field{7, "swept", kCounter, "entries",
            "Dead-version entries reclaimed by the sweep after a swap."},
      &CacheStats::swept);
    f(Field{8, "deferred", kCounter, "entries",
            "Results not stored because their key was seen only once "
            "(admit-on-second-hit)."},
      &CacheStats::deferred);
    // Negative hits are not part of hit_rate(): every submission probes
    // the negative side when it is on, so they are not cache misses.
    f(Field{9, "negative_hits", kCounter, "requests",
            "Rejected requests answered from the negative cache."},
      &CacheStats::negative_hits);
    f(Field{10, "negative_inserts", kCounter, "entries",
            "Degraded answers remembered by the negative cache."},
      &CacheStats::negative_inserts);
  }

  /// hits / (hits + misses); 0 when no lookups happened.
  double hit_rate() const;
  std::string ToTable() const { return stats::RenderTable(*this, "cache "); }
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Counters of the network front-end (`net::Server`), surfaced through
/// `RouterStats::net` when a server wraps the router. Defined here (not in
/// net/) so `RouterStats` can embed and render it without the serve layer
/// depending on sockets.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_rejected = 0;
  uint64_t closed_idle = 0;
  uint64_t closed_slow = 0;
  uint64_t closed_protocol_error = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t error_frames_out = 0;
  uint64_t decode_errors = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t dropped_responses = 0;
  uint64_t stats_frames = 0;
  uint64_t load_frames = 0;
  uint64_t feedback_frames = 0;
  int max_inflight_per_conn = 0;

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    using K = stats::Kind;
    constexpr auto kInstance = stats::Scope::kInstance;
    f(Field{1, "connections_accepted", K::kCounter, "connections",
            "Connections accepted."},
      &NetStats::connections_accepted);
    f(Field{2, "connections_active", K::kGauge, "connections",
            "Currently open connections."},
      &NetStats::connections_active);
    f(Field{3, "connections_rejected", K::kCounter, "connections",
            "Accepts refused at the connection cap."},
      &NetStats::connections_rejected);
    f(Field{4, "closed_idle", K::kCounter, "connections",
            "Connections closed by protective limits.", kInstance, "closed",
            "reason=\"idle\""},
      &NetStats::closed_idle);
    // Write buffer over the cap, or no write progress for the stall
    // timeout while responses were pending.
    f(Field{5, "closed_slow", K::kCounter, "connections",
            "Connections closed by protective limits.", kInstance, "closed",
            "reason=\"slow\""},
      &NetStats::closed_slow);
    // Framing lost (bad magic/version, oversized length): the codec
    // rejected the stream.
    f(Field{6, "closed_protocol_error", K::kCounter, "connections",
            "Connections closed by protective limits.", kInstance, "closed",
            "reason=\"protocol\""},
      &NetStats::closed_protocol_error);
    f(Field{7, "frames_in", K::kCounter, "frames",
            "Well-framed score requests parsed."},
      &NetStats::frames_in);
    f(Field{8, "frames_out", K::kCounter, "frames",
            "Response frames fully written."},
      &NetStats::frames_out);
    f(Field{9, "error_frames_out", K::kCounter, "frames",
            "Error frames sent for malformed payloads or unknown types.",
            kInstance, "error_frames"},
      &NetStats::error_frames_out);
    f(Field{10, "decode_errors", K::kCounter, "frames",
            "Frames whose payload failed strict decoding."},
      &NetStats::decode_errors);
    f(Field{11, "bytes_in", K::kCounter, "bytes", "Bytes read."},
      &NetStats::bytes_in);
    f(Field{12, "bytes_out", K::kCounter, "bytes", "Bytes written."},
      &NetStats::bytes_out);
    // Slow-client or error disconnects only: a graceful drain keeps 0.
    f(Field{13, "dropped_responses", K::kCounter, "responses",
            "Responses whose connection was gone at completion."},
      &NetStats::dropped_responses);
    f(Field{14, "stats_frames", K::kCounter, "frames",
            "Stats scrapes parsed."},
      &NetStats::stats_frames);
    f(Field{15, "load_frames", K::kCounter, "frames",
            "Remote load requests parsed, refused ones included."},
      &NetStats::load_frames);
    f(Field{16, "feedback_frames", K::kCounter, "frames",
            "Feedback frames parsed, refused ones included."},
      &NetStats::feedback_frames);
    f(Field{17, "max_inflight_per_conn", K::kMax, "requests",
            "Peak in-flight requests on any single connection."},
      &NetStats::max_inflight_per_conn);
  }

  std::string ToTable() const { return stats::RenderTable(*this, "net "); }
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Counters of the online learning loop (`src/online/`: feedback log +
/// background trainer), surfaced through `RouterStats::online` when the
/// loop wraps a router. Defined here for the same reason as `NetStats`.
struct OnlineStats {
  uint64_t feedback_appended = 0;
  uint64_t feedback_dropped = 0;
  uint64_t feedback_drained = 0;
  uint64_t train_rounds = 0;
  uint64_t trained_lists = 0;
  uint64_t publishes = 0;
  uint64_t publish_rejected = 0;
  uint64_t publish_skipped = 0;
  uint64_t last_published_version = 0;

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    using K = stats::Kind;
    f(Field{1, "feedback_appended", K::kCounter, "events",
            "Feedback events accepted into the log."},
      &OnlineStats::feedback_appended);
    f(Field{2, "feedback_dropped", K::kCounter, "events",
            "Feedback events rejected by the bounded log."},
      &OnlineStats::feedback_dropped);
    f(Field{3, "feedback_drained", K::kCounter, "events",
            "Feedback events handed to the trainer."},
      &OnlineStats::feedback_drained);
    f(Field{4, "train_rounds", K::kCounter, "rounds",
            "Fine-tune rounds completed."},
      &OnlineStats::train_rounds);
    f(Field{5, "trained_lists", K::kCounter, "lists",
            "Feedback lists consumed by training."},
      &OnlineStats::trained_lists);
    f(Field{6, "publishes", K::kCounter, "snapshots",
            "Snapshots published through the canary-guarded LoadSlot."},
      &OnlineStats::publishes);
    f(Field{7, "publish_rejected", K::kCounter, "snapshots",
            "Publishes rejected by the canary or snapshot I/O; the previous "
            "version kept serving."},
      &OnlineStats::publish_rejected);
    f(Field{8, "publish_skipped", K::kCounter, "cadences",
            "Publish cadences skipped for lack of new feedback."},
      &OnlineStats::publish_skipped);
    f(Field{9, "last_published_version", K::kMax, "version",
            "Slot version of the newest accepted publish (0 before the "
            "first)."},
      &OnlineStats::last_published_version);
  }

  std::string ToTable() const { return stats::RenderTable(*this); }
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Counters of the page-level reranking path (`src/page/` served through
/// `net::Server`'s `kPageRequest` dispatch), surfaced through
/// `RouterStats::page`. Defined here for the same reason as `NetStats`.
struct PageStats {
  /// Lists-per-page histogram: bin `i` counts pages carrying exactly
  /// `i + 1` lists; the last bin absorbs everything larger.
  static constexpr int kListsHistBins = 8;

  uint64_t pages = 0;
  uint64_t page_lists = 0;
  uint64_t joint_pages = 0;
  uint64_t degraded_pages = 0;
  std::array<uint64_t, kListsHistBins> lists_per_page_hist{};
  uint64_t redundancy_millitopics = 0;
  int max_lists_per_page = 0;

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    using K = stats::Kind;
    constexpr auto kInstance = stats::Scope::kInstance;
    f(Field{1, "pages", K::kCounter, "pages",
            "Page requests served end to end."},
      &PageStats::pages);
    f(Field{2, "page_lists", K::kCounter, "lists",
            "Candidate lists carried by page requests.", kInstance, "lists"},
      &PageStats::page_lists);
    // The rest ran the independent per-list baseline the caller asked for.
    f(Field{3, "joint_pages", K::kCounter, "pages",
            "Pages served with the joint cross-list pass.", kInstance,
            "joint"},
      &PageStats::joint_pages);
    // The cross-list pass is skipped and the router's orders returned.
    f(Field{4, "degraded_pages", K::kCounter, "pages",
            "Pages with at least one degraded list.", kInstance, "degraded"},
      &PageStats::degraded_pages);
    f(Field{5, "lists_per_page_hist", K::kHistogram, "pages",
            "Pages by number of lists carried.", kInstance, "lists_per_page",
            "lists"},
      &PageStats::lists_per_page_hist);
    // 1000 x the mean-topic coverage mass duplicated across sibling lists
    // (see page::CrossListRedundancy).
    f(Field{6, "redundancy_millitopics", K::kCounter, "millitopics",
            "Cross-list redundancy observed on served pages."},
      &PageStats::redundancy_millitopics);
    f(Field{7, "max_lists_per_page", K::kMax, "lists",
            "Largest page seen, in lists.", kInstance, "max_lists"},
      &PageStats::max_lists_per_page);
  }

  std::string ToTable() const { return stats::RenderTable(*this); }
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Process-wide scratch-arena telemetry (see nn/arena.h): one block per
/// process, however many routers or slots it serves. The steady-state
/// invariant the counters make observable: once every worker's first
/// batch has warmed its arena, `arena_heap_allocs` and
/// `arena_chunk_mallocs` stop moving while `arena_allocs` keeps growing.
struct ProcessStats {
  uint64_t arena_heap_allocs = 0;
  uint64_t arena_allocs = 0;
  uint64_t arena_chunk_mallocs = 0;
  uint64_t arena_reserved_bytes = 0;
  uint64_t arena_high_water_bytes = 0;

  /// Reads this process's current values.
  static ProcessStats Capture();

  template <typename F>
  static void Fields(F&& f) {
    using stats::Field;
    using K = stats::Kind;
    constexpr auto kProcess = stats::Scope::kProcess;
    f(Field{1, "arena_heap_allocs", K::kCounter, "allocs",
            "operator new calls served by malloc.", kProcess},
      &ProcessStats::arena_heap_allocs);
    f(Field{2, "arena_allocs", K::kCounter, "allocs",
            "Bump allocations served from thread arenas.", kProcess},
      &ProcessStats::arena_allocs);
    f(Field{3, "arena_chunk_mallocs", K::kCounter, "chunks",
            "Arena chunk mallocs (growth events).", kProcess},
      &ProcessStats::arena_chunk_mallocs);
    f(Field{4, "arena_reserved_bytes", K::kGauge, "bytes",
            "Bytes currently reserved by live thread arenas.", kProcess},
      &ProcessStats::arena_reserved_bytes);
    f(Field{5, "arena_high_water_bytes", K::kMax, "bytes",
            "Peak bytes live inside any single arena scope.", kProcess},
      &ProcessStats::arena_high_water_bytes);
  }

  std::string ToTable() const { return stats::RenderTable(*this); }
  std::string ToJson() const { return stats::RenderJson(*this); }
};

/// Lock-free serving-side metrics: request/fallback/shed counters, an
/// HDR-style log-bucketed latency histogram (32 octaves x 8 sub-buckets,
/// ~9% relative error), and a max queue-depth gauge. All recording methods
/// are safe to call concurrently from workers and submitters; `Snapshot`
/// may race with recording and yields a merely slightly stale view.
class ServingMetrics {
 public:
  /// Records one completed request with its end-to-end latency.
  void RecordRequest(uint64_t latency_us, bool fallback);

  /// Records one request shed by admission control (call in addition to
  /// `RecordRequest` for the fallback answer it received).
  void RecordShed();

  /// Records the queue depth seen when a request was enqueued.
  void RecordQueueDepth(int depth);

  /// Records one model-bound micro-batch of `size` requests executed
  /// through the batched forward path (size-1 batches included — the
  /// distribution shows how well batching amortizes under real load).
  void RecordBatch(int size);

  /// Summarizes counters and percentile estimates.
  ServingStats Snapshot() const;

 private:
  stats::LiveStats<ServingStats> live_;
  /// Sum of recorded latencies; `mean_us` is derived from it at snapshot.
  std::atomic<uint64_t> total_us_{0};
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_METRICS_H_
