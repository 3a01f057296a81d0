#ifndef RAPID_SERVE_STATS_MERGE_H_
#define RAPID_SERVE_STATS_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "serve/router.h"

namespace rapid::serve {

/// Fleet-wide stats aggregation: fold per-shard snapshots into one view
/// that renders through the same `ToTable`/`ToJson` as a single process.
///
/// Each block merges field by field per its declared `stats::Kind` (see
/// serve/stats_schema.h): counters and gauges sum, maxima take the max,
/// histograms sum bin-wise, `mean_us` is request-weighted, and latency
/// percentiles are **exact**: recomputed from the summed raw histograms.
/// Only when neither side has a histogram (a peer without histogram
/// transport) do percentiles fall back to the request-weighted average of
/// the points — an approximation, documented rather than hidden.

/// Request count weighting a block's kMean / kQuantile fields (0 for blocks
/// without requests, which declare no such fields).
template <typename Block>
uint64_t MergeWeight(const Block& block) {
  if constexpr (requires { block.requests; }) {
    return block.requests;
  } else {
    return 0;
  }
}

/// Folds one stats block (`ServingStats`, `CacheStats`, `NetStats`,
/// `OnlineStats`, `PageStats`, `ProcessStats`) into `dst`, field by field
/// per each field's declared kind.
template <typename Block>
void MergeInto(Block* dst, const Block& src) {
  using stats::Kind;
  const double wd = static_cast<double>(MergeWeight(*dst));
  const double ws = static_cast<double>(MergeWeight(src));
  Block::Fields([&](const stats::Field& f, auto member) {
    auto& d = dst->*member;
    const auto& s = src.*member;
    using T = std::remove_cvref_t<decltype(d)>;
    if constexpr (stats::kIsHistogram<T>) {
      for (size_t i = 0; i < d.size(); ++i) d[i] += s[i];
    } else if (f.kind == Kind::kMax) {
      d = std::max(d, s);
    } else if (f.kind == Kind::kMean || f.kind == Kind::kQuantile) {
      d = wd + ws == 0.0 ? T{} : static_cast<T>((d * wd + s * ws) / (wd + ws));
    } else {
      d += s;
    }
  });
  // kQuantile: exact from the merged histogram whenever it has samples.
  if constexpr (requires { dst->RecomputeLatencyPercentiles(); }) {
    dst->RecomputeLatencyPercentiles();
  }
}

/// Folds a full per-shard snapshot into `dst`: blocks merge as above, and
/// per-slot entries merge by slot name (a slot present on several shards
/// becomes one entry; mid-rollout version skew keeps the highest version
/// and its model name). An optional block (`net`, `online`, `page`) is
/// present in the fleet view as soon as any shard reported it.
void MergeInto(RouterStats* dst, const RouterStats& src);

}  // namespace rapid::serve

#endif  // RAPID_SERVE_STATS_MERGE_H_
