#ifndef RAPID_SERVE_PROMETHEUS_H_
#define RAPID_SERVE_PROMETHEUS_H_

#include <string>

#include "serve/router.h"

namespace rapid::serve {

/// Renders a `RouterStats` snapshot in the Prometheus text exposition
/// format (version 0.0.4), one family per declared stats field (see
/// serve/stats_schema.h): `# HELP` / `# TYPE` headers, `rapid_`-prefixed
/// counters and gauges, per-slot series labelled `{slot="...",
/// model="...", version="..."}`, and a native cumulative histogram
/// (`rapid_request_latency_microseconds_bucket{le="..."}`) built from the
/// snapshot's raw latency buckets so collectors can compute arbitrary
/// fleet quantiles. Net, online and page blocks render only when present
/// (`has_net` / `has_online` / `has_page`). The output always ends with a
/// newline, as scrapers expect.
///
/// This is a pure formatter over the same snapshot the JSON scrape path
/// uses; serve it via `net::Client::GetStatsPrometheus` or dump it from
/// any in-process `RouterStats`.
std::string RenderPrometheus(const RouterStats& stats);

}  // namespace rapid::serve

#endif  // RAPID_SERVE_PROMETHEUS_H_
