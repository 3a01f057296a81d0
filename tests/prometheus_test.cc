#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/metrics.h"
#include "serve/prometheus.h"

namespace rapid {
namespace {

bool Contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

serve::RouterStats SampleStats() {
  serve::RouterStats stats;
  stats.total.requests = 1000;
  stats.total.fallbacks = 10;
  stats.total.shed = 5;
  stats.total.p50_us = 120.5;
  stats.total.p95_us = 700.0;
  stats.total.p99_us = 900.25;
  stats.total.mean_us = 150.0;
  stats.total.max_us = 5000;
  stats.total.batches = 64;
  stats.total.batched_lists = 512;
  stats.cache.hits = 7;
  stats.cache.misses = 3;
  stats.unknown_slot = 2;
  stats.canary_rejected = 1;
  return stats;
}

TEST(PrometheusTest, RendersCoreCountersWithHelpAndType) {
  const std::string text = serve::RenderPrometheus(SampleStats());
  EXPECT_TRUE(Contains(text, "# HELP rapid_requests_total"));
  EXPECT_TRUE(Contains(text, "# TYPE rapid_requests_total counter"));
  EXPECT_TRUE(Contains(text, "rapid_requests_total 1000\n"));
  EXPECT_TRUE(Contains(text, "rapid_fallbacks_total 10\n"));
  EXPECT_TRUE(Contains(text, "rapid_shed_total 5\n"));
  EXPECT_TRUE(Contains(text, "rapid_cache_hits_total 7\n"));
  EXPECT_TRUE(Contains(text, "rapid_canary_rejected_total 1\n"));
  EXPECT_TRUE(Contains(
      text, "rapid_latency_quantile_microseconds{quantile=\"0.5\"} 120.5\n"));
  EXPECT_TRUE(Contains(
      text, "rapid_latency_quantile_microseconds{quantile=\"0.99\"} 900.25\n"));
  // Net, online, and page sections are absent unless their blocks are
  // present.
  EXPECT_FALSE(Contains(text, "rapid_net_"));
  EXPECT_FALSE(Contains(text, "rapid_online_"));
  EXPECT_FALSE(Contains(text, "rapid_page_"));
  EXPECT_FALSE(Contains(text, "rapid_slot_"));
}

TEST(PrometheusTest, PageBlockRendersWhenPresent) {
  serve::RouterStats stats = SampleStats();
  stats.has_page = true;
  stats.page.pages = 40;
  stats.page.page_lists = 120;
  stats.page.joint_pages = 39;
  stats.page.degraded_pages = 1;
  stats.page.lists_per_page_hist[2] = 38;
  stats.page.lists_per_page_hist[7] = 2;
  stats.page.redundancy_millitopics = 523;
  stats.page.max_lists_per_page = 12;

  const std::string text = serve::RenderPrometheus(stats);
  EXPECT_TRUE(Contains(text, "# TYPE rapid_page_pages_total counter"));
  EXPECT_TRUE(Contains(text, "rapid_page_pages_total 40\n"));
  EXPECT_TRUE(Contains(text, "rapid_page_lists_total 120\n"));
  EXPECT_TRUE(Contains(text, "rapid_page_joint_total 39\n"));
  EXPECT_TRUE(Contains(text, "rapid_page_degraded_total 1\n"));
  EXPECT_TRUE(Contains(text, "rapid_page_redundancy_millitopics_total 523\n"));
  EXPECT_TRUE(Contains(text, "rapid_page_max_lists 12\n"));
  // The lists-per-page histogram labels each bin by its list count; the
  // last bin is open-ended.
  EXPECT_TRUE(Contains(
      text, "rapid_page_lists_per_page_total{lists=\"3\"} 38\n"));
  EXPECT_TRUE(Contains(
      text, "rapid_page_lists_per_page_total{lists=\"8+\"} 2\n"));
}

TEST(PrometheusTest, LatencyHistogramIsCumulativeWithInfBucket) {
  serve::RouterStats stats = SampleStats();
  stats.total.requests = 10;
  stats.total.mean_us = 20.0;
  // Two populated buckets; the series must accumulate across them and the
  // +Inf bucket must equal the total count.
  stats.total.latency_hist[serve::ServingStats::LatencyBucketIndex(10)] = 6;
  stats.total.latency_hist[serve::ServingStats::LatencyBucketIndex(1000)] = 4;
  const std::string text = serve::RenderPrometheus(stats);
  EXPECT_TRUE(Contains(text,
                       "# TYPE rapid_request_latency_microseconds histogram"));
  EXPECT_TRUE(Contains(
      text, "rapid_request_latency_microseconds_bucket{le=\"+Inf\"} 10\n"));
  EXPECT_TRUE(Contains(text, "rapid_request_latency_microseconds_count 10\n"));
  EXPECT_TRUE(Contains(text, "rapid_request_latency_microseconds_sum 200\n"));

  // The first populated bucket's cumulative count is its own.
  std::istringstream lines(text);
  std::string line;
  uint64_t first_cumulative = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("rapid_request_latency_microseconds_bucket{le=\"", 0) ==
            0 &&
        line.find("+Inf") == std::string::npos) {
      first_cumulative =
          std::stoull(line.substr(line.find("} ") + 2));
      break;
    }
  }
  EXPECT_EQ(first_cumulative, 6u);
}

TEST(PrometheusTest, NetAndOnlineBlocksRenderWhenPresent) {
  serve::RouterStats stats = SampleStats();
  stats.has_net = true;
  stats.net.connections_accepted = 4;
  stats.net.closed_idle = 1;
  stats.net.closed_slow = 2;
  stats.net.closed_protocol_error = 3;
  stats.net.feedback_frames = 17;
  stats.has_online = true;
  stats.online.feedback_appended = 90;
  stats.online.feedback_dropped = 2;
  stats.online.train_rounds = 11;
  stats.online.publishes = 3;
  stats.online.publish_rejected = 1;
  stats.online.publish_skipped = 2;
  stats.online.last_published_version = 4;

  const std::string text = serve::RenderPrometheus(stats);
  EXPECT_TRUE(Contains(text, "rapid_net_connections_accepted_total 4\n"));
  EXPECT_TRUE(Contains(text, "rapid_net_closed_total{reason=\"idle\"} 1\n"));
  EXPECT_TRUE(Contains(text, "rapid_net_closed_total{reason=\"slow\"} 2\n"));
  EXPECT_TRUE(
      Contains(text, "rapid_net_closed_total{reason=\"protocol\"} 3\n"));
  EXPECT_TRUE(Contains(text, "rapid_net_feedback_frames_total 17\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_feedback_appended_total 90\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_feedback_dropped_total 2\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_train_rounds_total 11\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_publishes_total 3\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_publish_rejected_total 1\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_publish_skipped_total 2\n"));
  EXPECT_TRUE(Contains(text, "rapid_online_last_published_version 4\n"));
}

TEST(PrometheusTest, SlotSeriesCarryLabelsAndEscapeValues) {
  serve::RouterStats stats = SampleStats();
  serve::RouterStats::SlotEntry slot;
  slot.slot = "main";
  slot.model_name = "RAPID\"v2\\x";  // Quote + backslash must escape.
  slot.version = 5;
  slot.stats.requests = 123;
  slot.cache.hits = 9;
  stats.slots.push_back(slot);

  const std::string text = serve::RenderPrometheus(stats);
  EXPECT_TRUE(Contains(
      text, "rapid_slot_requests_total{slot=\"main\",model=\"RAPID\\\"v2\\\\x"
            "\",version=\"5\"} 123\n"));
  EXPECT_TRUE(Contains(
      text, "rapid_slot_version{slot=\"main\",model=\"RAPID\\\"v2\\\\x\"} 5\n"));
  EXPECT_TRUE(Contains(text, "rapid_slot_cache_hits_total"));
}

TEST(PrometheusTest, EveryLineIsACommentOrASample) {
  serve::RouterStats stats = SampleStats();
  stats.has_net = true;
  stats.has_online = true;
  stats.has_page = true;
  stats.page.pages = 3;
  stats.page.lists_per_page_hist[0] = 1;
  stats.page.lists_per_page_hist[7] = 2;
  stats.total.latency_hist[3] = 7;
  // The open-ended last bucket is the +Inf bucket, not a second one.
  stats.total.latency_hist[serve::ServingStats::kLatencyHistBins - 1] = 1;
  serve::RouterStats::SlotEntry slot;
  slot.slot = "a";
  slot.model_name = "m";
  stats.slots.push_back(slot);

  const std::string text = serve::RenderPrometheus(stats);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // Exposition format requires a final \n.
  std::istringstream lines(text);
  std::string line;
  std::set<std::string> series;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // A sample: metric name (with optional labels), one space, a value.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    // Values parse as numbers (snprintf %g / integer rendering).
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    const std::string name = line.substr(0, space);
    EXPECT_EQ(name.rfind("rapid_", 0), 0u) << line;
    EXPECT_TRUE(series.insert(name).second) << "duplicate series: " << line;
  }
}

}  // namespace
}  // namespace rapid
