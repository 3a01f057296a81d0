#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace rapid::bench {

std::string RunMethodSweep(const eval::Environment& env,
                           const std::vector<std::string>& metric_columns,
                           const std::string& title,
                           eval::ResultTable* table_out) {
  eval::ResultTable local(metric_columns);
  eval::ResultTable& table = table_out != nullptr ? *table_out : local;
  for (auto& method : AllMethods()) {
    const auto t0 = std::chrono::steady_clock::now();
    table.AddRow(eval::FitAndEvaluate(env, *method));
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::fprintf(stderr, "[%s] %-10s done in %.1fs\n", title.c_str(),
                 method->name().c_str(), secs);
  }
  return table.Render(title);
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      args.check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--quick] [--check]\n",
                   argv[0]);
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
      std::exit(2);
    }
  }
  return args;
}

std::string RepeatStats::SamplesJson() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out << ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", samples[i]);
    out << buf;
  }
  out << "]";
  return out.str();
}

RepeatStats Repeat(int repetitions, const std::function<double()>& measure) {
  RepeatStats stats;
  stats.samples.reserve(static_cast<size_t>(std::max(repetitions, 1)));
  for (int k = 0; k < std::max(repetitions, 1); ++k) {
    stats.samples.push_back(measure());
  }
  std::vector<double> sorted = stats.samples;
  std::sort(sorted.begin(), sorted.end());
  stats.min = sorted.front();
  const size_t n = sorted.size();
  stats.median = n % 2 == 1 ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return stats;
}

std::string MetricJson(const std::string& key, const RepeatStats& stats,
                       const std::string& extra) {
  std::ostringstream out;
  char buf[128];
  out << "{";
  if (!extra.empty()) out << extra << ", ";
  std::snprintf(buf, sizeof(buf), "\"%s\": %.1f, \"%s_min\": %.1f, ",
                key.c_str(), stats.median, key.c_str(), stats.min);
  out << buf << "\"" << key << "_samples\": " << stats.SamplesJson() << "}";
  return out.str();
}

std::string TableJson(const eval::ResultTable& table,
                      const std::vector<std::string>& metric_columns,
                      const std::string& title) {
  std::ostringstream out;
  out << "{\"title\": \"" << title << "\", \"rows\": [";
  bool first_row = true;
  for (const eval::MethodMetrics& row : table.rows()) {
    if (!first_row) out << ", ";
    first_row = false;
    out << "{\"method\": \"" << row.name << "\", \"metrics\": {";
    bool first_metric = true;
    for (const std::string& metric : metric_columns) {
      if (!first_metric) out << ", ";
      first_metric = false;
      out << "\"" << metric << "\": " << row.Mean(metric);
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

}  // namespace rapid::bench
