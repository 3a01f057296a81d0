#include "serve/prometheus.h"

#include <cstdio>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rapid::serve {

namespace {

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// One block's values under one label set, e.g. a slot's serving stats.
template <typename Block>
using Series = std::vector<std::pair<const Block*, std::string>>;

class Renderer {
 public:
  /// Renders every declared field of `Block` as families named
  /// `rapid_<prefix><metric>`, one sample per series. Consecutive fields
  /// sharing a family (a `label` each) share one HELP/TYPE header.
  template <typename Block>
  void Render(const Series<Block>& series, const std::string& prefix) {
    Block::Fields([&](const stats::Field& f, auto member) {
      std::string family = "rapid_" + prefix + (f.metric ? f.metric : f.name);
      using T = std::remove_cvref_t<decltype(series[0].first->*member)>;
      if constexpr (stats::kIsHistogram<T>) {
        if (std::string_view(f.label) == "le") {
          Header(family, Help(f), "histogram");
          for (const auto& [block, labels] : series) {
            NativeHistogram(family, *block, block->*member, labels);
          }
          return;
        }
        family += "_total";
        Header(family, Help(f), "counter");
        for (const auto& [block, labels] : series) {
          const T& bins = block->*member;
          for (size_t i = 0; i < bins.size(); ++i) {
            char bin[48];
            std::snprintf(bin, sizeof(bin), "%s=\"%zu%s\"", f.label, i + 1,
                          i + 1 == bins.size() ? "+" : "");
            Sample(family, labels, bin, bins[i]);
          }
        }
      } else {
        const bool counter = f.kind == stats::Kind::kCounter;
        if (counter) family += "_total";
        Header(family, Help(f), counter ? "counter" : "gauge");
        for (const auto& [block, labels] : series) {
          Sample(family, labels, f.label ? f.label : "", block->*member);
        }
      }
    });
  }

  template <typename Block>
  void Render(const Block& block, const std::string& prefix) {
    Render(Series<Block>{{&block, ""}}, prefix);
  }

  void Header(const std::string& family, const std::string& help,
              const char* type) {
    if (family == last_family_) return;
    last_family_ = family;
    out_.append("# HELP ").append(family).append(" ").append(help);
    out_.append("\n# TYPE ").append(family).append(" ").append(type);
    out_ += '\n';
  }

  /// Appends `name{labels..., extra} value`; `labels` is empty or a
  /// braced label set, `extra` an optional further `key="value"` pair.
  template <typename T>
  void Sample(const std::string& name, const std::string& labels,
              std::string_view extra, T value) {
    out_ += name;
    if (extra.empty()) {
      out_ += labels;
    } else {
      if (labels.empty()) {
        out_ += '{';
      } else {
        out_.append(labels, 0, labels.size() - 1) += ',';
      }
      out_.append(extra) += '}';
    }
    out_ += ' ';
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", value);
      out_ += buf;
    } else {
      out_ += std::to_string(value);
    }
    out_ += '\n';
  }

  std::string Take() { return std::move(out_); }

 private:
  static std::string Help(const stats::Field& f) {
    return std::string(f.help) +
           (f.scope == stats::Scope::kProcess ? " Process-wide." : "");
  }

  /// A native cumulative histogram from raw latency buckets. Empty buckets
  /// are skipped (the series stays cumulative and valid); the mandatory
  /// `+Inf` bucket, `_sum`, and `_count` always render.
  template <typename Block, typename Bins>
  void NativeHistogram(const std::string& family, const Block& block,
                       const Bins& bins, const std::string& labels) {
    const std::string bucket = family + "_bucket";
    uint64_t cumulative = 0;
    for (size_t i = 0; i + 1 < bins.size(); ++i) {
      if (bins[i] == 0) continue;
      cumulative += bins[i];
      // A bucket's upper bound is the next bucket's representative value.
      char le[48];
      std::snprintf(le, sizeof(le), "le=\"%.6g\"",
                    ServingStats::LatencyBucketValue(static_cast<int>(i + 1)));
      Sample(bucket, labels, le, cumulative);
    }
    // The open-ended last bucket is the +Inf one (rendered exactly once).
    cumulative += bins.back();
    Sample(bucket, labels, "le=\"+Inf\"", cumulative);
    double sum = 0.0;
    if constexpr (requires { block.mean_us; }) {
      sum = block.mean_us * static_cast<double>(block.requests);
    }
    Sample(family + "_sum", labels, "", sum);
    Sample(family + "_count", labels, "", cumulative);
  }

  std::string out_;
  std::string last_family_;
};

}  // namespace

std::string RenderPrometheus(const RouterStats& stats) {
  Renderer r;
  r.Render(stats.total, "");
  r.Render(stats.cache, "cache_");
  r.Render(stats, "");
  if (stats.has_net) r.Render(stats.net, "net_");
  if (stats.has_online) r.Render(stats.online, "online_");
  if (stats.has_page) r.Render(stats.page, "page_");
  r.Render(stats.process, "");

  if (stats.slots.empty()) return r.Take();
  Series<ServingStats> slot_stats;
  Series<CacheStats> slot_cache;
  for (const auto& slot : stats.slots) {
    const std::string labels = "{slot=\"" + EscapeLabel(slot.slot) +
                               "\",model=\"" + EscapeLabel(slot.model_name) +
                               "\",version=\"" + std::to_string(slot.version) +
                               "\"}";
    slot_stats.emplace_back(&slot.stats, labels);
    slot_cache.emplace_back(&slot.cache, labels);
  }
  r.Render(slot_stats, "slot_");
  r.Render(slot_cache, "slot_cache_");
  r.Header("rapid_slot_version", "Published model version per slot.",
           "gauge");
  for (const auto& slot : stats.slots) {
    r.Sample("rapid_slot_version",
             "{slot=\"" + EscapeLabel(slot.slot) + "\",model=\"" +
                 EscapeLabel(slot.model_name) + "\"}",
             "", slot.version);
  }
  return r.Take();
}

}  // namespace rapid::serve
