#ifndef RAPID_SERVE_STATS_SCHEMA_H_
#define RAPID_SERVE_STATS_SCHEMA_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

/// The declared stats schema. Every stats block (`ServingStats`,
/// `CacheStats`, `NetStats`, ...) lists its fields once, in a static
/// `Fields(visit)` table that calls `visit(Field{...}, &Block::member)` per
/// field. Everything else is generated from that table:
///
///   - the table and JSON renderers (`RenderTable`, `RenderJson` below),
///   - the Prometheus exposition (serve/prometheus.cc),
///   - the binary stats codec, keyed by field id (net/codec.cc),
///   - the fleet merge (serve/stats_merge.h), whose semantics follow each
///     field's declared `Kind`,
///   - the lock-free recording side (`LiveStats` below).
///
/// Adding a stats field is one member plus one table row.
namespace rapid::serve::stats {

/// What a number means, and therefore how fleet merges combine it.
enum class Kind : uint8_t {
  /// Cumulative count since start. Merge: sum.
  kCounter,
  /// Current level (open connections, reserved bytes). Merge: sum, the
  /// fleet-wide level.
  kGauge,
  /// High-water mark or newest value. Merge: max.
  kMax,
  /// Per-bin counts. Merge: bin-wise sum.
  kHistogram,
  /// Per-request mean. Merge: weighted by the block's request count.
  kMean,
  /// Latency percentile point. Merge: recomputed exactly from the block's
  /// merged latency histogram; request-weighted when neither side has one.
  kQuantile,
};

/// Whose number it is.
enum class Scope : uint8_t {
  /// Owned by the instance that reports the block (one router, one slot,
  /// one server).
  kInstance,
  /// Process-wide: one value per process however many routers it runs.
  kProcess,
};

/// One declared stats field.
struct Field {
  /// Wire id inside its block. Stable forever: a retired field's id is
  /// never reused, and a geometry change (histogram bins) takes a new id.
  uint16_t id;
  /// JSON key and, with underscores as spaces, the table label.
  const char* name;
  Kind kind;
  const char* unit;
  /// Prometheus `# HELP` text.
  const char* help;
  Scope scope = Scope::kInstance;
  /// Prometheus family name after the block prefix; `name` when null.
  const char* metric = nullptr;
  /// Prometheus label: a `key="value"` pair this field contributes to its
  /// family, or for histograms the bin label key (`le` renders a native
  /// cumulative histogram).
  const char* label = nullptr;
};

template <typename T>
inline constexpr bool kIsHistogram = false;
template <size_t N>
inline constexpr bool kIsHistogram<std::array<uint64_t, N>> = true;

/// The live values of one stats block, recorded concurrently. Recording is
/// lock-free (relaxed atomic operations on the block's own members) and
/// `Snapshot` copies every declared field, so a new field needs no atomic
/// and no snapshot line of its own.
template <typename Block>
class LiveStats {
 public:
  template <typename T>
  void Add(T Block::*field, std::type_identity_t<T> n = 1) {
    std::atomic_ref<T>(values_.*field).fetch_add(n, std::memory_order_relaxed);
  }

  template <typename T>
  void Sub(T Block::*field, std::type_identity_t<T> n = 1) {
    std::atomic_ref<T>(values_.*field).fetch_sub(n, std::memory_order_relaxed);
  }

  /// Counts one event in `bin`, clamped to the last (open-ended) bin.
  template <size_t N>
  void AddToBin(std::array<uint64_t, N> Block::*field, size_t bin) {
    std::atomic_ref<uint64_t>((values_.*field)[std::min(bin, N - 1)])
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Raises a kMax field to `v` if it is higher.
  template <typename T>
  void Max(T Block::*field, std::type_identity_t<T> v) {
    std::atomic_ref<T> ref(values_.*field);
    T prev = ref.load(std::memory_order_relaxed);
    while (prev < v &&
           !ref.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  /// May race with recording; yields a merely slightly stale view.
  Block Snapshot() const {
    Block out;
    Block::Fields([&](const Field&, auto member) {
      auto& from = values_.*member;
      auto& to = out.*member;
      if constexpr (kIsHistogram<std::remove_cvref_t<decltype(to)>>) {
        for (size_t i = 0; i < to.size(); ++i) {
          to[i] = std::atomic_ref(from[i]).load(std::memory_order_relaxed);
        }
      } else {
        to = std::atomic_ref(from).load(std::memory_order_relaxed);
      }
    });
    return out;
  }

 private:
  /// Only ever accessed through std::atomic_ref.
  mutable Block values_;
};

/// Appends one scalar in the renderers' shared format.
inline void AppendValue(std::string* out, uint64_t v) {
  *out += std::to_string(v);
}
inline void AppendValue(std::string* out, int v) { *out += std::to_string(v); }
inline void AppendValue(std::string* out, bool v) {
  *out += v ? "true" : "false";
}
inline void AppendValue(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  *out += buf;
}

/// The block's fields as JSON members, `"name": value, ...` (no braces),
/// histograms as arrays.
template <typename Block>
std::string RenderJsonMembers(const Block& block) {
  std::string out;
  Block::Fields([&](const Field& f, auto member) {
    const auto& v = block.*member;
    if (!out.empty()) out += ", ";
    out += '"';
    out += f.name;
    out += "\": ";
    if constexpr (kIsHistogram<std::remove_cvref_t<decltype(v)>>) {
      out += '[';
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ", ";
        AppendValue(&out, v[i]);
      }
      out += ']';
    } else {
      AppendValue(&out, v);
    }
  });
  return out;
}

/// Flat JSON object of the block (no trailing newline).
template <typename Block>
std::string RenderJson(const Block& block) {
  return "{" + RenderJsonMembers(block) + "}";
}

/// Two-column human-readable rows, one per field: `prefix` + name with
/// spaces, value, unit. Histograms list their non-empty bins as
/// `bin:count`; process-wide fields are marked.
template <typename Block>
std::string RenderTable(const Block& block, const char* prefix = "") {
  std::string out;
  Block::Fields([&](const Field& f, auto member) {
    const auto& v = block.*member;
    std::string label = std::string(prefix) + f.name;
    std::replace(label.begin(), label.end(), '_', ' ');
    std::string value;
    if constexpr (kIsHistogram<std::remove_cvref_t<decltype(v)>>) {
      for (size_t i = 0; i < v.size(); ++i) {
        if (v[i] == 0) continue;
        value += (value.empty() ? "" : " ") + std::to_string(i) + ":" +
                 std::to_string(v[i]);
      }
      if (value.empty()) value = "-";
    } else {
      AppendValue(&value, v);
    }
    // Label left-aligned in 28 columns, value right-aligned in 12; a long
    // histogram value simply extends the row.
    label.resize(std::max<size_t>(label.size(), 28), ' ');
    value.insert(0, value.size() < 12 ? 12 - value.size() : 0, ' ');
    out += "  " + label + " " + value + (*f.unit ? " " : "") + f.unit +
           (f.scope == Scope::kProcess ? " (process)" : "") + "\n";
  });
  return out;
}

}  // namespace rapid::serve::stats

#endif  // RAPID_SERVE_STATS_SCHEMA_H_
