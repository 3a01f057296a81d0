// Property suite for the declared stats schema (serve/stats_schema.h).
//
// The fleet merge, the renderers and the binary codec are all generated
// from each block's `Fields` table, so these properties are stated once per
// declared kind and checked for every block:
//   - the table is well formed (unique ids and names, scopes as declared);
//   - merging is commutative and associative, and the empty block is its
//     unit, for every field whatever its kind;
//   - each field merges per its kind (sum, max, bin-wise sum, weighted);
//   - the wire codec carries every declared field exactly, and skips ids it
//     does not know, so peers of different versions still merge.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/codec.h"
#include "proptest.h"
#include "serve/stats_merge.h"

namespace rapid {
namespace {

using serve::stats::Field;
using serve::stats::Kind;
using serve::stats::kIsHistogram;

template <typename Block>
using Triple = std::array<Block, 3>;

/// Random values for every declared field, normalized by one merge into
/// an empty block so derived fields (percentiles) agree with the histogram.
template <typename Block>
Block RandomBlock(std::mt19937_64& rng) {
  Block raw;
  Block::Fields([&](const Field&, auto member) {
    auto& v = raw.*member;
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (kIsHistogram<T>) {
      for (uint64_t& bin : v) bin = rng() % 5 == 0 ? rng() % 1000 : 0;
    } else if constexpr (std::is_same_v<T, double>) {
      v = static_cast<double>(rng() % 800'000) / 8.0;
    } else {
      v = static_cast<T>(rng() % 100'000);
    }
  });
  if (rng() % 4 == 0) raw = Block{};  // The unit element shows up too.
  Block out;
  serve::MergeInto(&out, raw);
  return out;
}

template <typename Block>
Block Merged(Block a, const Block& b) {
  serve::MergeInto(&a, b);
  return a;
}

/// Name of the first field where `a` and `b` differ ("" when equal);
/// doubles compare to a relative 1e-9 (weighted means round).
template <typename Block>
std::string FirstDifference(const Block& a, const Block& b) {
  std::string diff;
  Block::Fields([&](const Field& f, auto member) {
    const auto& x = a.*member;
    const auto& y = b.*member;
    bool same = x == y;
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(x)>, double>) {
      same = std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(x));
    }
    if (!same && diff.empty()) diff = f.name;
  });
  return diff;
}

template <typename Block>
std::string Describe(const Triple<Block>& t) {
  return "a=" + serve::stats::RenderJson(t[0]) +
         " b=" + serve::stats::RenderJson(t[1]) +
         " c=" + serve::stats::RenderJson(t[2]);
}

template <typename Block>
std::vector<Triple<Block>> ShrinkTriple(const Triple<Block>& t) {
  std::vector<Triple<Block>> out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (FirstDifference(t[i], Block{}).empty()) continue;
    Triple<Block> smaller = t;
    smaller[i] = Block{};
    out.push_back(smaller);
  }
  return out;
}

template <typename Block>
bool MergeIsACommutativeMonoid(const Triple<Block>& t) {
  const auto& [a, b, c] = t;
  return FirstDifference(Merged(a, b), Merged(b, a)).empty() &&
         FirstDifference(Merged(Merged(a, b), c), Merged(a, Merged(b, c)))
             .empty() &&
         FirstDifference(Merged(Block{}, a), a).empty() &&
         FirstDifference(Merged(a, Block{}), a).empty();
}

/// Each field of `a + b` relates to `a` and `b` as its kind declares.
template <typename Block>
bool FieldsMergePerDeclaredKind(const Triple<Block>& t) {
  const Block& a = t[0];
  const Block& b = t[1];
  const Block m = Merged(a, b);
  const double wa = static_cast<double>(serve::MergeWeight(a));
  const double wb = static_cast<double>(serve::MergeWeight(b));
  bool ok = true;
  Block::Fields([&](const Field& f, auto member) {
    const auto& x = a.*member;
    const auto& y = b.*member;
    const auto& z = m.*member;
    using T = std::remove_cvref_t<decltype(z)>;
    if constexpr (kIsHistogram<T>) {
      for (size_t i = 0; i < z.size(); ++i) ok = ok && z[i] == x[i] + y[i];
    } else {
      switch (f.kind) {
        case Kind::kCounter:
        case Kind::kGauge:
          ok = ok && z == x + y;
          break;
        case Kind::kMax:
          ok = ok && z == std::max(x, y);
          break;
        case Kind::kMean: {
          const double want = wa + wb == 0 ? 0.0 : (x * wa + y * wb) / (wa + wb);
          ok = ok && std::abs(z - want) <= 1e-9 * std::max(1.0, want);
          break;
        }
        case Kind::kQuantile:  // Recomputed from the histogram: within it.
          ok = ok && z >= 0;
          break;
        case Kind::kHistogram:
          ok = false;  // Scalars never declare histogram kind.
          break;
      }
    }
  });
  return ok;
}

template <typename Block>
void CheckMergeProperties(uint64_t seed) {
  const auto gen = [](std::mt19937_64& rng) {
    return Triple<Block>{RandomBlock<Block>(rng), RandomBlock<Block>(rng),
                         RandomBlock<Block>(rng)};
  };
  EXPECT_TRUE(proptest::ForAll(seed, 150, gen, ShrinkTriple<Block>,
                               MergeIsACommutativeMonoid<Block>,
                               Describe<Block>));
  EXPECT_TRUE(proptest::ForAll(seed + 1, 150, gen, ShrinkTriple<Block>,
                               FieldsMergePerDeclaredKind<Block>,
                               Describe<Block>));
}

TEST(StatsSchemaPropertyTest, MergeIsCommutativeAssociativeWithEmptyUnit) {
  CheckMergeProperties<serve::ServingStats>(20261016);
  CheckMergeProperties<serve::CacheStats>(20261017);
  CheckMergeProperties<serve::NetStats>(20261018);
  CheckMergeProperties<serve::OnlineStats>(20261019);
  CheckMergeProperties<serve::PageStats>(20261020);
  CheckMergeProperties<serve::ProcessStats>(20261021);
}

template <typename Block>
void ExpectWellFormedTable(serve::stats::Scope scope) {
  std::set<uint16_t> ids;
  std::set<std::string> names;
  Block::Fields([&](const Field& f, auto member) {
    using T = std::remove_cvref_t<decltype(Block{}.*member)>;
    EXPECT_GT(f.id, 0) << f.name;
    EXPECT_TRUE(ids.insert(f.id).second) << "duplicate id " << f.id;
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
    EXPECT_EQ(f.kind == Kind::kHistogram, kIsHistogram<T>) << f.name;
    if constexpr (kIsHistogram<T>) {
      EXPECT_NE(f.label, nullptr) << f.name;
    }
    EXPECT_EQ(f.scope, scope) << f.name;
    EXPECT_GT(std::strlen(f.help), 0u) << f.name;
  });
  EXPECT_FALSE(ids.empty());
}

TEST(StatsSchemaPropertyTest, FieldTablesAreWellFormedAndScoped) {
  using serve::stats::Scope;
  // Process-wide numbers live only in ProcessStats: an engine or slot
  // block that reported them would repeat one process's value per slot.
  ExpectWellFormedTable<serve::ServingStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::CacheStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::NetStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::OnlineStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::PageStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::RouterStats>(Scope::kInstance);
  ExpectWellFormedTable<serve::ProcessStats>(Scope::kProcess);
}

serve::RouterStats RandomRouterStats(std::mt19937_64& rng) {
  serve::RouterStats s;
  s.total = RandomBlock<serve::ServingStats>(rng);
  s.cache = RandomBlock<serve::CacheStats>(rng);
  s.process = RandomBlock<serve::ProcessStats>(rng);
  s.unknown_slot = rng() % 100;
  s.quota_shed = rng() % 100;
  s.has_net = rng() % 2 == 0;
  if (s.has_net) s.net = RandomBlock<serve::NetStats>(rng);
  s.has_online = rng() % 2 == 0;
  if (s.has_online) s.online = RandomBlock<serve::OnlineStats>(rng);
  s.has_page = rng() % 2 == 0;
  if (s.has_page) s.page = RandomBlock<serve::PageStats>(rng);
  for (int i = static_cast<int>(rng() % 3); i > 0; --i) {
    serve::RouterStats::SlotEntry slot;
    slot.slot = "slot" + std::to_string(i);
    slot.model_name = "m" + std::to_string(rng() % 10);
    slot.version = rng() % 50;
    slot.stats = RandomBlock<serve::ServingStats>(rng);
    slot.cache = RandomBlock<serve::CacheStats>(rng);
    s.slots.push_back(std::move(slot));
  }
  return s;
}

std::vector<uint8_t> EncodeBinary(const serve::RouterStats& stats) {
  net::WireStatsResponse response;
  response.format = net::StatsFormat::kBinary;
  response.stats = stats;
  std::vector<uint8_t> bytes;
  net::EncodeStatsResponse(response, &bytes);
  return bytes;
}

bool DecodeBinary(const std::vector<uint8_t>& bytes, serve::RouterStats* out) {
  size_t consumed = 0;
  net::Frame frame;
  net::WireStatsResponse decoded;
  if (net::ExtractFrame(bytes.data(), bytes.size(), &consumed, &frame) !=
          net::DecodeStatus::kOk ||
      !net::ParseStatsResponse(frame, &decoded)) {
    return false;
  }
  *out = std::move(decoded.stats);
  return true;
}

/// First differing block/field of two router snapshots ("" when equal).
std::string RouterDifference(const serve::RouterStats& a,
                             const serve::RouterStats& b) {
  std::string d = FirstDifference(a.total, b.total) +
                  FirstDifference(a.cache, b.cache) +
                  FirstDifference(a, b) +
                  FirstDifference(a.process, b.process) +
                  FirstDifference(a.net, b.net) +
                  FirstDifference(a.online, b.online) +
                  FirstDifference(a.page, b.page);
  if (a.has_net != b.has_net || a.has_online != b.has_online ||
      a.has_page != b.has_page || a.slots.size() != b.slots.size()) {
    return d + " presence";
  }
  for (size_t i = 0; i < a.slots.size(); ++i) {
    if (a.slots[i].slot != b.slots[i].slot ||
        a.slots[i].model_name != b.slots[i].model_name ||
        a.slots[i].version != b.slots[i].version) {
      d += " slot";
    }
    d += FirstDifference(a.slots[i].stats, b.slots[i].stats) +
         FirstDifference(a.slots[i].cache, b.slots[i].cache);
  }
  return d;
}

TEST(StatsSchemaPropertyTest, WireCarriesEveryDeclaredField) {
  EXPECT_TRUE(proptest::ForAll(
      20261022, 150, RandomRouterStats,
      [](const serve::RouterStats&) {
        return std::vector<serve::RouterStats>{};
      },
      [](const serve::RouterStats& stats) {
        serve::RouterStats decoded;
        return DecodeBinary(EncodeBinary(stats), &decoded) &&
               RouterDifference(stats, decoded).empty();
      },
      [](const serve::RouterStats& s) { return s.ToJson(); }));
}

TEST(StatsSchemaPropertyTest, DecoderSkipsFieldsAndBlocksItDoesNotKnow) {
  // A newer peer's scrape: one unknown field inside the first block and
  // one unknown trailing block. An older decoder reads everything it
  // knows and skips the rest.
  serve::RouterStats stats;
  stats.total.requests = 7;
  stats.cache.hits = 3;
  std::vector<uint8_t> bytes = EncodeBinary(stats);
  // Payload: format u8, block count u16, then the first block record
  // (id u16, length u32, field count u16, fields).
  const size_t payload = net::kFrameHeaderBytes;
  const size_t first_len = payload + 1 + 2 + 2;
  const size_t first_count = first_len + 4;
  const std::vector<uint8_t> unknown_field = {0xE7, 0x03, 3, 0, 0, 0,
                                              'n', 'e', 'w'};
  bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(first_count + 2),
               unknown_field.begin(), unknown_field.end());
  const auto bump = [&bytes](size_t at, auto delta) {
    decltype(delta) value;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    value += delta;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  bump(first_len, static_cast<uint32_t>(unknown_field.size()));
  bump(first_count, static_cast<uint16_t>(1));
  const std::vector<uint8_t> unknown_block = {0x63, 0, 2, 0, 0, 0, 0, 0};
  bytes.insert(bytes.end(), unknown_block.begin(), unknown_block.end());
  bump(payload + 1, static_cast<uint16_t>(1));
  bump(16, static_cast<uint32_t>(unknown_field.size() + unknown_block.size()));

  serve::RouterStats decoded;
  ASSERT_TRUE(DecodeBinary(bytes, &decoded));
  EXPECT_EQ(decoded.total.requests, 7u);
  EXPECT_EQ(decoded.cache.hits, 3u);
  EXPECT_EQ(RouterDifference(stats, decoded), "");

  // A fleet merge of that newer peer with a current one works as usual.
  serve::RouterStats fleet = stats;
  serve::MergeInto(&fleet, decoded);
  EXPECT_EQ(fleet.total.requests, 14u);
}

TEST(StatsSchemaPropertyTest, KnownFieldWithWrongWidthIsRejected) {
  serve::RouterStats stats;
  stats.total.requests = 7;
  std::vector<uint8_t> bytes = EncodeBinary(stats);
  // The `requests` field record: id u16 at +0, length u32 at +2.
  const size_t field = net::kFrameHeaderBytes + 1 + 2 + 6 + 2;
  uint16_t id = 0;
  std::memcpy(&id, bytes.data() + field, sizeof(id));
  ASSERT_EQ(id, 1);
  bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(field + 6 + 8), 0);
  const auto bump = [&bytes](size_t at) {
    uint32_t value = 0;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    ++value;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
  };
  bump(field + 2);                             // field length 8 -> 9
  bump(net::kFrameHeaderBytes + 1 + 2 + 2);    // block length
  bump(16);                                    // frame payload length
  serve::RouterStats decoded;
  EXPECT_FALSE(DecodeBinary(bytes, &decoded));
}

TEST(StatsSchemaPropertyTest, LiveStatsCountsEveryConcurrentEvent) {
  // The recording side: counters, bins and maxima updated from several
  // threads at once lose nothing, and a snapshot carries every field.
  serve::stats::LiveStats<serve::PageStats> live;
  constexpr int kThreads = 4;
  constexpr int kEvents = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&live, t] {
      for (int i = 0; i < kEvents; ++i) {
        live.Add(&serve::PageStats::pages);
        live.Add(&serve::PageStats::page_lists, 3);
        live.AddToBin(&serve::PageStats::lists_per_page_hist,
                      static_cast<size_t>(i % 10));
        live.Max(&serve::PageStats::max_lists_per_page, t * kEvents + i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const serve::PageStats s = live.Snapshot();
  EXPECT_EQ(s.pages, uint64_t{kThreads} * kEvents);
  EXPECT_EQ(s.page_lists, uint64_t{3} * kThreads * kEvents);
  EXPECT_EQ(s.lists_per_page_hist[0], uint64_t{kThreads} * kEvents / 10);
  // Bins 7, 8 and 9 all land in the open-ended last bin.
  EXPECT_EQ(s.lists_per_page_hist[7], uint64_t{3} * kThreads * kEvents / 10);
  EXPECT_EQ(s.max_lists_per_page, kThreads * kEvents - 1);
}

}  // namespace
}  // namespace rapid
