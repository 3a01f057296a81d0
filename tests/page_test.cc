// Page-level reranking tests: the cross-list coverage math, the greedy
// pass (joint vs independent), the page session generator, the page DCM,
// and the wire path — a real net::Server fanning one page frame into the
// router and reassembling the page reply.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "click/page_dcm.h"
#include "datagen/pages.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "page/page.h"
#include "rerank/reranker.h"
#include "serve/prometheus.h"
#include "serve/router.h"

namespace rapid {
namespace {

using namespace std::chrono_literals;

data::Dataset SmallDataset(uint64_t seed = 101) {
  data::SimConfig cfg;
  cfg.kind = data::DatasetKind::kTaobao;
  cfg.num_users = 20;
  cfg.num_items = 120;
  return data::GenerateDataset(cfg, seed);
}

/// Deterministic stand-in model: rotates the list left by `shift`.
class RotateReranker : public rerank::Reranker {
 public:
  explicit RotateReranker(int shift) : shift_(shift) {}

  std::string name() const override {
    return "rotate-" + std::to_string(shift_);
  }

  std::vector<int> Rerank(const data::Dataset& /*data*/,
                          const data::ImpressionList& list) const override {
    std::vector<int> out = list.items;
    if (!out.empty()) {
      std::rotate(out.begin(),
                  out.begin() + (shift_ % static_cast<int>(out.size())),
                  out.end());
    }
    return out;
  }

 private:
  const int shift_;
};

bool IsPermutationOf(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

// ---------------------------------------------------------------------------
// Coverage math

TEST(PageCoverageTest, MarginalGainIsTheCoverageDelta) {
  // The externalized-residual gain must equal the Eq. 4 coverage delta of
  // appending the item to the already-shown prefix. Coverage is over the
  // set union, so the identity holds for *fresh* items — a repeat would
  // have delta 0 against a residual that already absorbed it.
  const data::Dataset data = SmallDataset();
  std::mt19937_64 rng(7);
  std::vector<float> residual(data.num_topics, 1.0f);
  std::vector<int> shown;
  for (int step = 0; step < 30; ++step) {
    const int item = static_cast<int>(rng() % data.items.size());
    if (std::find(shown.begin(), shown.end(), item) != shown.end()) continue;
    const float before = page::PageCoverage(data, {shown});
    const float gain = rerank::MarginalCoverageGain(data.item(item), residual);
    shown.push_back(item);
    const float after = page::PageCoverage(data, {shown});
    EXPECT_NEAR(after - before, gain, 1e-4f) << "step " << step;
    rerank::AbsorbCoverage(data.item(item), &residual);
  }
}

TEST(PageCoverageTest, RedundancyIsNonNegativeAndZeroForDisjointTopics) {
  const data::Dataset data = SmallDataset();
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<int>> lists(2 + trial % 3);
    for (std::vector<int>& list : lists) {
      list.resize(5);
      for (int& item : list) item = static_cast<int>(rng() % data.items.size());
    }
    EXPECT_GE(page::CrossListRedundancy(data, lists), 0.0f);
  }
  // A page with a single list can never duplicate topic mass across lists.
  EXPECT_FLOAT_EQ(page::CrossListRedundancy(data, {{1, 2, 3}}), 0.0f);
}

TEST(PageCoverageTest, DuplicatedListsAreMaximallyRedundant) {
  const data::Dataset data = SmallDataset();
  const std::vector<int> list = {3, 14, 15, 92, 65};
  // Showing the same list twice: the union covers exactly what one copy
  // covers beyond the first absorption, so redundancy is near one list's
  // own coverage mass (not exactly — probabilistic coverage keeps
  // absorbing — but strictly positive and large).
  const float redundancy = page::CrossListRedundancy(data, {list, list});
  EXPECT_GT(redundancy, 0.1f * page::PageCoverage(data, {list}));
}

// ---------------------------------------------------------------------------
// The greedy pass

TEST(PageRerankTest, OutputsArePermutationsOfInputs) {
  const data::Dataset data = SmallDataset();
  const page::PageReranker reranker(data);
  std::mt19937_64 rng(3);
  std::vector<std::vector<int>> lists(3);
  std::vector<std::vector<float>> relevance(3);
  for (size_t l = 0; l < lists.size(); ++l) {
    lists[l].resize(8 + l);
    for (int& item : lists[l]) item = static_cast<int>(rng() % data.items.size());
    relevance[l] = page::PageReranker::RankRelevance(lists[l].size());
  }
  const page::PageResult result = reranker.Rerank(lists, relevance, 2.0f);
  ASSERT_EQ(result.lists.size(), lists.size());
  for (size_t l = 0; l < lists.size(); ++l) {
    EXPECT_TRUE(IsPermutationOf(result.lists[l], lists[l])) << "list " << l;
  }
  EXPECT_GE(result.page_coverage, 0.0f);
  EXPECT_LE(result.page_coverage, 1.0f);
  EXPECT_GE(result.cross_list_redundancy, 0.0f);
}

TEST(PageRerankTest, ZeroBudgetPreservesRelevanceOrder) {
  const data::Dataset data = SmallDataset();
  const page::PageReranker reranker(data);
  std::vector<std::vector<int>> lists = {{10, 20, 30, 40, 50},
                                         {60, 70, 80, 90}};
  std::vector<std::vector<float>> relevance;
  for (const std::vector<int>& list : lists) {
    relevance.push_back(page::PageReranker::RankRelevance(list.size()));
  }
  const page::PageResult result = reranker.Rerank(lists, relevance, 0.0f);
  EXPECT_EQ(result.lists, lists);  // Pure relevance = input order here.
  EXPECT_FLOAT_EQ(result.diversity_spent, 0.0f);
}

TEST(PageRerankTest, NegativeOrNanBudgetIsTreatedAsZero) {
  const data::Dataset data = SmallDataset();
  const page::PageReranker reranker(data);
  const std::vector<std::vector<int>> lists = {{10, 20, 30}};
  const std::vector<std::vector<float>> relevance = {
      page::PageReranker::RankRelevance(3)};
  for (const float budget : {-5.0f, std::nanf("")}) {
    const page::PageResult result = reranker.Rerank(lists, relevance, budget);
    EXPECT_EQ(result.lists, lists);
    EXPECT_FLOAT_EQ(result.diversity_spent, 0.0f);
  }
}

TEST(PageRerankTest, SpentNeverExceedsBudgetByMoreThanOneGain) {
  const data::Dataset data = SmallDataset();
  const page::PageReranker reranker(data);
  std::mt19937_64 rng(5);
  for (const float budget : {0.1f, 0.5f, 1.5f}) {
    std::vector<std::vector<int>> lists(3);
    std::vector<std::vector<float>> relevance(3);
    for (size_t l = 0; l < lists.size(); ++l) {
      lists[l].resize(10);
      for (int& item : lists[l]) {
        item = static_cast<int>(rng() % data.items.size());
      }
      relevance[l] = page::PageReranker::RankRelevance(lists[l].size());
    }
    const page::PageResult result = reranker.Rerank(lists, relevance, budget);
    // The gate checks before each pick, so the final pick may overshoot by
    // at most its own gain, and a single item's gain is at most 1.
    EXPECT_LE(result.diversity_spent, budget + 1.0f);
  }
}

TEST(PageRerankTest, JointBeatsIndependentOnRedundantPages) {
  const data::Dataset data = SmallDataset();
  data::PageGenConfig gen;
  gen.num_pages = 30;
  gen.shared_frac = 0.6f;  // Heavy cross-list overlap to exploit.
  const std::vector<data::PageSession> sessions =
      data::GeneratePageSessions(data, gen, 20260808);

  // Coverage over *whole* lists is permutation-invariant, so the pass is
  // judged on what the user scans first: the treated top-5 prefixes.
  page::PageRerankConfig joint_cfg;
  joint_cfg.joint = true;
  joint_cfg.top_k = 5;
  page::PageRerankConfig indep_cfg;
  indep_cfg.joint = false;
  indep_cfg.top_k = 5;
  const page::PageReranker joint(data, joint_cfg);
  const page::PageReranker indep(data, indep_cfg);
  const click::PageDcm dcm(&data, click::PageDcmConfig{});

  double joint_util = 0.0, indep_util = 0.0;
  double joint_red = 0.0, indep_red = 0.0;
  double joint_spent = 0.0, indep_spent = 0.0;
  for (const data::PageSession& session : sessions) {
    std::vector<std::vector<int>> lists;
    std::vector<std::vector<float>> relevance;
    for (const data::ImpressionList& list : session.lists) {
      lists.push_back(list.items);
      relevance.push_back(page::PageReranker::RankRelevance(list.items.size()));
    }
    const page::PageResult jr =
        joint.Rerank(lists, relevance, session.diversity_budget);
    const page::PageResult ir =
        indep.Rerank(lists, relevance, session.diversity_budget);
    joint_util += dcm.ExpectedPageUtility(session.user_id, jr.lists, 5);
    indep_util += dcm.ExpectedPageUtility(session.user_id, ir.lists, 5);
    joint_red += jr.cross_list_redundancy;
    indep_red += ir.cross_list_redundancy;
    joint_spent += jr.diversity_spent;
    indep_spent += ir.diversity_spent;
  }
  // The page DCM discounts the attraction of already-covered topics, so
  // duplicated impressions earn fewer clicks: the shared coverage state
  // lets the joint pass spend its budget on topics no sibling list already
  // covered, beating the split-budget independent baseline on
  // diversity-aware page utility.
  EXPECT_GT(joint_util, indep_util);
  // ... while leaving less duplicated topic mass in the treated prefixes,
  EXPECT_LT(joint_red, indep_red);
  // ... and spending far less marginal-coverage mass to get there (the
  // blind per-list passes re-buy topics their siblings already covered).
  EXPECT_LT(joint_spent, indep_spent);
}

// ---------------------------------------------------------------------------
// Page sessions + page DCM

TEST(PageSessionTest, GeneratorIsDeterministicAndWellFormed) {
  const data::Dataset data = SmallDataset();
  data::PageGenConfig gen;
  gen.num_pages = 10;
  const auto a = data::GeneratePageSessions(data, gen, 42);
  const auto b = data::GeneratePageSessions(data, gen, 42);
  const auto c = data::GeneratePageSessions(data, gen, 43);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 10u);
  bool any_differs = false;
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].lists.size(), static_cast<size_t>(gen.lists_per_page));
    EXPECT_EQ(a[p].user_id, b[p].user_id);
    EXPECT_GT(a[p].diversity_budget, 0.0f);
    for (size_t l = 0; l < a[p].lists.size(); ++l) {
      const data::ImpressionList& list = a[p].lists[l];
      ASSERT_EQ(list.items.size(), static_cast<size_t>(gen.items_per_list));
      ASSERT_EQ(list.scores.size(), list.items.size());
      EXPECT_EQ(list.items, b[p].lists[l].items);
      if (list.items != c[p].lists[l].items) any_differs = true;
      // Distinct within a list; every id in the catalog.
      std::vector<int> sorted = list.items;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
      EXPECT_GE(sorted.front(), 0);
      EXPECT_LT(sorted.back(), static_cast<int>(data.items.size()));
      // Initial-ranked: scores descending.
      EXPECT_TRUE(std::is_sorted(list.scores.rbegin(), list.scores.rend()));
    }
  }
  EXPECT_TRUE(any_differs);  // A different seed produces different pages.
}

TEST(PageSessionTest, SharedPoolCreatesCrossListOverlap) {
  const data::Dataset data = SmallDataset();
  data::PageGenConfig overlapping;
  overlapping.num_pages = 20;
  overlapping.shared_frac = 0.8f;
  data::PageGenConfig disjoint = overlapping;
  disjoint.shared_frac = 0.0f;

  const auto CountOverlaps = [](const std::vector<data::PageSession>& pages) {
    int overlaps = 0;
    for (const data::PageSession& page : pages) {
      for (size_t a = 0; a < page.lists.size(); ++a) {
        for (size_t b = a + 1; b < page.lists.size(); ++b) {
          for (const int item : page.lists[a].items) {
            const auto& other = page.lists[b].items;
            overlaps += std::count(other.begin(), other.end(), item);
          }
        }
      }
    }
    return overlaps;
  };

  EXPECT_GT(
      CountOverlaps(data::GeneratePageSessions(data, overlapping, 9)),
      CountOverlaps(data::GeneratePageSessions(data, disjoint, 9)));
}

TEST(PageDcmTest, AttractionStaysInUnitIntervalAndShrinksWithCoverage) {
  const data::Dataset data = SmallDataset();
  const click::PageDcm dcm(&data, click::PageDcmConfig{});
  std::vector<float> fresh(data.num_topics, 1.0f);
  std::vector<float> exhausted(data.num_topics, 0.0f);
  for (int item = 0; item < 40; ++item) {
    const float with_fresh = dcm.Attraction(1, item, fresh);
    const float with_exhausted = dcm.Attraction(1, item, exhausted);
    EXPECT_GE(with_fresh, 0.0f);
    EXPECT_LE(with_fresh, 1.0f);
    // No uncovered mass left: only the relevance term remains.
    EXPECT_LE(with_exhausted, with_fresh + 1e-6f);
  }
}

TEST(PageDcmTest, ExpectedUtilityRewardsCrossListDiversity) {
  const data::Dataset data = SmallDataset();
  const click::PageDcm dcm(&data, click::PageDcmConfig{});
  data::PageGenConfig gen;
  gen.num_pages = 20;
  gen.shared_frac = 0.6f;
  const auto sessions = data::GeneratePageSessions(data, gen, 77);
  const page::PageReranker joint(data);

  double reranked = 0.0, raw = 0.0;
  for (const data::PageSession& session : sessions) {
    std::vector<std::vector<int>> lists;
    std::vector<std::vector<float>> relevance;
    for (const data::ImpressionList& list : session.lists) {
      lists.push_back(list.items);
      relevance.push_back(page::PageReranker::RankRelevance(list.items.size()));
    }
    const page::PageResult result =
        joint.Rerank(lists, relevance, session.diversity_budget);
    raw += dcm.ExpectedPageUtility(session.user_id, lists, 5);
    reranked += dcm.ExpectedPageUtility(session.user_id, result.lists, 5);
  }
  EXPECT_GE(reranked, 0.0);
  EXPECT_GT(reranked, raw * 0.99);  // Diversification must not hurt pages.
}

TEST(PageDcmTest, SimulatedClicksMatchPageShapeAndAreDeterministic) {
  const data::Dataset data = SmallDataset();
  const click::PageDcm dcm(&data, click::PageDcmConfig{});
  const std::vector<std::vector<int>> lists = {{1, 2, 3, 4}, {5, 6}, {7, 8, 9}};
  std::mt19937_64 rng_a(21), rng_b(21);
  const auto clicks_a = dcm.SimulateClicks(2, lists, rng_a);
  const auto clicks_b = dcm.SimulateClicks(2, lists, rng_b);
  ASSERT_EQ(clicks_a.size(), lists.size());
  for (size_t l = 0; l < lists.size(); ++l) {
    ASSERT_EQ(clicks_a[l].size(), lists[l].size());
    for (const int c : clicks_a[l]) EXPECT_TRUE(c == 0 || c == 1);
  }
  EXPECT_EQ(clicks_a, clicks_b);
}

// ---------------------------------------------------------------------------
// The wire path

TEST(PageWireTest, PageRoundTripReranksAllListsWithAttribution) {
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  net::WirePageRequest request;
  request.slot = "main";
  request.user_id = 3;
  request.diversity_budget = 2.0f;
  request.joint = 1;
  for (int l = 0; l < 3; ++l) {
    data::ImpressionList list;
    for (int i = 0; i < 8; ++i) {
      list.items.push_back((l * 8 + i) % static_cast<int>(data.items.size()));
      list.scores.push_back(1.0f - 0.05f * static_cast<float>(i));
    }
    request.lists.push_back(std::move(list));
  }

  net::Client::Reply reply;
  ASSERT_TRUE(client.CallPage(request, &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  ASSERT_EQ(reply.type, net::FrameType::kPageResponse);
  EXPECT_FALSE(reply.page.degraded);
  EXPECT_EQ(reply.page.model_name, "rotate-1");
  EXPECT_EQ(reply.page.model_version, 1u);
  ASSERT_EQ(reply.page.lists.size(), 3u);
  for (size_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(IsPermutationOf(reply.page.lists[l], request.lists[l].items))
        << "list " << l;
  }
  EXPECT_GT(reply.page.page_coverage, 0.0f);
  EXPECT_GE(reply.page.cross_list_redundancy, 0.0f);

  // Per-page metrics flow end to end: counters, table/json render, and the
  // Prometheus exposition.
  const serve::RouterStats stats = server.StatsWithNet();
  ASSERT_TRUE(stats.has_page);
  EXPECT_EQ(stats.page.pages, 1u);
  EXPECT_EQ(stats.page.page_lists, 3u);
  EXPECT_EQ(stats.page.joint_pages, 1u);
  EXPECT_EQ(stats.page.degraded_pages, 0u);
  EXPECT_EQ(stats.page.lists_per_page_hist[2], 1u);
  EXPECT_EQ(stats.page.max_lists_per_page, 3);
  EXPECT_NE(stats.ToTable().find("page"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"page\""), std::string::npos);
  const std::string prom = serve::RenderPrometheus(stats);
  EXPECT_NE(prom.find("rapid_page_pages_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("rapid_page_lists_total 3\n"), std::string::npos);

  // The router saw the page as three micro-batchable list requests.
  EXPECT_EQ(stats.total.requests, 3u);
}

TEST(PageWireTest, UnknownSlotReturnsDegradedPageWithRouterOrders) {
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::WirePageRequest request;
  request.slot = "no-such-slot";
  request.diversity_budget = 1.0f;
  for (int l = 0; l < 2; ++l) {
    data::ImpressionList list;
    for (int i = 0; i < 5; ++i) {
      list.items.push_back(l * 5 + i);
      list.scores.push_back(1.0f);
    }
    request.lists.push_back(std::move(list));
  }

  net::Client::Reply reply;
  ASSERT_TRUE(client.CallPage(request, &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(reply.page.degraded);
  ASSERT_EQ(reply.page.lists.size(), 2u);
  for (size_t l = 0; l < 2; ++l) {
    EXPECT_TRUE(IsPermutationOf(reply.page.lists[l], request.lists[l].items));
  }
  const serve::RouterStats stats = server.StatsWithNet();
  ASSERT_TRUE(stats.has_page);
  EXPECT_EQ(stats.page.degraded_pages, 1u);
  EXPECT_EQ(stats.page.joint_pages, 0u);
}

TEST(PageWireTest, MalformedPageFrameGetsErrorAndConnectionSurvives) {
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // Well-framed but unparseable: an empty page payload.
  net::WirePageRequest empty;
  empty.slot = "main";
  net::Client::Reply reply;
  ASSERT_TRUE(client.CallPage(empty, &reply, 5000));
  EXPECT_TRUE(reply.is_error);

  // The connection is still usable for a valid page afterwards.
  net::WirePageRequest good;
  good.slot = "main";
  data::ImpressionList list;
  list.items = {1, 2, 3};
  list.scores = {1.0f, 0.9f, 0.8f};
  good.lists.push_back(list);
  ASSERT_TRUE(client.CallPage(good, &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(IsPermutationOf(reply.page.lists.at(0), list.items));
}

TEST(PageWireTest, OutOfCatalogIdsDegradeInsteadOfCrashing) {
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::WirePageRequest request;
  request.slot = "main";
  request.diversity_budget = 1.0f;
  data::ImpressionList list;
  list.items = {1, 2, 1'000'000};  // Far outside the 120-item catalog.
  list.scores = {1.0f, 0.9f, 0.8f};
  request.lists.push_back(list);

  net::Client::Reply reply;
  ASSERT_TRUE(client.CallPage(request, &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(reply.page.degraded);
  EXPECT_TRUE(IsPermutationOf(reply.page.lists.at(0), list.items));
}

TEST(PageWireTest, AttributionComesFromFirstServedList) {
  // List 0 degrades on an out-of-catalog item; list 1 is served. The page
  // is degraded, but its attribution is list 1's stamp, not list 0's empty
  // one.
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  net::WirePageRequest request;
  request.slot = "main";
  request.diversity_budget = 1.0f;
  data::ImpressionList out_of_catalog;
  out_of_catalog.items = {1, 2, 1'000'000};
  out_of_catalog.scores = {1.0f, 0.9f, 0.8f};
  data::ImpressionList in_catalog;
  in_catalog.items = {3, 4, 5};
  in_catalog.scores = {1.0f, 0.9f, 0.8f};
  request.lists = {out_of_catalog, in_catalog};

  net::Client::Reply reply;
  ASSERT_TRUE(client.CallPage(request, &reply, 5000));
  ASSERT_FALSE(reply.is_error);
  EXPECT_TRUE(reply.page.degraded);
  EXPECT_EQ(reply.page.model_name, "rotate-1");
  EXPECT_EQ(reply.page.model_version, 1u);
}

TEST(PageWireTest, ConcurrentPagesSurviveSnapshotSwaps) {
  // TSan coverage: page fan-out on the dispatchers while the router's
  // published slot is hot-swapped mid-stream. No ordering is asserted —
  // only that every page is answered and nothing races.
  const data::Dataset data = SmallDataset();
  serve::ServingRouter router(data, {});
  router.InstallSlot("main", std::make_shared<RotateReranker>(1));
  net::Server server(router);
  ASSERT_TRUE(server.Start());

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    int version = 2;
    while (!stop.load(std::memory_order_acquire)) {
      router.InstallSlot("main", std::make_shared<RotateReranker>(version++));
      std::this_thread::sleep_for(1ms);
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 20;
  std::atomic<int> answered{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      net::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
      for (int p = 0; p < kPagesPerThread; ++p) {
        net::WirePageRequest request;
        request.slot = "main";
        request.user_id = t;
        request.diversity_budget = 1.5f;
        request.joint = static_cast<uint8_t>(p & 1);
        for (int l = 0; l < 3; ++l) {
          data::ImpressionList list;
          for (int i = 0; i < 6; ++i) {
            list.items.push_back((t * 31 + p * 7 + l * 6 + i) %
                                 static_cast<int>(data.items.size()));
            list.scores.push_back(1.0f - 0.1f * static_cast<float>(i));
          }
          request.lists.push_back(std::move(list));
        }
        net::Client::Reply reply;
        ASSERT_TRUE(client.CallPage(request, &reply, 10'000));
        ASSERT_FALSE(reply.is_error);
        ASSERT_EQ(reply.page.lists.size(), 3u);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  stop.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(answered.load(), kThreads * kPagesPerThread);
  const serve::RouterStats stats = server.StatsWithNet();
  ASSERT_TRUE(stats.has_page);
  EXPECT_EQ(stats.page.pages,
            static_cast<uint64_t>(kThreads * kPagesPerThread));
  EXPECT_EQ(stats.page.page_lists,
            static_cast<uint64_t>(kThreads * kPagesPerThread * 3));
}

}  // namespace
}  // namespace rapid
