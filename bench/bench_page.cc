// Page-level reranking bench: quantifies the two claims the page
// subsystem makes, and verifies both under --check (the tier-2
// `perf_page_gate`).
//
//  1. "quality": joint cross-list reranking vs the independent per-list
//     baseline on generated multi-list page sessions, judged by the page
//     DCM's expected utility over the treated prefixes. The joint pass
//     shares one coverage state across sibling lists, so it must (a) earn
//     more diversity-aware utility, (b) leave less duplicated topic mass
//     in the prefixes, and (c) spend less marginal-coverage mass doing it
//     — the independent passes re-buy topics their siblings already
//     covered.
//
//  2. "throughput": one kPageRequest frame carrying L lists vs L
//     kScoreRequest frames for the same lists, driven pipelined over
//     loopback against a real net::Server. The page frame pays one
//     header, one parse, one dispatcher handoff, and one response write
//     for the whole page, and its lists enter the router as one burst
//     that micro-batches into a single forward — under --check it must
//     deliver >= 1.3x the single-list bulk-scoring throughput
//     (lists/sec).
//
// Output is one JSON object on stdout (perf-trajectory artifact);
// progress goes to stderr. `--json` is accepted for run_ledger.sh
// uniformity; `--quick` shrinks the stream; `--check` turns the two
// claims into hard pass/fail gates.
//
//   ./build/bench/bench_page            # full run
//   ./build/bench/bench_page --quick    # smoke test
//   ./build/bench/bench_page --quick --check   # tier-2 gate

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "click/dcm.h"
#include "click/page_dcm.h"
#include "core/rapid.h"
#include "datagen/pages.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "page/page.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

int main(int argc, char** argv) {
  using namespace rapid;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const bool quick = args.quick, check = args.check;
  bool failed = false;

  // ------------------------------------------------------------- environment
  std::fprintf(stderr, "[page] building dataset + page sessions...\n");
  data::SimConfig sim;
  sim.kind = data::DatasetKind::kTaobao;
  sim.num_users = 40;
  sim.num_items = 250;
  data::Dataset dataset = data::GenerateDataset(sim, 2023);

  data::PageGenConfig gen;
  gen.num_pages = quick ? 80 : 300;
  gen.shared_frac = 0.6f;  // Heavy cross-list overlap to exploit.
  const std::vector<data::PageSession> sessions =
      data::GeneratePageSessions(dataset, gen, 20260808);
  const int lists_per_page = gen.lists_per_page;

  // ----------------------------------------------------------------- quality
  // Joint vs independent, judged by the page DCM over the treated top-5
  // prefixes (whole-list coverage is permutation-invariant, so the pass
  // is scored on what the user scans first).
  std::fprintf(stderr, "[page] quality: joint vs independent on %zu pages\n",
               sessions.size());
  const int top_k = 5;
  const click::PageDcm page_dcm(&dataset, click::PageDcmConfig{});
  double joint_util = 0.0, indep_util = 0.0, raw_util = 0.0;
  double joint_cov = 0.0, indep_cov = 0.0;
  double joint_red = 0.0, indep_red = 0.0;
  double joint_spent = 0.0, indep_spent = 0.0;
  {
    page::PageRerankConfig joint_cfg;
    joint_cfg.joint = true;
    joint_cfg.top_k = top_k;
    page::PageRerankConfig indep_cfg;
    indep_cfg.joint = false;
    indep_cfg.top_k = top_k;
    const page::PageReranker joint(dataset, joint_cfg);
    const page::PageReranker indep(dataset, indep_cfg);
    for (const data::PageSession& session : sessions) {
      std::vector<std::vector<int>> lists;
      std::vector<std::vector<float>> relevance;
      for (const data::ImpressionList& list : session.lists) {
        lists.push_back(list.items);
        relevance.push_back(
            page::PageReranker::RankRelevance(list.items.size()));
      }
      const page::PageResult jr =
          joint.Rerank(lists, relevance, session.diversity_budget);
      const page::PageResult ir =
          indep.Rerank(lists, relevance, session.diversity_budget);
      joint_util += page_dcm.ExpectedPageUtility(session.user_id, jr.lists,
                                                 top_k);
      indep_util += page_dcm.ExpectedPageUtility(session.user_id, ir.lists,
                                                 top_k);
      raw_util += page_dcm.ExpectedPageUtility(session.user_id, lists, top_k);
      joint_cov += jr.page_coverage;
      indep_cov += ir.page_coverage;
      joint_red += jr.cross_list_redundancy;
      indep_red += ir.cross_list_redundancy;
      joint_spent += jr.diversity_spent;
      indep_spent += ir.diversity_spent;
    }
  }
  const double pages = static_cast<double>(sessions.size());
  std::fprintf(stderr,
               "[page] quality: utility joint=%.4f indep=%.4f raw=%.4f "
               "(per page)\n",
               joint_util / pages, indep_util / pages, raw_util / pages);
  std::fprintf(stderr,
               "[page] quality: redundancy joint=%.4f indep=%.4f, "
               "spent joint=%.3f indep=%.3f (per page)\n",
               joint_red / pages, indep_red / pages, joint_spent / pages,
               indep_spent / pages);
  if (check) {
    if (!(joint_util > indep_util)) {
      std::fprintf(stderr,
                   "[page] FAIL: joint did not beat independent on page "
                   "DCM utility\n");
      failed = true;
    }
    if (!(joint_red < indep_red)) {
      std::fprintf(stderr,
                   "[page] FAIL: joint left more cross-list redundancy "
                   "than independent\n");
      failed = true;
    }
    if (!(joint_spent < indep_spent)) {
      std::fprintf(stderr,
                   "[page] FAIL: joint spent more diversity mass than "
                   "independent\n");
      failed = true;
    }
  }

  // -------------------------------------------------------------- throughput
  // One page frame of L lists vs L single-list frames, same lists, same
  // server. Few dispatcher threads keep the per-frame overheads (parse,
  // queue handoff, response write) on the measured path.
  std::fprintf(stderr, "[page] throughput: training a snapshot...\n");
  const std::string snapshot_path = "/tmp/bench_page_a.rsnp";
  {
    click::GroundTruthClickModel dcm(&dataset, click::DcmConfig{});
    std::mt19937_64 click_rng(11);
    std::vector<data::ImpressionList> train;
    for (const data::Request& req : dataset.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, click_rng);
      train.push_back(std::move(list));
    }
    core::RapidConfig cfg;
    cfg.train.epochs = 1;
    cfg.hidden_dim = 16;
    core::RapidReranker model(cfg);
    model.Fit(dataset, train, /*seed=*/7);
    if (!serve::Snapshot::Save(snapshot_path, model, dataset)) {
      std::fprintf(stderr, "[page] snapshot save failed\n");
      return 1;
    }
  }
  serve::RouterConfig router_cfg;
  router_cfg.num_threads = 2;
  router_cfg.queue_capacity = 4096;
  serve::ServingRouter router(dataset, router_cfg);
  if (router.LoadSlot("main", snapshot_path) == 0) {
    std::fprintf(stderr, "[page] LoadSlot failed\n");
    return 1;
  }

  const int page_rounds = quick ? 4 : 12;  // Sessions replayed per sample.
  const int window = 16;                   // In-flight frames per mode.
  const int reps = quick ? 3 : 5;

  net::Server server(router);
  if (!server.Start()) {
    std::fprintf(stderr, "[page] server start failed\n");
    return 1;
  }

  // Lists/sec scoring the whole session set `page_rounds` times as page
  // frames (one frame per session).
  uint64_t page_errors = 0;
  const auto measure_pages = [&]() -> double {
    net::Client client;
    if (!client.Connect("127.0.0.1", server.port())) return 0.0;
    const size_t total =
        sessions.size() * static_cast<size_t>(page_rounds);
    size_t submitted = 0, received = 0, inflight = 0;
    const auto t0 = Clock::now();
    while (received < total) {
      if (submitted < total && inflight < window) {
        const data::PageSession& session =
            sessions[submitted % sessions.size()];
        net::WirePageRequest request;
        request.slot = "main";
        request.user_id = session.user_id;
        request.diversity_budget = session.diversity_budget;
        request.top_k = top_k;
        request.lists = session.lists;
        if (client.SendPage(&request) == 0) return 0.0;
        ++submitted;
        ++inflight;
        continue;
      }
      net::Client::Reply reply;
      if (!client.Receive(&reply, 10'000)) return 0.0;
      if (reply.is_error || reply.page.degraded) ++page_errors;
      ++received;
      --inflight;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return static_cast<double>(total) *
           static_cast<double>(lists_per_page) / secs;
  };

  // Lists/sec scoring the same lists as independent kScoreRequest frames.
  uint64_t single_errors = 0;
  const auto measure_singles = [&]() -> double {
    net::Client client;
    if (!client.Connect("127.0.0.1", server.port())) return 0.0;
    const size_t total = sessions.size() *
                         static_cast<size_t>(lists_per_page) *
                         static_cast<size_t>(page_rounds);
    size_t submitted = 0, received = 0, inflight = 0;
    const auto t0 = Clock::now();
    while (received < total) {
      if (submitted < total && inflight < window) {
        const data::PageSession& session =
            sessions[(submitted / static_cast<size_t>(lists_per_page)) %
                     sessions.size()];
        net::WireRequest request;
        request.slot = "main";
        request.list =
            session.lists[submitted % static_cast<size_t>(lists_per_page)];
        if (client.Send(&request) == 0) return 0.0;
        ++submitted;
        ++inflight;
        continue;
      }
      net::Client::Reply reply;
      if (!client.Receive(&reply, 10'000)) return 0.0;
      if (reply.is_error || reply.response.degraded) ++single_errors;
      ++received;
      --inflight;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return static_cast<double>(total) / secs;
  };

  std::fprintf(stderr,
               "[page] throughput: %zu pages x %d lists x %d rounds, "
               "window %d, %d reps\n",
               sessions.size(), lists_per_page, page_rounds, window, reps);
  measure_pages();    // Warm-up: page-in, allocator, router caches.
  measure_singles();  // (Repeat() deliberately keeps warm-up explicit.)
  page_errors = 0;
  single_errors = 0;
  const bench::RepeatStats page_tput = bench::Repeat(reps, measure_pages);
  const bench::RepeatStats single_tput = bench::Repeat(reps, measure_singles);
  server.Stop();

  const double ratio =
      page_tput.median / std::max(single_tput.median, 1e-9);
  std::fprintf(stderr,
               "[page] throughput: page=%.0f lists/s single=%.0f lists/s "
               "ratio=%.2fx errors=%llu/%llu\n",
               page_tput.median, single_tput.median, ratio,
               static_cast<unsigned long long>(page_errors),
               static_cast<unsigned long long>(single_errors));
  if (page_errors > 0 || single_errors > 0) {
    std::fprintf(stderr, "[page] FAIL: throughput runs saw errors or "
                         "degraded replies\n");
    failed = true;
  }
  if (check && ratio < 1.3) {
    std::fprintf(stderr,
                 "[page] FAIL: page frames only %.2fx single-list frames "
                 "(need >= 1.3x)\n",
                 ratio);
    failed = true;
  }

  std::printf(
      "{\"bench\": \"page\", \"hardware_threads\": %u, "
      "\"quality\": {\"pages\": %zu, \"lists_per_page\": %d, \"top_k\": %d, "
      "\"joint_utility\": %.4f, \"indep_utility\": %.4f, "
      "\"raw_utility\": %.4f, "
      "\"joint_coverage\": %.4f, \"indep_coverage\": %.4f, "
      "\"joint_redundancy\": %.4f, \"indep_redundancy\": %.4f, "
      "\"joint_spent\": %.4f, \"indep_spent\": %.4f}, "
      "\"throughput\": {\"rounds\": %d, \"window\": %d, "
      "\"page_lists_per_sec\": %.1f, \"page_lists_per_sec_min\": %.1f, "
      "\"page_samples\": %s, "
      "\"single_lists_per_sec\": %.1f, \"single_lists_per_sec_min\": %.1f, "
      "\"single_samples\": %s, "
      "\"ratio\": %.3f}}\n",
      std::thread::hardware_concurrency(), sessions.size(), lists_per_page,
      top_k, joint_util / pages, indep_util / pages, raw_util / pages,
      joint_cov / pages, indep_cov / pages, joint_red / pages,
      indep_red / pages, joint_spent / pages, indep_spent / pages,
      page_rounds, window, page_tput.median, page_tput.min,
      page_tput.SamplesJson().c_str(), single_tput.median, single_tput.min,
      single_tput.SamplesJson().c_str(), ratio);

  return failed ? 1 : 0;
}
