// The end-to-end benchmark of the rerank service: one workload per process.
//
//   rerank_bench --workload NAME [--seed N] [--trace 0|1] [--smoke]
//                [--workdir DIR]
//
// Each run forks the program under test (server_child.h) three times from
// scratch and reports the median time to its first answered request as
// set-up time. The last child then serves four phases driven over
// loopback by the single-threaded open-loop generator (loadgen.h):
//
//   warm-up     1 s open loop at the workload's nominal rate, discarded;
//   nominal     15 s open-loop Poisson at the nominal rate: latency
//               percentiles and DCM utility;
//   saturation  4 s closed loop with 128 requests in flight over 4
//               connections: capacity;
//   probe       online workloads only: once the trainer is idle, 500
//               requests without feedback, all served by one version.
//
// Stats are scraped between phases; per-layer numbers are their deltas.
// After the server exits, up to 500 replies of the initial snapshot (and
// the probe replies, through the trainer's snapshot as loaded right after
// the probe) are replayed in this process and must match bit for bit.
// --smoke shortens every phase and keeps every check.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set, and a Chrome trace of the nominal
// phase is written to DIR/trace-NAME-seedN.json. Progress and diagnostics
// go to stderr. Exit status: 0 when every check passed, 1 when a check
// failed (the JSON says which counts), 2 on a usage error, 3 when the
// run could not be carried out.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog.h"
#include "click/dcm.h"
#include "click/page_dcm.h"
#include "core/rapid.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/codec.h"
#include "page/page.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "server_child.h"
#include "trace.h"
#include "traffic.h"

namespace rbench {
namespace {

using rapid::net::StatsFormat;

constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr double kNominalSeconds = 15.0;
constexpr double kSaturationSeconds = 4.0;
// The nominal phase is cut into windows of this length by scheduled send
// time, the saturation phase by completion time. A window holds at least
// 220 nominal requests, so its p95 has at least 11 samples beyond it.
constexpr double kWindowSeconds = 0.2;
constexpr size_t kMinWindowSamples = 50;
// p50_ms and p95_ms are this quantile over windows of each window's p50
// and p95: the latency the service holds in its least disturbed windows.
// On a host whose CPUs other tenants share, stolen CPU time (vCPU
// preemption) delays whole windows by milliseconds at a time; a median over
// windows still moves with how many windows a run loses to it.
constexpr double kQuietQuantile = 0.05;
// capacity_rps is this quantile over windows of each window's completions,
// read from the least disturbed windows for the same reason.
constexpr double kQuietCapacityQuantile = 0.9;
constexpr int kSaturationOutstanding = 128;
constexpr size_t kReplaySamples = 500;
constexpr size_t kForwardSamples = 2000;
constexpr size_t kUtilityReplays = 30000;
constexpr size_t kCensusWindow = 4096;
constexpr int kBoundaryPrometheusScrapes = 5;
constexpr int kLoadSlotRepeats = 3;
constexpr Nanos kSettleLimit = 10'000'000'000;
constexpr unsigned kWatchdogSeconds = 170;
constexpr int kOfflineLane = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "rerank_bench: %s\n"
               "usage: rerank_bench --workload NAME [--seed N] [--trace 0|1] "
               "[--smoke] [--workdir DIR]\n"
               "workloads:",
               error.c_str());
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || *end != '\0' || errno != 0) {
    Usage(flag + " needs a non-negative integer, got '" + value + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--trace" &&
        flag != "--workdir") {
      Usage("unknown flag '" + flag + "'");
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUint(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      args.workdir = value;
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The first `"key": number` in a stats JSON document. RouterStats::ToJson
// renders the process-wide "total" block first, so this reads its fields.
double JsonNumber(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

// One stats scrape between phases: the structured snapshot plus the JSON
// rendering, which alone carries the server's process-local arena gauges.
struct Boundary {
  rapid::serve::RouterStats stats;
  std::string json;
};

bool ScrapeBoundary(Generator& gen, Boundary* out,
                    std::vector<double>* prometheus_us) {
  rapid::net::WireStatsResponse reply;
  Nanos took = 0;
  if (!gen.Scrape(StatsFormat::kBinary, &reply, &took)) return false;
  out->stats = std::move(reply.stats);
  if (!gen.Scrape(StatsFormat::kJson, &reply, &took)) return false;
  out->json = std::move(reply.text);
  for (int i = 0; i < kBoundaryPrometheusScrapes; ++i) {
    if (!gen.Scrape(StatsFormat::kPrometheus, &reply, &took)) return false;
    prometheus_us->push_back(static_cast<double>(took) / 1e3);
  }
  return true;
}

// Sends one score request on a fresh connection and waits for a served
// (non-degraded, versioned) reply: the moment set-up ends. Only this
// thread uses the client.
bool FirstReply(uint16_t port) {
  rapid::net::WireRequest request;
  request.slot = "main";
  for (int i = 0; i < kListLen; ++i) {
    request.list.items.push_back(i);
    request.list.scores.push_back(1.0f - 0.01f * static_cast<float>(i));
  }
  rapid::net::Client client;
  rapid::net::Client::Reply reply;
  return client.Connect("127.0.0.1", port) &&
         client.Call(std::move(request), &reply, 30000) && !reply.is_error &&
         reply.type == rapid::net::FrameType::kScoreResponse &&
         !reply.response.degraded && reply.response.model_version >= 1;
}

bool IsRequest(const Op& op) {
  return op.kind == OpKind::kScore || op.kind == OpKind::kPage;
}

// Shares of nominal-phase requests whose user, and whose exact list (or
// page), was already sent within the previous kCensusWindow requests.
struct Census {
  double user_repeat = 0.0;
  double list_repeat = 0.0;
};

Census MeasureCensus(const Traffic& traffic, const std::vector<Op>& ops) {
  std::vector<int> stream;
  for (const Op& op : ops) {
    if (IsRequest(op) && op.phase == Phase::kNominal) stream.push_back(op.request);
  }
  std::sort(stream.begin(), stream.end());
  std::unordered_map<int, int> users, lists;
  std::deque<std::pair<int, int>> window;
  size_t user_repeats = 0, list_repeats = 0;
  for (const int index : stream) {
    const Request& req = traffic.requests[index];
    const int list = req.page >= 0 ? req.page : req.list;
    if (users[req.user] > 0) ++user_repeats;
    if (lists[list] > 0) ++list_repeats;
    ++users[req.user];
    ++lists[list];
    window.emplace_back(req.user, list);
    if (window.size() > kCensusWindow) {
      --users[window.front().first];
      --lists[window.front().second];
      window.pop_front();
    }
  }
  const double n = static_cast<double>(stream.size());
  return Census{Ratio(static_cast<double>(user_repeats), n),
                Ratio(static_cast<double>(list_repeats), n)};
}

// Up to `count` request ops picked by `pick`, in a seeded random order.
template <typename Pick>
std::vector<int> SampleOps(const std::vector<Op>& ops, size_t count,
                           uint64_t seed, Pick&& pick) {
  std::vector<int> chosen;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (IsRequest(ops[i]) && pick(ops[i])) chosen.push_back(static_cast<int>(i));
  }
  std::mt19937_64 rng(seed);
  std::shuffle(chosen.begin(), chosen.end(), rng);
  if (chosen.size() > count) chosen.resize(count);
  return chosen;
}

std::vector<const rapid::data::ImpressionList*> PageLists(
    const rapid::data::PageSession& session) {
  std::vector<const rapid::data::ImpressionList*> lists;
  for (const auto& list : session.lists) lists.push_back(&list);
  return lists;
}

// What the server's page path does after the router answers: rank-decay
// relevance over the routed orders, then the joint cross-list pass.
rapid::page::PageResult PagePass(const rapid::data::Dataset& data,
                                 const std::vector<std::vector<int>>& routed,
                                 float budget) {
  rapid::page::PageRerankConfig config;
  config.top_k = kTopK;
  const rapid::page::PageReranker reranker(data, config);
  std::vector<std::vector<float>> relevance;
  for (const auto& order : routed) {
    relevance.push_back(rapid::page::PageReranker::RankRelevance(order.size()));
  }
  return reranker.Rerank(routed, relevance, budget);
}

// Replays the replies `sample` through `model`, loaded in this process
// from the snapshot file that served them; returns the mismatches.
uint64_t Replay(const rapid::data::Dataset& data,
                const rapid::rerank::Reranker& model, const Traffic& traffic,
                const std::vector<Op>& ops, const std::vector<int>& sample) {
  uint64_t mismatches = 0;
  if (!traffic.pages.empty()) {
    for (const int i : sample) {
      const auto& session = traffic.pages[traffic.requests[ops[i].request].page];
      const auto routed = model.RerankBatch(data, PageLists(session));
      if (PagePass(data, routed, session.diversity_budget).lists !=
          ops[i].served) {
        ++mismatches;
      }
    }
    return mismatches;
  }
  std::vector<const rapid::data::ImpressionList*> lists;
  for (const int i : sample) {
    lists.push_back(&traffic.lists[traffic.requests[ops[i].request].list]);
  }
  const auto orders = model.RerankBatch(data, lists);
  for (size_t k = 0; k < sample.size(); ++k) {
    if (orders[k] != ops[sample[k]].served[0]) ++mismatches;
  }
  return mismatches;
}

// Mean DCM utility@10 that `model` earns on the first `count` score
// requests of the seed's stream, reranked here in batches. This is the
// gated utility of online workloads: the versions that served their
// requests depend on publish timing, this replay through the initial
// snapshot does not, and it covers about twice the requests of one
// nominal phase, which halves its seed-to-seed variance.
double ReplayUtility(const rapid::data::Dataset& data,
                     const rapid::rerank::Reranker& model,
                     const rapid::click::GroundTruthClickModel& dcm,
                     Traffic& traffic, size_t count) {
  constexpr size_t kBatch = 64;
  traffic.Pregenerate(count);
  std::vector<const rapid::data::ImpressionList*> lists;
  for (size_t r = 0; r < count; ++r) {
    lists.push_back(&traffic.lists[traffic.requests[r].list]);
  }
  double utility = 0.0;
  for (size_t at = 0; at < lists.size(); at += kBatch) {
    const std::vector<const rapid::data::ImpressionList*> group(
        lists.begin() + at, lists.begin() + std::min(lists.size(), at + kBatch));
    const auto orders = model.RerankBatch(data, group);
    for (size_t k = 0; k < group.size(); ++k) {
      utility += dcm.TrueSatisfaction(group[k]->user_id, orders[k], kTopK);
    }
  }
  return Ratio(utility, static_cast<double>(lists.size()));
}

uint64_t SlotVersion(const rapid::serve::RouterStats& stats) {
  for (const auto& slot : stats.slots) {
    if (slot.slot == "main") return slot.version;
  }
  return 0;
}

// While feedback flows the served version keeps moving. Waits for the
// trainer to drain its log and go idle, then serves a short burst without
// feedback (Phase::kProbe). Returns the version every probe reply must
// carry, or 0 when the trainer did not settle, published meanwhile, or
// its snapshot file may not hold the served model: the trainer writes the
// file before LoadSlot, so after a rejected publish it holds a model the
// slot never served. `*served` gets that version's model, loaded from its
// snapshot file while the server still runs: when the trainer stops it
// trains on the feedback it still buffers (under min_batch lists) and
// rewrites its file.
uint64_t ProbeFinalVersion(Generator& gen, double rate,
                           const rapid::data::Dataset& data,
                           const std::string& initial_path,
                           const std::string& trainer_path,
                           std::unique_ptr<rapid::core::RapidReranker>* served) {
  rapid::net::WireStatsResponse reply;
  Nanos took = 0;
  // Accepted and rejected publishes both rewrite the trainer's snapshot.
  const auto attempts = [](const rapid::serve::OnlineStats& online) {
    return online.publishes + online.publish_rejected;
  };
  uint64_t last = ~0ull;
  bool settled = false;
  for (const Nanos give_up = Now() + kSettleLimit; !settled && Now() < give_up;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!gen.Scrape(StatsFormat::kBinary, &reply, &took)) return 0;
    const rapid::serve::OnlineStats& online = reply.stats.online;
    settled = online.feedback_drained == online.feedback_appended &&
              attempts(online) == last;
    last = attempts(online);
  }
  if (!settled) return 0;
  const uint64_t version = SlotVersion(reply.stats);
  const rapid::serve::OnlineStats& online = reply.stats.online;
  if (version != 1 && (online.publish_rejected != 0 ||
                       online.last_published_version != version)) {
    return 0;
  }
  gen.OpenLoop(Phase::kProbe, rate, static_cast<double>(kReplaySamples) / rate);
  *served = rapid::serve::Snapshot::Load(version == 1 ? initial_path : trainer_path, data);
  if (!gen.Scrape(StatsFormat::kBinary, &reply, &took) ||
      attempts(reply.stats.online) != last) {
    return 0;
  }
  return version;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  // Prints the metrics to stderr and the result line to stdout.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(stderr, "[metric] %-32s %14.6g %s\n", m.name.c_str(),
                   m.value, m.unit.c_str());
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// Snapshot files of one run, removed when the run ends.
struct ScratchFiles {
  std::vector<std::string> paths;
  ~ScratchFiles() {
    for (const std::string& path : paths) ::unlink(path.c_str());
  }
};

int Run(const Args& args) {
  const Workload& workload = *FindWorkload(args.workload);
  const double warmup = args.smoke ? 0.5 : kWarmupSeconds;
  const double nominal = args.smoke ? 1.0 : kNominalSeconds;
  const double saturation = args.smoke ? 1.0 : kSaturationSeconds;
  const int setups = args.smoke ? 1 : kSetups;
  const std::string tag = args.workdir + "/rbench-" + std::to_string(::getpid());
  const std::string snapshot_path = tag + ".rsnp";
  const std::string trainer_path = tag + ".trainer.rsnp";
  const ScratchFiles scratch{{snapshot_path, trainer_path}};
  std::fprintf(stderr, "[bench] workload=%s seed=%llu trace=%d%s\n",
               workload.name, static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, args.smoke ? " smoke" : "");

  // ------------------------------------------------------------- set-up
  // Forks happen while this process is still single-threaded.
  std::vector<double> setup_s;
  ServerProcess server;
  for (int k = 0; k < setups; ++k) {
    const Nanos t0 = Now();
    if (!server.Start(snapshot_path, trainer_path) || !FirstReply(server.port())) {
      std::fprintf(stderr, "[bench] FAIL: the server did not start\n");
      return 3;
    }
    setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
    std::fprintf(stderr, "[bench] set-up %d: %.3f s\n", k + 1, setup_s.back());
    if (k + 1 < setups && !server.Stop()) {
      std::fprintf(stderr, "[bench] FAIL: a set-up child exited uncleanly\n");
      return 3;
    }
  }

  // Sends are due every few hundred microseconds; the default 50 us timer
  // slack would make ppoll oversleep by about that much. Set after the
  // last fork so the server keeps the default.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  // The generator's own copy of the catalog and model (not timed).
  const rapid::data::Dataset data = MakeCatalog();
  const std::unique_ptr<rapid::core::RapidReranker> model =
      rapid::serve::Snapshot::Load(snapshot_path, data);
  if (!model) {
    std::fprintf(stderr, "[bench] FAIL: cannot load %s\n", snapshot_path.c_str());
    return 3;
  }
  Traffic traffic(data, workload, args.seed);
  Generator gen(data, traffic, workload, args.seed, args.trace);
  if (!gen.Connect(server.port())) {
    std::fprintf(stderr, "[bench] FAIL: cannot connect to the server\n");
    return 3;
  }

  // ------------------------------------------------------------- phases
  Boundary b0, b1, b2, b3;
  std::vector<double> scrape_us;
  bool scrapes_ok = ScrapeBoundary(gen, &b0, &scrape_us);
  gen.OpenLoop(Phase::kWarmup, workload.rate, warmup);
  scrapes_ok = ScrapeBoundary(gen, &b1, &scrape_us) && scrapes_ok;
  const Nanos nominal_t0 = gen.OpenLoop(Phase::kNominal, workload.rate, nominal);
  scrapes_ok = ScrapeBoundary(gen, &b2, &scrape_us) && scrapes_ok;
  const Nanos saturation_t0 = gen.ClosedLoop(saturation, kSaturationOutstanding);
  scrapes_ok = ScrapeBoundary(gen, &b3, &scrape_us) && scrapes_ok;
  std::unique_ptr<rapid::core::RapidReranker> probe_model;
  const uint64_t probe_version =
      workload.online ? ProbeFinalVersion(gen, workload.rate, data, snapshot_path,
                                          trainer_path, &probe_model)
                      : 0;
  if (workload.online && probe_version == 0) {
    std::fprintf(stderr,
                 "[check] the trainer did not settle or its snapshot may not be "
                 "the served one; no probe replay\n");
  }
  gen.Close();
  long rss_kib = 0;
  const bool clean_exit = server.Stop(&rss_kib);
  if (!clean_exit) std::fprintf(stderr, "[bench] FAIL: server exited uncleanly\n");
  if (!scrapes_ok) std::fprintf(stderr, "[bench] FAIL: a stats scrape failed\n");

  // ------------------------------------------------------------- checks
  const std::vector<Op>& ops = gen.ops();
  uint64_t failed = 0;
  for (const Op& op : ops) failed += op.ok ? 0 : 1;
  // Replies of the initial snapshot replay through it; on online workloads
  // the probe replies replay through the model that served them.
  const std::vector<int> initial = SampleOps(
      ops, kReplaySamples, args.seed + 17, [](const Op& op) {
        return op.ok && op.version == 1 && op.phase != Phase::kProbe;
      });
  uint64_t mismatches = Replay(data, *model, traffic, ops, initial);
  size_t replayed = initial.size();
  if (probe_version > 0) {
    const std::vector<int> probes = SampleOps(
        ops, kReplaySamples, args.seed + 19,
        [](const Op& op) { return op.ok && op.phase == Phase::kProbe; });
    std::vector<int> pinned;
    for (const int i : probes) {
      if (ops[i].version == probe_version) {
        pinned.push_back(i);
      } else {
        ++mismatches;  // Served by a version that should not exist.
      }
    }
    if (probe_model) {
      mismatches += Replay(data, *probe_model, traffic, ops, pinned);
    } else {
      mismatches += pinned.size();
    }
    replayed += probes.size();
  }
  std::fprintf(stderr,
               "[check] %zu replies replayed (probe version %llu), %llu mismatches\n",
               replayed, static_cast<unsigned long long>(probe_version),
               static_cast<unsigned long long>(mismatches));
  failed += mismatches + (clean_exit ? 0 : 1) + (scrapes_ok ? 0 : 1);
  const uint64_t attempted = ops.size() + static_cast<uint64_t>(setups) + replayed;
  const bool correct = failed == 0 && replayed > 0;

  // ------------------------------------------------------------- end to end
  const rapid::click::GroundTruthClickModel dcm(&data, rapid::click::DcmConfig{});
  const rapid::click::PageDcm page_dcm(&data, rapid::click::PageDcmConfig{});
  std::vector<double> latency_ms, traced_ms, untraced_ms, server_us, late_us;
  // Latency per window of the nominal phase, by scheduled send time, and
  // completions per window of the saturation phase.
  std::vector<std::vector<double>> latency_windows(
      static_cast<size_t>(std::ceil(nominal / kWindowSeconds)));
  std::vector<double> completions(
      std::max<size_t>(1, static_cast<size_t>(saturation / kWindowSeconds)), 0.0);
  const Nanos window_ns = static_cast<Nanos>(kWindowSeconds * 1e9);
  double served_utility = 0.0;
  size_t served = 0, served_lists = 0, feedback = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kFeedback) ++feedback;
    if (!IsRequest(op) || !op.ok || op.phase == Phase::kProbe) continue;
    served_lists += op.served.size();
    if (op.phase == Phase::kSaturation && op.done_at >= saturation_t0) {
      const size_t w = static_cast<size_t>((op.done_at - saturation_t0) / window_ns);
      if (w < completions.size()) completions[w] += 1.0;
    }
    if (op.phase != Phase::kNominal) continue;
    const double ms = static_cast<double>(op.done_at - op.sched) / 1e6;
    const size_t w = static_cast<size_t>((op.sched - nominal_t0) / window_ns);
    latency_windows[std::min(w, latency_windows.size() - 1)].push_back(ms);
    latency_ms.push_back(ms);
    (op.traced ? traced_ms : untraced_ms).push_back(ms);
    server_us.push_back(static_cast<double>(op.server_us));
    late_us.push_back(static_cast<double>(op.send - op.sched) / 1e3);
    const int user = traffic.requests[op.request].user;
    served_utility += op.kind == OpKind::kPage
                          ? page_dcm.ExpectedPageUtility(user, op.served, kTopK)
                          : dcm.TrueSatisfaction(user, op.served[0], kTopK);
    ++served;
  }
  served_utility = Ratio(served_utility, static_cast<double>(served));
  std::vector<double> window_p50, window_p95;
  for (const std::vector<double>& window : latency_windows) {
    if (window.size() < kMinWindowSamples) continue;
    window_p50.push_back(Percentile(window, 0.50));
    window_p95.push_back(Percentile(window, 0.95));
  }
  const auto print_series = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "[windows] %-12s", name);
    for (const double x : v) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, "\n");
  };
  print_series("p50_ms", window_p50);
  print_series("p95_ms", window_p95);
  print_series("completions", completions);

  const Census census = MeasureCensus(traffic, ops);
  const rapid::serve::OnlineStats& o1 = b1.stats.online;
  const rapid::serve::OnlineStats& o2 = b2.stats.online;
  const double publishes_per_s =
      Ratio(static_cast<double>(o2.publishes - o1.publishes), nominal);
  std::fprintf(stderr,
               "[census] user_repeat_share=%.4f list_repeat_share=%.4f "
               "lists_per_page=%d feedback_per_list=%.4f publishes_per_s=%.3f\n",
               census.user_repeat, census.list_repeat,
               workload.pages ? kListsPerPage : 1,
               Ratio(static_cast<double>(feedback), static_cast<double>(served_lists)),
               publishes_per_s);
  std::fprintf(stderr,
               "[bench] ops=%zu failed=%llu nominal_served=%zu "
               "feedback_rejected=%llu stray_frames=%llu\n",
               ops.size(), static_cast<unsigned long long>(failed), served,
               static_cast<unsigned long long>(gen.feedback_rejected()),
               static_cast<unsigned long long>(gen.stray_frames()));

  Report report;
  if (!args.trace) {
    // The gated utility is deterministic given the seed: on online
    // workloads it is the initial snapshot's replay, and the utility the
    // swapped versions served is the per-layer online.served_utility.
    const double utility =
        workload.online ? ReplayUtility(data, *model, dcm, traffic, kUtilityReplays)
                        : served_utility;
    std::fprintf(stderr, "[bench] utility=%.6f served_utility=%.6f\n", utility,
                 served_utility);
    report.Add("setup_s", Percentile(setup_s, 0.5), "s");
    report.Add("p50_ms", Percentile(window_p50, kQuietQuantile), "ms");
    report.Add("p95_ms", Percentile(window_p95, kQuietQuantile), "ms");
    report.Add("capacity_rps",
               Percentile(completions, kQuietCapacityQuantile) / kWindowSeconds, "req/s");
    report.Add("utility", utility, "dcm");
    report.Add("server_rss_mb", static_cast<double>(rss_kib) / 1024.0, "MiB");
    report.Print(correct, attempted, failed);
    return correct ? 0 : 1;
  }

  // ------------------------------------------------------------- per layer
  TraceLog trace;
  std::vector<double> wire_us, encode_ns, decode_ns;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (!op.traced || !op.ok || !IsRequest(op)) continue;
    trace.AddOp(op, i + 1);
    wire_us.push_back(static_cast<double>(op.received - op.written) / 1e3 -
                      static_cast<double>(op.server_us));
    encode_ns.push_back(static_cast<double>(op.encoded - op.send));
    decode_ns.push_back(static_cast<double>(op.parsed - op.decode));
  }
  for (const Op& op : ops) {
    if (op.kind == OpKind::kScrape && op.ok) {
      scrape_us.push_back(static_cast<double>(op.done_at - op.sched) / 1e3);
    }
  }

  // Layer timings in this process, on requests sampled from the nominal
  // phase, at the batch size the server formed under saturation.
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const rapid::serve::ServingStats& t1 = b1.stats.total;
  const rapid::serve::ServingStats& t2 = b2.stats.total;
  const rapid::serve::ServingStats& t3 = b3.stats.total;
  const double batch_mean = Ratio(d(t3.batched_lists, t2.batched_lists),
                                  d(t3.batches, t2.batches));
  const std::vector<int> sample = SampleOps(
      ops, kForwardSamples, args.seed + 29,
      [](const Op& op) { return op.phase == Phase::kNominal; });
  std::vector<const rapid::data::ImpressionList*> lists;
  for (const int i : sample) {
    const Request& req = traffic.requests[ops[i].request];
    if (req.page >= 0) {
      for (const auto* list : PageLists(traffic.pages[req.page])) lists.push_back(list);
    } else {
      lists.push_back(&traffic.lists[req.list]);
    }
  }
  if (lists.size() > kForwardSamples) lists.resize(kForwardSamples);
  using ListBatch = std::vector<const rapid::data::ImpressionList*>;
  const size_t batch = std::max<size_t>(1, static_cast<size_t>(std::lround(batch_mean)));
  model->ScoreBatch(data, ListBatch(lists.begin(),
                                    lists.begin() + std::min(batch, lists.size())));
  // A batch computes the preference vector theta once per distinct user.
  Nanos forward_ns = 0;
  size_t theta_per_forward = 0;
  for (size_t at = 0; at < lists.size(); at += batch) {
    const ListBatch group(lists.begin() + at,
                          lists.begin() + std::min(lists.size(), at + batch));
    std::unordered_set<int> batch_users;
    for (const auto* list : group) batch_users.insert(list->user_id);
    theta_per_forward += batch_users.size();
    const Nanos s = Now();
    model->ScoreBatch(data, group);
    const Nanos e = Now();
    trace.Add("offline.forward", s, e, 0, 0, kOfflineLane);
    forward_ns += e - s;
  }
  const double forward_us = Ratio(static_cast<double>(forward_ns) / 1e3,
                                  static_cast<double>(lists.size()));

  std::vector<int> users;
  std::unordered_set<int> seen;
  for (const auto* list : lists) {
    if (seen.insert(list->user_id).second) users.push_back(list->user_id);
  }
  if (!users.empty()) model->PreferenceDistribution(data, users[0]);
  Nanos theta_ns = 0;
  for (const int user : users) {
    const Nanos s = Now();
    model->PreferenceDistribution(data, user);
    const Nanos e = Now();
    trace.Add("offline.theta", s, e, 0, 0, kOfflineLane);
    theta_ns += e - s;
  }
  const double theta_us = Ratio(static_cast<double>(theta_ns) / 1e3,
                                static_cast<double>(users.size()));
  const double theta_share =
      Ratio(theta_us * static_cast<double>(theta_per_forward),
            static_cast<double>(forward_ns) / 1e3);

  std::vector<double> page_pass_us;
  for (const int i : sample) {
    const Request& req = traffic.requests[ops[i].request];
    if (req.page < 0 || page_pass_us.size() >= kReplaySamples) continue;
    const auto& session = traffic.pages[req.page];
    const auto routed = model->RerankBatch(data, PageLists(session));
    const Nanos s = Now();
    PagePass(data, routed, session.diversity_budget);
    const Nanos e = Now();
    trace.Add("offline.page_pass", s, e, 0, static_cast<uint64_t>(i) + 1, kOfflineLane);
    page_pass_us.push_back(static_cast<double>(e - s) / 1e3);
  }

  const std::string load_path =
      workload.online && ::access(trainer_path.c_str(), R_OK) == 0 ? trainer_path
                                                                   : snapshot_path;
  std::vector<double> load_ms;
  {
    rapid::serve::RouterConfig config;
    config.num_threads = 1;
    rapid::serve::ServingRouter router(data, config);
    for (int r = 0; r < kLoadSlotRepeats; ++r) {
      const Nanos s = Now();
      const uint64_t version = router.LoadSlot("main", load_path);
      const Nanos e = Now();
      if (version == 0) std::fprintf(stderr, "[bench] LoadSlot(%s) rejected\n", load_path.c_str());
      trace.Add("offline.load_slot", s, e, 0, 0, kOfflineLane);
      load_ms.push_back(static_cast<double>(e - s) / 1e6);
    }
    router.Shutdown();
  }

  const rapid::serve::CacheStats& c1 = b1.stats.cache;
  const rapid::serve::CacheStats& c2 = b2.stats.cache;
  const rapid::serve::NetStats& n1 = b1.stats.net;
  const rapid::serve::NetStats& n2 = b2.stats.net;
  const rapid::serve::PageStats& p0 = b0.stats.page;
  const rapid::serve::PageStats& p1 = b1.stats.page;
  const rapid::serve::PageStats& p2 = b2.stats.page;
  const rapid::serve::PageStats& p3 = b3.stats.page;
  const rapid::serve::OnlineStats& o0 = b0.stats.online;
  const rapid::serve::OnlineStats& o3 = b3.stats.online;
  const double hits = d(c2.hits, c1.hits);
  const double lookups = hits + d(c2.misses, c1.misses);
  const double appended = d(o3.feedback_appended, o0.feedback_appended);
  const double dropped = d(o3.feedback_dropped, o0.feedback_dropped);
  const double p50_traced = Percentile(traced_ms, 0.5);
  const double p50_untraced = Percentile(untraced_ms, 0.5);

  report.Add("net.wire_us_p50", Percentile(wire_us, 0.50), "us");
  report.Add("net.wire_us_p95", Percentile(wire_us, 0.95), "us");
  report.Add("net.encode_ns", Percentile(encode_ns, 0.5), "ns");
  report.Add("net.decode_ns", Percentile(decode_ns, 0.5), "ns");
  report.Add("net.bytes_per_op",
             Ratio(d(n2.bytes_in, n1.bytes_in) + d(n2.bytes_out, n1.bytes_out),
                   d(n2.frames_in, n1.frames_in)),
             "B");
  report.Add("net.max_inflight_per_conn", b3.stats.net.max_inflight_per_conn, "count");
  report.Add("serve.server_us_p50", Percentile(server_us, 0.50), "us");
  report.Add("serve.server_us_p95", Percentile(server_us, 0.95), "us");
  report.Add("serve.batch_size_mean", batch_mean, "lists");
  report.Add("serve.max_queue_depth", t3.max_queue_depth, "count");
  report.Add("serve.cache_hit_rate", Ratio(hits, lookups), "ratio");
  report.Add("serve.cache_hits", hits, "count");
  report.Add("serve.cache_lookups", lookups, "count");
  report.Add("serve.stats_scrape_us_p50", Percentile(scrape_us, 0.5), "us");
  report.Add("serve.load_slot_ms", Percentile(load_ms, 0.5), "ms");
  report.Add("rerank.forward_us_per_list", forward_us, "us");
  report.Add("core.theta_us", theta_us, "us");
  report.Add("core.theta_share", theta_share, "ratio");
  report.Add("nn.arena_allocs_per_op",
             Ratio(JsonNumber(b2.json, "arena_allocs") - JsonNumber(b1.json, "arena_allocs"),
                   d(t2.requests, t1.requests)),
             "count");
  report.Add("nn.arena_heap_allocs_delta",
             JsonNumber(b2.json, "arena_heap_allocs") - JsonNumber(b1.json, "arena_heap_allocs"),
             "count");
  report.Add("nn.arena_chunk_mallocs_delta",
             JsonNumber(b2.json, "arena_chunk_mallocs") -
                 JsonNumber(b1.json, "arena_chunk_mallocs"),
             "count");
  report.Add("page.pass_us", Percentile(page_pass_us, 0.5), "us");
  report.Add("page.degraded_pages", d(p3.degraded_pages, p0.degraded_pages), "count");
  report.Add("page.redundancy",
             Ratio(d(p2.redundancy_millitopics, p1.redundancy_millitopics) / 1000.0,
                   d(p2.pages, p1.pages)),
             "topics");
  report.Add("online.feedback_dropped_share", Ratio(dropped, appended + dropped), "ratio");
  report.Add("online.feedback_appended", appended, "count");
  report.Add("online.publishes", d(o3.publishes, o0.publishes), "count");
  report.Add("online.publish_rejected", d(o3.publish_rejected, o0.publish_rejected), "count");
  report.Add("online.served_utility", workload.online ? served_utility : 0.0, "dcm");
  report.Add("gen.late_us_p99", Percentile(late_us, 0.99), "us");
  report.Add("gen.p99_ms", Percentile(latency_ms, 0.99), "ms");
  report.Add("trace.overhead_p50", p50_traced - p50_untraced, "ms");
  report.Add("census.user_repeat_share", census.user_repeat, "ratio");
  report.Add("census.list_repeat_share", census.list_repeat, "ratio");
  report.Add("census.lists_per_page", workload.pages ? kListsPerPage : 1, "lists");
  report.Add("census.feedback_per_list",
             Ratio(static_cast<double>(feedback), static_cast<double>(served_lists)), "ratio");
  report.Add("census.publishes_per_s", publishes_per_s, "1/s");

  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "\"workload\": \"%s\", \"seed\": %llu, \"p50_traced_ms\": %.6f, "
                "\"p50_untraced_ms\": %.6f, \"overhead_p50_ms\": %.6f",
                workload.name, static_cast<unsigned long long>(args.seed), p50_traced,
                p50_untraced, p50_traced - p50_untraced);
  const std::string trace_path = args.workdir + "/trace-" + workload.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  if (trace.Write(trace_path, meta)) {
    std::fprintf(stderr, "[bench] trace written to %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "[bench] could not write %s\n", trace_path.c_str());
  }
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rbench

int main(int argc, char** argv) {
  const rbench::Args args = rbench::ParseArgs(argc, argv);
  // A hung run must still end: the child exits when its control pipe
  // closes with this process.
  ::alarm(rbench::kWatchdogSeconds);
  const rbench::Nanos start = rbench::Now();
  const int status = rbench::Run(args);
  std::fprintf(stderr, "[bench] run took %.1f s\n",
               static_cast<double>(rbench::Now() - start) / 1e9);
  return status;
}
