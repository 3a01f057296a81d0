#ifndef RAPID_BENCHMARK_TRAFFIC_H_
#define RAPID_BENCHMARK_TRAFFIC_H_

#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "datagen/pages.h"
#include "datagen/types.h"

namespace rbench {

// One traffic mix. The names are cited by later changes; keep them fixed.
struct Workload {
  const char* name;
  // Nominal open-loop arrival rate, frames per second (a page is one
  // frame): 30% of the workload's capacity_rps measured at the commit that
  // defined the benchmark, on a 4-vCPU x86-64 host. Frozen since. Below
  // half load, queueing amplifies host-speed noise less (see README).
  double rate;
  // Users Zipf(1.1) over the hot users, with refreshes of the user's
  // previous list; otherwise every user in turn from a shuffled deck of
  // all users, each with a fresh list.
  bool hot;
  // kPageRequest frames of 4 lists instead of kScoreRequest frames.
  bool pages;
  // A kFeedback frame with DCM-simulated clicks follows half the served
  // lists, and a Prometheus stats scrape runs every 200 ms.
  bool online;
};

const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& Workloads();

inline constexpr int kListsPerPage = 4;
inline constexpr double kRefreshShare = 0.25;
inline constexpr double kFeedbackShare = 0.5;

// One generated request: a single list or a page, for one user.
struct Request {
  int user = 0;
  // Index into Traffic::lists (score requests); a refresh repeats the
  // index of the list it resends.
  int list = -1;
  // Index into Traffic::pages (page requests).
  int page = -1;
  // online workloads: a kFeedback frame follows this request's reply.
  bool feedback = false;
};

// The request stream of one workload, drawn from `seed` in order: the
// n-th request is the same on every run with that seed, whatever the
// timing. A phase whose length depends on the server's speed (saturation)
// just draws more.
class Traffic {
 public:
  Traffic(const rapid::data::Dataset& data, const Workload& workload,
          uint64_t seed);

  // Generates requests ahead so that the next `count` Take() calls only
  // read them (list generation stays out of the send path).
  void Pregenerate(size_t count);

  // The next request of the stream, as an index into `requests`.
  int Take();

  std::vector<Request> requests;
  std::vector<rapid::data::ImpressionList> lists;
  // Page p belongs to user p (data::GeneratePageSessions assigns users
  // round-robin); the deck decides which pages are sent.
  std::vector<rapid::data::PageSession> pages;

 private:
  void Generate();
  int NextUser();

  const rapid::data::Dataset& data_;
  const Workload& workload_;
  std::mt19937_64 rng_;
  size_t taken_ = 0;
  std::vector<int> deck_;
  size_t deck_pos_ = 0;
  std::discrete_distribution<int> zipf_;
  // Hot users: index of the user's previous list, -1 before the first.
  std::vector<int> last_list_;
};

}  // namespace rbench

#endif  // RAPID_BENCHMARK_TRAFFIC_H_
