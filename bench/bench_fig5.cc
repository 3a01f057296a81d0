// Reproduces Figure 5 (RQ5 case study): for one diverse-interest user and
// one focused-interest user of the MovieLens environment, prints the genre
// distribution of (a) their behavior history and (b) the items RAPID ranks
// into the top-10, plus RAPID's learned preference theta. RAPID should
// mirror each user's personal breadth of interests.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "datagen/history.h"

namespace {

using namespace rapid;

void PrintBar(const char* label, float value, float scale) {
  const int width = std::min(50, static_cast<int>(value * scale));
  std::printf("    %-10s %5.2f |", label, value);
  for (int i = 0; i < width; ++i) std::printf("#");
  std::printf("\n");
}

void PrintDistribution(const char* title, const std::vector<float>& dist) {
  std::printf("  %s\n", title);
  for (size_t j = 0; j < dist.size(); ++j) {
    if (dist[j] < 0.01f) continue;  // Skip empty genres for readability.
    char label[24];
    std::snprintf(label, sizeof(label), "genre%02d", static_cast<int>(j));
    PrintBar(label, dist[j], 100.0f);
  }
}

}  // namespace

int main(int argc, char** argv) {
  rapid::bench::BenchArgs::Parse(argc, argv);  // No modes: only rejects typos.
  std::printf(
      "Figure 5: genres of history vs RAPID's top-ranked items for a "
      "diverse and a focused user.\n\n");

  eval::Environment env(
      bench::StandardConfig(data::DatasetKind::kMovieLens, 0.9f),
      bench::StandardDin());
  const data::Dataset& data = env.dataset();

  core::RapidReranker rapid(bench::BenchRapidConfig());
  rapid.Fit(data, env.train_lists(), 99);
  std::fprintf(stderr, "[fig5] RAPID trained\n");

  // Pick the most diverse and the most focused user that have test lists.
  int diverse_user = 0, focused_user = 0;
  for (const data::User& u : data.users) {
    if (u.diversity_appetite >
        data.users[diverse_user].diversity_appetite) {
      diverse_user = u.id;
    }
    if (u.diversity_appetite <
        data.users[focused_user].diversity_appetite) {
      focused_user = u.id;
    }
  }

  for (int user : {diverse_user, focused_user}) {
    std::printf("User %d (%s; diversity appetite %.2f)\n", user,
                user == diverse_user ? "diverse interests"
                                     : "focused interests",
                data.users[user].diversity_appetite);

    PrintDistribution("(a) behavior history genre distribution:",
                      data::HistoryTopicDistribution(data, user));

    // Genre distribution of RAPID's top-10 over this user's test lists.
    std::vector<float> rec_dist(data.num_topics, 0.0f);
    float total = 0.0f;
    for (const data::ImpressionList& list : env.test_lists()) {
      if (list.user_id != user) continue;
      const std::vector<int> reranked = rapid.Rerank(data, list);
      for (int i = 0; i < 10 && i < static_cast<int>(reranked.size()); ++i) {
        for (int j : data::TopicMembership(data.item(reranked[i]))) {
          rec_dist[j] += 1.0f;
          total += 1.0f;
        }
      }
    }
    if (total > 0.0f) {
      for (float& x : rec_dist) x /= total;
    }
    PrintDistribution("(b) RAPID top-10 genre distribution:", rec_dist);

    // The learned per-topic preference (normalized for display).
    std::vector<float> theta = rapid.PreferenceDistribution(data, user);
    float theta_sum = 0.0f;
    for (float t : theta) theta_sum += t;
    if (theta_sum > 0.0f) {
      for (float& t : theta) t /= theta_sum;
    }
    PrintDistribution("(c) RAPID learned preference theta (normalized):",
                      theta);

    // Breadth summary: count of genres holding >5% mass.
    auto breadth = [](const std::vector<float>& dist) {
      int n = 0;
      for (float x : dist) {
        if (x > 0.05f) ++n;
      }
      return n;
    };
    std::printf("  breadth: history=%d genres, RAPID top-10=%d genres\n\n",
                breadth(data::HistoryTopicDistribution(data, user)),
                breadth(rec_dist));
  }
  return 0;
}
