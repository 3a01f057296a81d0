#include "catalog.h"

#include <algorithm>
#include <utility>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "serve/snapshot.h"

namespace rbench {

namespace {

constexpr uint64_t kCatalogSeed = 2023;
constexpr uint64_t kTrainSeed = 7;
constexpr int kTrainListsPerHotUser = 2;
constexpr float kScoreNoise = 0.1f;

}  // namespace

rapid::data::Dataset MakeCatalog() {
  rapid::data::SimConfig sim;
  sim.kind = rapid::data::DatasetKind::kTaobao;
  sim.num_users = kNumUsers;
  sim.num_items = kNumItems;
  sim.rerank_lists_per_user = 0;
  // test_requests[u] is user u's candidate pool, the source of FreshList.
  sim.test_lists_per_user = 1;
  return rapid::data::GenerateDataset(sim, kCatalogSeed);
}

rapid::data::ImpressionList FreshList(const rapid::data::Dataset& data,
                                      int user, std::mt19937_64& rng) {
  std::vector<int> pool = data.test_requests[user].candidates;
  const int n = std::min<int>(kListLen, static_cast<int>(pool.size()));
  for (int i = 0; i < n; ++i) {
    std::uniform_int_distribution<int> pick(i, static_cast<int>(pool.size()) - 1);
    std::swap(pool[i], pool[pick(rng)]);
  }
  std::normal_distribution<float> noise(0.0f, kScoreNoise);
  std::vector<std::pair<float, int>> scored;
  scored.reserve(n);
  for (int i = 0; i < n; ++i) {
    scored.emplace_back(
        rapid::data::TrueRelevance(data.user(user), data.item(pool[i])) +
            noise(rng),
        pool[i]);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  rapid::data::ImpressionList list;
  list.user_id = user;
  for (const auto& [score, item] : scored) {
    list.items.push_back(item);
    list.scores.push_back(score);
  }
  return list;
}

bool TrainSnapshot(const rapid::data::Dataset& data, const std::string& path) {
  const rapid::click::GroundTruthClickModel dcm(&data,
                                                rapid::click::DcmConfig{});
  std::mt19937_64 rng(kTrainSeed);
  std::vector<rapid::data::ImpressionList> train;
  for (int user = 0; user < kHotUsers; ++user) {
    for (int r = 0; r < kTrainListsPerHotUser; ++r) {
      rapid::data::ImpressionList list = FreshList(data, user, rng);
      list.clicks = dcm.SimulateClicks(user, list.items, rng);
      train.push_back(std::move(list));
    }
  }
  rapid::core::RapidConfig config;  // RAPID-pro: Bi-LSTM + topic LSTM + UCB head.
  config.train.epochs = 1;
  rapid::core::RapidReranker model(config);
  model.Fit(data, train, kTrainSeed);
  return rapid::serve::Snapshot::Save(path, model, data);
}

}  // namespace rbench
