#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "catalog.h"

namespace rbench {

namespace {

constexpr double kZipfExponent = 1.1;
constexpr float kPageSharedFrac = 0.4f;

std::vector<double> ZipfWeights(int n) {
  std::vector<double> weights(n);
  for (int k = 0; k < n; ++k) weights[k] = 1.0 / std::pow(k + 1.0, kZipfExponent);
  return weights;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"cold_users", 1650.0, false, false, false},
      {"hot_users", 2100.0, true, false, false},
      {"pages", 1100.0, false, true, false},
      {"online_swap", 1450.0, true, false, true},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Traffic::Traffic(const rapid::data::Dataset& data, const Workload& workload,
                 uint64_t seed)
    : data_(data), workload_(workload), rng_(seed) {
  if (workload.hot) {
    const std::vector<double> weights = ZipfWeights(kHotUsers);
    zipf_ = std::discrete_distribution<int>(weights.begin(), weights.end());
    last_list_.assign(kHotUsers, -1);
  } else {
    deck_.resize(data.users.size());
    std::iota(deck_.begin(), deck_.end(), 0);
    deck_pos_ = deck_.size();  // Shuffled on first draw.
  }
  if (workload.pages) {
    rapid::data::PageGenConfig gen;
    gen.lists_per_page = kListsPerPage;
    gen.items_per_list = kListLen;
    gen.num_pages = static_cast<int>(data.users.size());
    gen.shared_frac = kPageSharedFrac;
    pages = rapid::data::GeneratePageSessions(data, gen, seed);
  }
}

int Traffic::NextUser() {
  if (workload_.hot) return zipf_(rng_);
  if (deck_pos_ == deck_.size()) {
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    deck_pos_ = 0;
  }
  return deck_[deck_pos_++];
}

void Traffic::Pregenerate(size_t count) {
  while (requests.size() < taken_ + count) Generate();
}

int Traffic::Take() {
  if (taken_ == requests.size()) Generate();
  return static_cast<int>(taken_++);
}

void Traffic::Generate() {
  Request request;
  request.user = NextUser();
  if (workload_.pages) {
    request.page = request.user;
  } else {
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    const bool refresh = workload_.hot && coin(rng_) < kRefreshShare &&
                         last_list_[request.user] >= 0;
    if (refresh) {
      request.list = last_list_[request.user];
    } else {
      request.list = static_cast<int>(lists.size());
      lists.push_back(FreshList(data_, request.user, rng_));
    }
    if (workload_.hot) last_list_[request.user] = request.list;
    request.feedback = workload_.online && coin(rng_) < kFeedbackShare;
  }
  requests.push_back(request);
}

}  // namespace rbench
