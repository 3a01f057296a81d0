#include "page/page.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <unordered_set>

namespace rapid::page {

namespace {

/// Mean of a topic-residual vector turned back into coverage:
/// coverage_j = 1 - residual_j.
float MeanCoverage(const std::vector<float>& residual) {
  if (residual.empty()) return 0.0f;
  double covered = 0.0;
  for (const float r : residual) covered += 1.0 - r;
  return static_cast<float>(covered / static_cast<double>(residual.size()));
}

}  // namespace

std::vector<float> PageReranker::RankRelevance(size_t n) {
  std::vector<float> rel(n);
  for (size_t i = 0; i < n; ++i) {
    rel[i] = static_cast<float>(n - i) / static_cast<float>(n);
  }
  return rel;
}

PageResult PageReranker::Rerank(const std::vector<std::vector<int>>& lists,
                                const std::vector<std::vector<float>>& relevance,
                                float budget) const {
  const size_t num_lists = lists.size();
  const int m = data_.num_topics;
  PageResult result;
  result.lists.resize(num_lists);
  if (num_lists == 0) return result;
  if (!(budget >= 0.0f)) budget = 0.0f;  // Sanitizes NaN / negative input.

  // One shared residual for the joint pass; one per list (with an even
  // budget split) for the independent baseline.
  std::vector<std::vector<float>> residuals;
  std::vector<float> budgets;
  if (config_.joint) {
    residuals.assign(1, std::vector<float>(m, 1.0f));
    budgets.assign(1, budget);
  } else {
    residuals.assign(num_lists, std::vector<float>(m, 1.0f));
    budgets.assign(num_lists, budget / static_cast<float>(num_lists));
  }
  std::vector<float> spent(budgets.size(), 0.0f);
  // Item ids already placed per coverage state: a duplicate (the same
  // trending item surfacing on a sibling list) adds nothing to the set
  // union the page is scored on, so its gain is zero and it is absorbed
  // only once — keeping the greedy objective aligned with `PageCoverage`.
  std::vector<std::unordered_set<int>> shown(residuals.size());

  // Per-list remaining-candidate index sets, in input order so ties break
  // toward the higher-relevance (earlier) candidate.
  std::vector<std::vector<int>> remaining(num_lists);
  size_t longest = 0;
  for (size_t l = 0; l < num_lists; ++l) {
    remaining[l].resize(lists[l].size());
    std::iota(remaining[l].begin(), remaining[l].end(), 0);
    result.lists[l].reserve(lists[l].size());
    longest = std::max(longest, lists[l].size());
  }

  // Round-robin by position: position p of list 1, position p of list 2,
  // ... — the order a user scans a page row by row, so every list's early
  // positions compete for the same uncovered topic mass.
  for (size_t pos = 0; pos < longest; ++pos) {
    for (size_t l = 0; l < num_lists; ++l) {
      if (remaining[l].empty()) continue;
      const size_t state = config_.joint ? 0 : l;
      std::vector<float>& residual = residuals[state];
      const bool diversify =
          (config_.top_k <= 0 || pos < static_cast<size_t>(config_.top_k)) &&
          spent[state] < budgets[state];
      size_t best_at = 0;
      float best_obj = -1.0f, best_gain = 0.0f;
      for (size_t c = 0; c < remaining[l].size(); ++c) {
        const int idx = remaining[l][c];
        const float rel = relevance[l][idx];
        float obj = rel, gain = 0.0f;
        if (diversify) {
          if (shown[state].count(lists[l][idx]) == 0) {
            gain = rerank::MarginalCoverageGain(data_.item(lists[l][idx]),
                                                residual);
          }
          obj = config_.lambda * rel + (1.0f - config_.lambda) * gain;
        }
        if (obj > best_obj) {
          best_obj = obj;
          best_gain = gain;
          best_at = c;
        }
      }
      const int idx = remaining[l][best_at];
      remaining[l].erase(remaining[l].begin() +
                         static_cast<ptrdiff_t>(best_at));
      result.lists[l].push_back(lists[l][idx]);
      if (diversify) spent[state] += best_gain;
      // The coverage state absorbs every *distinct* shown item
      // (diversified or not): the user sees the whole page, so later
      // marginal gains must discount everything already placed.
      if (shown[state].insert(lists[l][idx]).second) {
        rerank::AbsorbCoverage(data_.item(lists[l][idx]), &residual);
      }
    }
  }

  result.diversity_spent =
      std::accumulate(spent.begin(), spent.end(), 0.0f);
  result.page_coverage = PageCoverage(data_, result.lists, config_.top_k);
  result.cross_list_redundancy =
      CrossListRedundancy(data_, result.lists, config_.top_k);
  return result;
}

float PageCoverage(const data::Dataset& data,
                   const std::vector<std::vector<int>>& lists, int top_k) {
  // Set union: an item repeated across sibling lists (or within one) is
  // absorbed once. Folding every *occurrence* would keep crediting
  // duplicated topic mass — probabilistic coverage never saturates — and
  // a redundancy metric built on it would reward showing the same
  // trending item on every list.
  std::vector<float> residual(data.num_topics, 1.0f);
  std::unordered_set<int> seen;
  for (const std::vector<int>& list : lists) {
    const size_t k = top_k <= 0
                         ? list.size()
                         : std::min(list.size(), static_cast<size_t>(top_k));
    for (size_t i = 0; i < k; ++i) {
      if (!seen.insert(list[i]).second) continue;
      rerank::AbsorbCoverage(data.item(list[i]), &residual);
    }
  }
  return MeanCoverage(residual);
}

float CrossListRedundancy(const data::Dataset& data,
                          const std::vector<std::vector<int>>& lists,
                          int top_k) {
  float sum_own = 0.0f;
  for (const std::vector<int>& list : lists) {
    sum_own += PageCoverage(data, {list}, top_k);
  }
  return std::max(0.0f, sum_own - PageCoverage(data, lists, top_k));
}

}  // namespace rapid::page
