#ifndef RAPID_PAGE_PAGE_H_
#define RAPID_PAGE_PAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/types.h"
#include "rerank/reranker.h"

namespace rapid::page {

/// Page-level reranking: a *page* is several candidate lists (feed, ads,
/// banners) shown to one user together, so the user experiences their
/// topical redundancy jointly. RAPID's coverage function (Eq. 4) is
/// per-list; this subsystem extends it across sibling lists by sharing one
/// per-topic residual-mass vector for the whole page (see
/// `rerank::MarginalCoverageGain` / `rerank::AbsorbCoverage`): an item's
/// marginal diversity gain shrinks when a sibling list already covered its
/// topics.

/// How the cross-list greedy pass weighs relevance against coverage and
/// whether the coverage state is shared across the page.
struct PageRerankConfig {
  /// Relevance weight of the greedy objective
  /// `lambda * rel(v) + (1 - lambda) * gain(v)`; mirrors the DCM's
  /// attraction tradeoff.
  float lambda = 0.5f;
  /// Positions per list that receive the diversity treatment; 0 = every
  /// position. Positions past `top_k` are filled by pure relevance.
  int top_k = 0;
  /// Share one coverage state across sibling lists (the page-level pass).
  /// False = the independent per-list baseline: each list gets its own
  /// residual vector and an even `budget / num_lists` share of the budget.
  bool joint = true;
};

/// The reranked page plus its coverage diagnostics.
struct PageResult {
  /// Reranked item ids, one permutation per input list.
  std::vector<std::vector<int>> lists;
  /// Mean-over-topics coverage (Eq. 4) of the union of the treated list
  /// prefixes — what the user's cross-list coverage memory sees.
  float page_coverage = 0.0f;
  /// Cross-list redundancy in mean-topic units:
  /// `sum_l coverage(list_l) - coverage(union)`. Non-negative by
  /// subadditivity of probabilistic coverage; 0 means no topic mass is
  /// duplicated across sibling lists.
  float cross_list_redundancy = 0.0f;
  /// Marginal-coverage mass actually spent against the budget.
  float diversity_spent = 0.0f;
};

/// The cross-list greedy reranker. Borrows the dataset (must outlive it);
/// stateless otherwise, so one instance is safe to use concurrently.
class PageReranker {
 public:
  PageReranker(const data::Dataset& data, PageRerankConfig config = {})
      : data_(data), config_(config) {}

  /// Reranks a page from explicit per-item relevance in [0, 1] (row r
  /// aligned with `lists[r]`). Every item id must be inside the dataset's
  /// catalog. Round-robin across lists by position — the order a user
  /// scans a page — picking at each step the remaining item maximizing
  /// `lambda * rel + (1 - lambda) * MarginalCoverageGain(item, residual)`
  /// while budget remains, then absorbing the pick into the (shared or
  /// per-list) residual.
  ///
  /// `budget` is the user's diversity budget: the total marginal-coverage
  /// mass (in mean-topic units) the page may spend before the greedy pass
  /// falls back to pure relevance. It is *per user* (scaled from their
  /// diversity appetite by the session generator), and under the joint
  /// pass it is allocated greedily across lists rather than split evenly.
  PageResult Rerank(const std::vector<std::vector<int>>& lists,
                    const std::vector<std::vector<float>>& relevance,
                    float budget) const;

  /// Rank-decay relevance for a list already ordered by a model:
  /// `rel[i] = (n - i) / n`. How the serving tier derives relevance from
  /// the router's returned permutations.
  static std::vector<float> RankRelevance(size_t n);

  const PageRerankConfig& config() const { return config_; }

 private:
  const data::Dataset& data_;
  PageRerankConfig config_;
};

/// Mean-over-topics probabilistic coverage of the *set union* of the given
/// `top_k` prefixes (whole lists when `top_k <= 0`). An item repeated
/// across sibling lists is absorbed once — duplicated impressions add no
/// coverage, which is what makes cross-list redundancy measurable.
float PageCoverage(const data::Dataset& data,
                   const std::vector<std::vector<int>>& lists, int top_k = 0);

/// `sum_l coverage(list_l) - coverage(union)` over the same prefixes; the
/// page's duplicated topic mass, >= 0.
float CrossListRedundancy(const data::Dataset& data,
                          const std::vector<std::vector<int>>& lists,
                          int top_k = 0);

}  // namespace rapid::page

#endif  // RAPID_PAGE_PAGE_H_
