#ifndef RAPID_DATAGEN_PAGES_H_
#define RAPID_DATAGEN_PAGES_H_

#include <cstdint>
#include <vector>

#include "datagen/types.h"

namespace rapid::data {

/// Shape of a simulated multi-list page session: one user shown several
/// candidate lists together (feed, ads, banners). Sibling lists draw part
/// of their candidates from a shared per-page "trending" pool, so the raw
/// page carries genuine cross-list topical redundancy for a page-level
/// reranker to remove.
struct PageGenConfig {
  int lists_per_page = 3;
  int items_per_list = 20;
  /// Total pages generated; users are assigned round-robin.
  int num_pages = 100;
  /// Fraction of each list's candidates drawn from the page's shared pool
  /// (the redundancy dial: 0 = disjoint sampling, 1 = every list samples
  /// only trending items).
  float shared_frac = 0.4f;
  /// Size of the per-page shared pool.
  int shared_pool_size = 30;
  /// Std-dev of the observation noise on the initial scores (a stand-in
  /// initial ranker: noisy true relevance, sorted descending).
  float score_noise = 0.1f;
  /// Scales the per-user diversity budget:
  /// `budget = diversity_appetite * budget_scale * lists_per_page`.
  float budget_scale = 1.0f;
};

/// One generated page session. Each list is initial-ranked (items sorted
/// by its noisy scores, descending); `clicks` stays empty — page-level
/// clicks come from the page DCM at evaluation time.
struct PageSession {
  int user_id = 0;
  /// The user's diversity budget for this page, in mean-topic units of
  /// marginal-coverage mass (see the `budget` of
  /// `page::PageReranker::Rerank`).
  float diversity_budget = 0.0f;
  std::vector<ImpressionList> lists;
};

/// Generates `config.num_pages` multi-list page sessions. Deterministic
/// given `seed`. Item ids within one list are distinct; sibling lists
/// overlap through the shared pool by construction.
std::vector<PageSession> GeneratePageSessions(const Dataset& data,
                                              const PageGenConfig& config,
                                              uint64_t seed);

}  // namespace rapid::data

#endif  // RAPID_DATAGEN_PAGES_H_
