#ifndef RAPID_RERANK_RERANKER_H_
#define RAPID_RERANK_RERANKER_H_

#include <string>
#include <vector>

#include "datagen/types.h"

namespace rapid::rerank {

/// Interface for re-ranking models (the paper's final MRS stage).
///
/// A re-ranker receives an initial `ImpressionList` (items, initial-ranker
/// scores, and — during training — simulated clicks) and outputs a
/// permutation of the list. Heuristic methods ignore `Fit`.
///
/// ## Thread-safety contract (relied on by `serve::ServingRouter`)
///
/// `Fit` (and `NeuralReranker::LoadModel`) require exclusive access. Once
/// fitting/loading has completed, every const member — `Rerank`,
/// `RerankBatch`, `name`, and subclass const methods such as
/// `NeuralReranker::ScoreList`/`ScoreBatch` — MUST be safe to call
/// concurrently from any number of threads with no external locking.
/// Concretely, implementations of the const inference path must not mutate
/// shared state: no memoization caches, no reused scratch buffers, no
/// member RNGs. Any working memory (autograd graphs, feature matrices,
/// RNGs for tie-breaking) is allocated per call or thread-local.
///
/// The in-tree implementations satisfy this by construction (audited for
/// the serving subsystem): the heuristic methods are pure functions of
/// their arguments, and the neural methods build a fresh autograd graph
/// per `BuildBatchLogits` call whose only shared nodes are the parameter
/// leaves, which inference only reads (`Backward` is never invoked on the
/// inference path, so even lazy gradient allocation cannot race).
class Reranker {
 public:
  virtual ~Reranker() = default;

  /// Name used in experiment tables (matches the paper's method names).
  virtual std::string name() const = 0;

  /// Trains on logged initial lists with click labels. Default: no-op
  /// (heuristic methods).
  virtual void Fit(const data::Dataset& data,
                   const std::vector<data::ImpressionList>& train,
                   uint64_t seed);

  /// Returns the re-ranked item ids — a permutation of `list.items`.
  /// Evaluation metrics are computed over prefixes of this permutation.
  virtual std::vector<int> Rerank(const data::Dataset& data,
                                  const data::ImpressionList& list) const = 0;

  /// Re-ranks several lists into `*out` — the batched workhorse behind
  /// `RerankBatch`. `*out` is resized to `lists.size()`; existing inner
  /// vectors (and their capacity) are reused, so a steady-state caller
  /// that passes the same scratch object back in allocates nothing here.
  /// Result `i` corresponds to `lists[i]` and is bit-identical to
  /// `Rerank(data, *lists[i])`. The default loops `Rerank` (heuristics,
  /// decorators); `NeuralReranker` overrides it with a true batched
  /// forward pass that groups same-length lists into single matrix
  /// computations and runs them out of the thread-local arena (see
  /// nn/arena.h). The pointers must be non-null and stay valid for the
  /// duration of the call. Same thread-safety contract as `Rerank`
  /// (`*out` itself is the caller's and must not be shared).
  virtual void RerankBatchInto(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists,
      std::vector<std::vector<int>>* out) const;

  /// Convenience wrapper over `RerankBatchInto` returning a fresh vector.
  std::vector<std::vector<int>> RerankBatch(
      const data::Dataset& data,
      const std::vector<const data::ImpressionList*>& lists) const;
};

/// The identity re-ranker: returns the initial ranking unchanged ("Init"
/// rows of the paper's tables).
class InitReranker : public Reranker {
 public:
  std::string name() const override { return "Init"; }
  std::vector<int> Rerank(const data::Dataset& data,
                          const data::ImpressionList& list) const override;
};

/// Min-max normalizes the initial scores of a list into [0,1] (constant
/// lists map to all-0.5). Heuristic re-rankers use this as their relevance
/// estimate.
std::vector<float> NormalizedScores(const data::ImpressionList& list);

/// Cosine similarity of two items' topic-coverage vectors (0 when either
/// is all-zero).
float CoverageCosine(const data::Item& a, const data::Item& b);

/// The RAPID coverage function (Eq. 4) factored into externalized state:
/// `residual[j]` is the uncovered probability mass of topic j given
/// everything already selected, i.e. `prod_v (1 - tau_v^j)` over the
/// selections so far. Keeping the residual outside any single list is what
/// lets a *page* share one coverage state across sibling lists — an item's
/// marginal gain shrinks when a sibling list already covered its topics.
///
/// Marginal coverage gain of adding `item` against `residual`, averaged
/// over topics: `(1/m) sum_j tau_v^j * residual[j]`, in [0, 1].
float MarginalCoverageGain(const data::Item& item,
                           const std::vector<float>& residual);

/// Folds `item` into `residual` in place: `residual[j] *= (1 - tau_v^j)`.
void AbsorbCoverage(const data::Item& item, std::vector<float>* residual);

}  // namespace rapid::rerank

#endif  // RAPID_RERANK_RERANKER_H_
