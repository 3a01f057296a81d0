// Tests of the thread-local scratch arena (nn/arena.h) and the
// zero-allocation serving contract it exists for: once a worker thread has
// served one batch (chunks mapped, caller scratch sized), a repeat
// `RerankBatchInto` on the same shapes must perform ZERO heap allocations
// and map zero new chunks — every temporary comes from rewound arena
// memory. Run with RAPID_ARENA=0 these tests skip (the arena is a
// transparent optimization, not a semantic layer).

#include "nn/arena.h"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "click/dcm.h"
#include "datagen/simulator.h"
#include "nn/variable.h"
#include "rerank/neural_models.h"

namespace rapid {
namespace {

namespace arena = rapid::nn::arena;

TEST(ArenaTest, ScopeRewindsBytesAndRetainsChunks) {
  if (!arena::Enabled()) GTEST_SKIP() << "arena disabled";
  // Warm one chunk so the steady-state claim below is about reuse.
  {
    arena::ArenaScope warm;
    std::vector<float> filler(1024);
    filler[0] = 1.0f;
  }
  const size_t bytes_before = arena::ThreadBytesInUse();
  const arena::ThreadCounters warm_counters = arena::CountersThisThread();
  {
    arena::ArenaScope scope;
    std::vector<float> a(4096), b(512);
    a[0] = b[0] = 1.0f;
    EXPECT_GT(arena::ThreadBytesInUse(), bytes_before);
    {
      arena::ArenaScope nested;
      std::vector<float> c(2048);
      c[0] = 1.0f;
    }
  }
  EXPECT_EQ(arena::ThreadBytesInUse(), bytes_before);
  const arena::ThreadCounters after = arena::CountersThisThread();
  EXPECT_GT(after.arena_allocs, warm_counters.arena_allocs);
  EXPECT_EQ(after.chunk_mallocs, warm_counters.chunk_mallocs)
      << "steady-state scopes must reuse retained chunks";
  EXPECT_GE(arena::ThreadHighWaterBytes(), 4096 * sizeof(float));
}

TEST(ArenaTest, AllocationsOutsideScopesStayOnHeap) {
  const arena::ThreadCounters before = arena::CountersThisThread();
  {
    std::vector<float> v(1024);
    v[0] = 1.0f;
  }
  const arena::ThreadCounters after = arena::CountersThisThread();
  EXPECT_GT(after.heap_allocs, before.heap_allocs);
  EXPECT_GT(after.heap_frees, before.heap_frees);
}

TEST(ArenaTest, GlobalStatsAggregateThreadCounters) {
  if (!arena::Enabled()) GTEST_SKIP() << "arena disabled";
  {
    arena::ArenaScope scope;
    std::vector<float> v(256);
    v[0] = 1.0f;
  }
  const arena::GlobalStats stats = arena::GlobalArenaStats();
  EXPECT_GT(stats.arena_allocs, 0u);
  EXPECT_GT(stats.reserved_bytes, 0u);
  EXPECT_GT(stats.high_water_bytes, 0u);
}

TEST(ArenaTest, ThreadExitReturnsItsChunksToTheReservedGauge) {
  if (!arena::Enabled()) GTEST_SKIP() << "arena disabled";
  const uint64_t before = arena::GlobalArenaStats().reserved_bytes;
  uint64_t during = 0;
  std::thread worker([&during] {
    {
      arena::ArenaScope scope;
      std::vector<float> v(4096);
      v[0] = 1.0f;
    }
    during = arena::GlobalArenaStats().reserved_bytes;
  });
  worker.join();
  EXPECT_GT(during, before);
  // The gauge means live reservations: a finished worker holds none.
  EXPECT_EQ(arena::GlobalArenaStats().reserved_bytes, before);
}

class ArenaServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 12;
    cfg.num_items = 100;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 303);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(4);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      lists_.push_back(std::move(list));
    }
    rerank::NeuralRerankConfig mcfg;
    mcfg.epochs = 1;
    mcfg.hidden_dim = 8;
    model_ = std::make_unique<rerank::PrmReranker>(mcfg);
    model_->Fit(data_, lists_, 11);
  }

  std::vector<const data::ImpressionList*> Ptrs() const {
    std::vector<const data::ImpressionList*> out;
    for (const data::ImpressionList& list : lists_) out.push_back(&list);
    return out;
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> lists_;
  std::unique_ptr<rerank::PrmReranker> model_;
};

// The tentpole assertion: a warm batched rerank is allocation-free. The
// first call sizes the caller scratch, the thread-local score buffers, and
// the arena chunks; from the second call on, the hot path must touch
// neither malloc nor a new chunk.
TEST_F(ArenaServingTest, WarmRerankBatchPerformsZeroHeapAllocations) {
  if (!arena::Enabled()) GTEST_SKIP() << "arena disabled";
  const std::vector<const data::ImpressionList*> ptrs = Ptrs();
  std::vector<std::vector<int>> out;
  model_->RerankBatchInto(data_, ptrs, &out);  // Warm-up call.
  model_->RerankBatchInto(data_, ptrs, &out);  // Settle any lazy statics.

  const arena::ThreadCounters before = arena::CountersThisThread();
  model_->RerankBatchInto(data_, ptrs, &out);
  const arena::ThreadCounters after = arena::CountersThisThread();

  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "warm RerankBatchInto allocated on the heap";
  EXPECT_EQ(after.heap_frees, before.heap_frees);
  EXPECT_EQ(after.chunk_mallocs, before.chunk_mallocs)
      << "warm RerankBatchInto grew the arena";
  EXPECT_GT(after.arena_allocs, before.arena_allocs)
      << "the forward pass should run out of the arena";
}

// Scratch reuse must not leak stale results: a warm output vector with
// wrong sizes/contents is fully overwritten and matches a fresh call.
TEST_F(ArenaServingTest, ScratchReuseMatchesFreshCall) {
  const std::vector<const data::ImpressionList*> ptrs = Ptrs();
  const std::vector<std::vector<int>> fresh = model_->RerankBatch(data_, ptrs);

  std::vector<std::vector<int>> stale(3);
  stale[0].assign(100, -7);  // Wrong count, wrong sizes, stale values.
  model_->RerankBatchInto(data_, ptrs, &stale);
  EXPECT_EQ(stale, fresh);

  // And batched output still matches the per-list path bit for bit.
  for (size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(fresh[i], model_->Rerank(data_, *ptrs[i])) << "list " << i;
  }
}

// Scores must be identical with and without the arena's no-grad inference
// path against a plain training-style forward: no-grad mode changes graph
// bookkeeping, never values.
TEST_F(ArenaServingTest, NoGradForwardMatchesGradForward) {
  const data::ImpressionList& list = lists_.front();
  const std::vector<float> inference = model_->ScoreList(data_, list);
  std::vector<float> with_grad;
  {
    // ScoreList runs under NoGradScope internally; forcing grad mode on
    // around it must not change anything (the scope nests).
    ASSERT_TRUE(nn::GradEnabled());
    with_grad = model_->ScoreList(data_, list);
  }
  EXPECT_EQ(inference, with_grad);
}

}  // namespace
}  // namespace rapid
