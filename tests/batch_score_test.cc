// Tests of the batched inference contract (rerank/neural_base.h): for
// every neural model family, `ScoreBatch` over randomized mixed-length
// lists must reproduce `ScoreList` bitwise — before and after a snapshot
// round trip — and `RerankBatch` must reproduce `Rerank`. Also covers
// concurrent `ScoreBatch` on one shared model (run under
// RAPID_SANITIZE=thread for the data-race proof).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "click/dcm.h"
#include "core/rapid.h"
#include "datagen/simulator.h"
#include "rerank/neural_models.h"
#include "rerank/seq2slate.h"
#include "serve/snapshot.h"

namespace rapid {
namespace {

class BatchScoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SimConfig cfg;
    cfg.kind = data::DatasetKind::kTaobao;
    cfg.num_users = 20;
    cfg.num_items = 120;
    cfg.rerank_lists_per_user = 2;
    data_ = data::GenerateDataset(cfg, 101);
    click::GroundTruthClickModel dcm(&data_, click::DcmConfig{});
    std::mt19937_64 rng(2);
    for (const data::Request& req : data_.rerank_train_requests) {
      data::ImpressionList list;
      list.user_id = req.user_id;
      list.items.assign(req.candidates.begin(), req.candidates.begin() + 10);
      for (int i = 0; i < 10; ++i) list.scores.push_back(1.0f - 0.05f * i);
      list.clicks = dcm.SimulateClicks(list.user_id, list.items, rng);
      train_.push_back(std::move(list));
    }
    // Mixed-length inference lists: prefixes of the training lists with
    // randomized lengths (including several sharing one length, so
    // ScoreBatch forms both singleton and multi-list groups).
    std::mt19937_64 len_rng(7);
    for (size_t i = 0; i < train_.size(); ++i) {
      data::ImpressionList list = train_[i];
      std::uniform_int_distribution<int> len(1,
                                             static_cast<int>(list.items.size()));
      const int keep = len(len_rng);
      list.items.resize(keep);
      list.scores.resize(keep);
      list.clicks.clear();
      mixed_.push_back(std::move(list));
    }
  }

  static rerank::NeuralRerankConfig SmallConfig() {
    rerank::NeuralRerankConfig cfg;
    cfg.epochs = 1;
    cfg.hidden_dim = 8;
    return cfg;
  }

  std::vector<const data::ImpressionList*> MixedPtrs() const {
    std::vector<const data::ImpressionList*> out;
    for (const data::ImpressionList& list : mixed_) out.push_back(&list);
    return out;
  }

  // The heart of the contract: batching is a pure throughput optimization,
  // never a numeric change.
  void ExpectBatchMatchesSingle(const rerank::NeuralReranker& model) {
    const std::vector<std::vector<float>> batched =
        model.ScoreBatch(data_, MixedPtrs());
    ASSERT_EQ(batched.size(), mixed_.size());
    for (size_t i = 0; i < mixed_.size(); ++i) {
      const std::vector<float> single = model.ScoreList(data_, mixed_[i]);
      ASSERT_EQ(batched[i].size(), single.size()) << model.name() << " list " << i;
      EXPECT_EQ(0, std::memcmp(batched[i].data(), single.data(),
                               single.size() * sizeof(float)))
          << model.name() << " list " << i << " scores diverge under batching";
    }
    const std::vector<std::vector<int>> reranked =
        model.RerankBatch(data_, MixedPtrs());
    for (size_t i = 0; i < mixed_.size(); ++i) {
      EXPECT_EQ(reranked[i], model.Rerank(data_, mixed_[i]))
          << model.name() << " list " << i;
    }
  }

  void FitAndCheck(rerank::NeuralReranker* model) {
    model->Fit(data_, train_, 6);
    ExpectBatchMatchesSingle(*model);
  }

  data::Dataset data_;
  std::vector<data::ImpressionList> train_;
  std::vector<data::ImpressionList> mixed_;
};

TEST_F(BatchScoreTest, DlcmBatchedScoresAreBitExact) {
  rerank::DlcmReranker model(SmallConfig());
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, PrmBatchedScoresAreBitExact) {
  rerank::PrmReranker model(SmallConfig());
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, SetRankBatchedScoresAreBitExact) {
  rerank::SetRankReranker model(SmallConfig());
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, SrgaBatchedScoresAreBitExact) {
  rerank::SrgaReranker model(SmallConfig());
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, DesaBatchedScoresAreBitExact) {
  rerank::NeuralRerankConfig cfg = SmallConfig();
  cfg.loss = rerank::RerankLoss::kPairwiseLogistic;
  rerank::DesaReranker model(cfg);
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, Seq2SlateBatchedScoresAreBitExact) {
  rerank::Seq2SlateReranker model(SmallConfig());
  FitAndCheck(&model);
}

TEST_F(BatchScoreTest, RapidVariantsBatchedScoresAreBitExact) {
  // Every architecture knob that changes the forward pass: Bi-LSTM vs
  // transformer relevance, LSTM/mean/none diversity, both output heads.
  struct Variant {
    core::RelevanceEncoder enc;
    core::DiversityAggregator agg;
    core::OutputHead head;
  };
  const Variant variants[] = {
      {core::RelevanceEncoder::kBiLstm, core::DiversityAggregator::kLstm,
       core::OutputHead::kProbabilistic},
      {core::RelevanceEncoder::kBiLstm, core::DiversityAggregator::kLstm,
       core::OutputHead::kDeterministic},
      {core::RelevanceEncoder::kTransformer, core::DiversityAggregator::kLstm,
       core::OutputHead::kProbabilistic},
      {core::RelevanceEncoder::kBiLstm, core::DiversityAggregator::kMean,
       core::OutputHead::kProbabilistic},
      {core::RelevanceEncoder::kBiLstm, core::DiversityAggregator::kNone,
       core::OutputHead::kProbabilistic},
  };
  for (const Variant& v : variants) {
    core::RapidConfig cfg;
    cfg.train = SmallConfig();
    cfg.hidden_dim = 8;
    cfg.relevance_encoder = v.enc;
    cfg.diversity_aggregator = v.agg;
    cfg.head = v.head;
    core::RapidReranker model(cfg);
    FitAndCheck(&model);
  }
}

TEST_F(BatchScoreTest, BatchedExactnessSurvivesSnapshotRoundTrip) {
  // The serving path never scores the trained object — it scores what
  // `Snapshot::LoadAny` rehydrates. Exercise one RAPID and one baseline
  // family through the round trip.
  {
    core::RapidConfig cfg;
    cfg.train = SmallConfig();
    cfg.hidden_dim = 8;
    core::RapidReranker trained(cfg);
    trained.Fit(data_, train_, 6);
    const std::string path = ::testing::TempDir() + "/batch_rapid.rsnp";
    ASSERT_TRUE(serve::Snapshot::Save(path, trained, data_));
    const auto restored = serve::Snapshot::LoadAny(path, data_);
    ASSERT_NE(restored, nullptr);
    ExpectBatchMatchesSingle(*restored);
    // And the restored batch matches the trained single path: the full
    // train -> save -> load -> batch chain is one equivalence class.
    const auto batched = restored->ScoreBatch(data_, MixedPtrs());
    for (size_t i = 0; i < mixed_.size(); ++i) {
      EXPECT_EQ(batched[i], trained.ScoreList(data_, mixed_[i]));
    }
  }
  {
    rerank::PrmReranker trained(SmallConfig());
    trained.Fit(data_, train_, 6);
    const std::string path = ::testing::TempDir() + "/batch_prm.rsnp";
    ASSERT_TRUE(serve::Snapshot::Save(path, trained,
                                      serve::SnapshotFamily::kPrm, data_));
    const auto restored = serve::Snapshot::LoadAny(path, data_);
    ASSERT_NE(restored, nullptr);
    ExpectBatchMatchesSingle(*restored);
  }
}

TEST_F(BatchScoreTest, EmptyAndSingletonBatches) {
  core::RapidConfig cfg;
  cfg.train = SmallConfig();
  cfg.hidden_dim = 8;
  core::RapidReranker model(cfg);
  model.Fit(data_, train_, 6);

  EXPECT_TRUE(model.ScoreBatch(data_, {}).empty());
  const std::vector<std::vector<float>> one =
      model.ScoreBatch(data_, {&mixed_[0]});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], model.ScoreList(data_, mixed_[0]));

  // Empty lists inside a batch score to empty vectors without running a
  // forward, and don't disturb their neighbors.
  data::ImpressionList empty;
  empty.user_id = mixed_[0].user_id;
  const std::vector<std::vector<float>> with_empty =
      model.ScoreBatch(data_, {&mixed_[0], &empty, &mixed_[1]});
  ASSERT_EQ(with_empty.size(), 3u);
  EXPECT_EQ(with_empty[0], model.ScoreList(data_, mixed_[0]));
  EXPECT_TRUE(with_empty[1].empty());
  EXPECT_EQ(with_empty[2], model.ScoreList(data_, mixed_[1]));
}

TEST_F(BatchScoreTest, ConcurrentScoreBatchOnSharedModelIsSafe) {
  // The serving engine shares one fitted model across workers that now
  // call ScoreBatch concurrently. Under RAPID_SANITIZE=thread this is the
  // data-race proof for the batched const-inference surface.
  core::RapidConfig cfg;
  cfg.train = SmallConfig();
  cfg.hidden_dim = 8;
  core::RapidReranker model(cfg);
  model.Fit(data_, train_, 6);

  const std::vector<std::vector<float>> expected =
      model.ScoreBatch(data_, MixedPtrs());
  std::vector<std::thread> threads;
  std::vector<bool> ok(4, false);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      bool all_equal = true;
      for (int rep = 0; rep < 3; ++rep) {
        const auto got = model.ScoreBatch(data_, MixedPtrs());
        all_equal = all_equal && got == expected;
      }
      ok[t] = all_equal;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " saw diverging batched scores";
  }
}

}  // namespace
}  // namespace rapid
