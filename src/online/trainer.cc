#include "online/trainer.h"

#include <algorithm>
#include <utility>

namespace rapid::online {

OnlineTrainer::OnlineTrainer(const data::Dataset& data,
                             serve::ServingRouter* router, FeedbackLog* log,
                             std::unique_ptr<rerank::NeuralReranker> model,
                             OnlineTrainerConfig config)
    : data_(data),
      router_(router),
      log_(log),
      model_(std::move(model)),
      config_(std::move(config)) {}

OnlineTrainer::~OnlineTrainer() { Stop(); }

void OnlineTrainer::Start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void OnlineTrainer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

void OnlineTrainer::Loop() {
  std::vector<FeedbackEvent> pending;
  while (!stop_.load(std::memory_order_acquire)) {
    log_->WaitDrain(config_.max_batch - std::min(config_.max_batch,
                                                 pending.size()),
                    config_.poll_interval, &pending);
    if (pending.size() < std::max<size_t>(config_.min_batch, 1)) continue;
    TrainRound(&pending);
    if (rounds_since_publish_ >= std::max(config_.publish_every_rounds, 1)) {
      Publish();
    }
  }
  // Shutdown flush: train whatever is still buffered (below min_batch
  // included — it is the last chance) and publish outstanding rounds.
  log_->Drain(config_.max_batch, &pending);
  if (!pending.empty()) TrainRound(&pending);
  Publish();
}

size_t OnlineTrainer::TrainRound(std::vector<FeedbackEvent>* events) {
  std::vector<data::ImpressionList> lists;
  lists.reserve(events->size());
  for (FeedbackEvent& event : *events) {
    data::ImpressionList list = std::move(event.list);
    if (list.items.empty() || list.clicks.size() != list.items.size()) {
      continue;  // Defensive: the codec already rejects these.
    }
    if (list.scores.size() != list.items.size()) {
      // The wire frame carries no initial scores; the served order is the
      // best available stand-in for the initial ranking.
      const size_t n = list.items.size();
      list.scores.resize(n);
      for (size_t i = 0; i < n; ++i) {
        list.scores[i] =
            static_cast<float>(n - i) / static_cast<float>(n);
      }
    }
    lists.push_back(std::move(list));
  }
  events->clear();
  if (lists.empty()) return 0;
  const uint64_t round = counters_.Snapshot().train_rounds;
  model_->FineTune(data_, lists, config_.seed + round,
                   config_.epochs_per_round);
  counters_.Add(&serve::OnlineStats::train_rounds);
  counters_.Add(&serve::OnlineStats::trained_lists, lists.size());
  ++rounds_since_publish_;
  return lists.size();
}

bool OnlineTrainer::Publish() {
  if (rounds_since_publish_ == 0) {
    counters_.Add(&serve::OnlineStats::publish_skipped);
    return false;
  }
  if (!serve::Snapshot::Save(config_.snapshot_path, *model_, config_.family,
                             data_)) {
    counters_.Add(&serve::OnlineStats::publish_rejected);
    return false;
  }
  // The canary-guarded swap: LoadSlot rebuilds the model from the
  // snapshot, validates it against the auto-recorded probe, and publishes
  // under the router's zero-drop RCU semantics. Version 0 = rejected, and
  // the slot keeps serving the previous version.
  const uint64_t version = router_->LoadSlot(config_.slot,
                                             config_.snapshot_path);
  if (version == 0) {
    counters_.Add(&serve::OnlineStats::publish_rejected);
    return false;
  }
  counters_.Add(&serve::OnlineStats::publishes);
  counters_.Max(&serve::OnlineStats::last_published_version, version);
  rounds_since_publish_ = 0;
  return true;
}

serve::OnlineStats OnlineTrainer::Stats() const {
  serve::OnlineStats stats = counters_.Snapshot();
  log_->FillStats(&stats);
  return stats;
}

void OnlineTrainer::FillStats(serve::RouterStats* stats) const {
  stats->online = Stats();
  stats->has_online = true;
}

}  // namespace rapid::online
