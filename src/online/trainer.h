#ifndef RAPID_ONLINE_TRAINER_H_
#define RAPID_ONLINE_TRAINER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "online/feedback.h"
#include "rerank/neural_base.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace rapid::online {

struct OnlineTrainerConfig {
  /// The router slot the trainer republishes into.
  std::string slot = "online";
  /// Feedback lists required before a fine-tune round runs. Smaller means
  /// fresher models, larger means smoother gradients.
  size_t min_batch = 8;
  /// Most lists consumed per round (bounds one round's latency).
  size_t max_batch = 64;
  /// `NeuralReranker::FineTune` epochs per round.
  int epochs_per_round = 1;
  /// Publish a snapshot every N completed train rounds.
  int publish_every_rounds = 1;
  /// How long one `WaitDrain` blocks; also bounds how quickly the loop
  /// notices `Stop`.
  std::chrono::milliseconds poll_interval{50};
  /// Where published snapshots are written (required; the same file is
  /// rewritten each publish — `LoadSlot` copies it into memory).
  std::string snapshot_path;
  /// Family tag for `Snapshot::Save` — must match the model's class.
  serve::SnapshotFamily family = serve::SnapshotFamily::kRapid;
  /// Base RNG seed; each round trains with `seed + round`.
  uint64_t seed = 1;
};

/// The background fine-tuning loop that closes serve -> feedback -> train
/// -> publish:
///
///   - **Ownership/threading model.** The trainer owns a *private* copy
///     of the model; no serving thread ever scores it, so `FineTune`'s
///     exclusive-access requirement holds without locks. Publishing never
///     shares that object either: each publish writes a v3 snapshot (with
///     its auto-recorded canary probe) and hands the *path* to
///     `ServingRouter::LoadSlot`, which rebuilds a fresh model, scores
///     the canary, and RCU-publishes it. The trainer thread calls
///     `LoadSlot` itself, so snapshot write and load are sequential on
///     one thread, and the swap inherits the router's zero-drop
///     guarantee: in-flight requests finish on the old version.
///   - **Rejection is survivable.** A canary rejection or snapshot I/O
///     failure counts `publish_rejected` and leaves the slot serving its
///     previous version; training continues and the next cadence retries.
///   - **Feedback without initial scores** (the wire frame carries none)
///     trains with position-derived scores: the served order is the best
///     available stand-in for the initial ranking.
///
/// The model passed in must already be fitted (or snapshot-loaded) — the
/// trainer only ever fine-tunes.
class OnlineTrainer {
 public:
  OnlineTrainer(const data::Dataset& data, serve::ServingRouter* router,
                FeedbackLog* log,
                std::unique_ptr<rerank::NeuralReranker> model,
                OnlineTrainerConfig config);
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  /// Spawns the trainer thread. Call at most once.
  void Start();

  /// Stops the loop and joins the thread. A final publish attempt flushes
  /// any rounds trained since the last one (skipped-counted when there
  /// are none). Idempotent; called by the destructor.
  void Stop();

  /// Trainer + feedback-log counters, merged into one `OnlineStats`.
  serve::OnlineStats Stats() const;

  /// Convenience: stamps `Stats()` onto `stats` and sets `has_online` —
  /// the shape `RouterStats` renders and the wire carries.
  void FillStats(serve::RouterStats* stats) const;

 private:
  void Loop();
  /// Runs one fine-tune round over `events`; returns lists consumed.
  size_t TrainRound(std::vector<FeedbackEvent>* events);
  /// Snapshot + canary-guarded LoadSlot. Returns true on an accepted
  /// publish.
  bool Publish();

  const data::Dataset& data_;
  serve::ServingRouter* router_;
  FeedbackLog* log_;
  std::unique_ptr<rerank::NeuralReranker> model_;
  const OnlineTrainerConfig config_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  /// The trainer's own OnlineStats fields (the log fills the feedback ones).
  serve::stats::LiveStats<serve::OnlineStats> counters_;
  /// Rounds trained since the last accepted publish (trainer thread only).
  int rounds_since_publish_ = 0;
};

}  // namespace rapid::online

#endif  // RAPID_ONLINE_TRAINER_H_
