#ifndef RAPID_SERVE_REQUEST_QUEUE_H_
#define RAPID_SERVE_REQUEST_QUEUE_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/admission.h"

namespace rapid::serve {

/// A bounded multi-producer/multi-consumer queue with micro-batch pops and
/// priority lanes.
///
/// The queue holds `kNumLanes` FIFO lanes sharing one capacity; lane 0 is
/// the highest priority. `PopBatch` normally drains the highest-priority
/// non-empty lane, but the drain is starvation-free: after
/// `bursts_per_yield` consecutive pops that bypassed a waiting
/// lower-priority item, one item from the next non-empty lower lane is
/// served before priority resumes.
///
/// Producers choose between three admission styles:
///  - `Push`       blocks while the queue is full (backpressure);
///  - `TryPush`    never blocks — reports `kFull` so the caller can shed;
///  - `PushUntil`  blocks at most until a deadline (a request never waits
///                 in admission longer than it could still be served).
/// On any failure the item is left untouched so the caller can still
/// dispose of or serve it.
///
/// Consumers call `PopBatch`, which blocks until at least one item is
/// available, then keeps collecting until the batch is full or the batching
/// window has elapsed — the micro-batching primitive of the serving tier.
/// `Close` wakes everyone: producers fail fast, consumers drain what is
/// left and then see empty batches.
template <typename T>
class BoundedRequestQueue {
 public:
  /// Outcome of a non-blocking or deadline-bounded push.
  enum class PushResult { kOk, kFull, kClosed };

  explicit BoundedRequestQueue(size_t capacity, int bursts_per_yield = 4)
      : capacity_(capacity > 0 ? capacity : 1),
        bursts_per_yield_(bursts_per_yield > 0 ? bursts_per_yield : 1) {}

  BoundedRequestQueue(const BoundedRequestQueue&) = delete;
  BoundedRequestQueue& operator=(const BoundedRequestQueue&) = delete;

  /// Blocks while full. Returns false once closed, in which case `item` is
  /// left untouched so the caller can still dispose of or serve it.
  bool Push(T&& item, size_t lane = 0) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return count_ < capacity_ || closed_; });
    if (closed_) return false;
    Enqueue(std::move(item), lane);
    return true;
  }

  /// Never blocks: `kFull` when at capacity, `kClosed` after `Close`; the
  /// item is moved from only on `kOk`.
  PushResult TryPush(T&& item, size_t lane = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (count_ >= capacity_) return PushResult::kFull;
    Enqueue(std::move(item), lane);
    return PushResult::kOk;
  }

  /// Blocks while full, but only until `deadline`; `kFull` on timeout. The
  /// item is moved from only on `kOk`.
  PushResult PushUntil(T&& item, std::chrono::steady_clock::time_point deadline,
                       size_t lane = 0) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_full_.wait_until(lock, deadline, [this] {
          return count_ < capacity_ || closed_;
        })) {
      return PushResult::kFull;
    }
    if (closed_) return PushResult::kClosed;
    Enqueue(std::move(item), lane);
    return PushResult::kOk;
  }

  /// Pops up to `max_items` into `out` (appended), following the
  /// starvation-free priority drain. Blocks until the first item arrives;
  /// afterwards waits at most `max_wait` for the batch to fill. Returns the
  /// number popped — 0 only when the queue is closed and fully drained.
  size_t PopBatch(size_t max_items, std::chrono::microseconds max_wait,
                  std::vector<T>* out) {
    const size_t before = out->size();
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return count_ > 0 || closed_; });
    const auto deadline = std::chrono::steady_clock::now() + max_wait;
    for (;;) {
      while (count_ > 0 && out->size() - before < max_items) {
        std::deque<T>& lane = lanes_[PickLaneLocked()];
        out->push_back(std::move(lane.front()));
        lane.pop_front();
        --count_;
        not_full_.notify_one();
      }
      if (out->size() - before >= max_items || closed_ ||
          max_wait.count() <= 0) {
        break;
      }
      if (!not_empty_.wait_until(lock, deadline, [this] {
            return count_ > 0 || closed_;
          })) {
        break;  // Batching window elapsed.
      }
    }
    return out->size() - before;
  }

  /// Marks the queue closed and wakes all waiters. Idempotent.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Current total depth across lanes (racy by nature; used for gauges and
  /// admission watermarks).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  /// Current depth of one lane.
  size_t lane_size(size_t lane) const {
    std::lock_guard<std::mutex> lock(mu_);
    return lane < lanes_.size() ? lanes_[lane].size() : 0;
  }

 private:
  void Enqueue(T&& item, size_t lane) {
    lanes_[lane < lanes_.size() ? lane : lanes_.size() - 1].push_back(
        std::move(item));
    ++count_;
    not_empty_.notify_one();
  }

  /// The drain policy. Picks the highest-priority non-empty lane unless
  /// that choice has already bypassed waiting lower-priority work
  /// `bursts_per_yield_` times in a row, in which case the next non-empty
  /// lower lane is served once. Requires `count_ > 0`; caller holds `mu_`.
  size_t PickLaneLocked() {
    size_t top = 0;
    while (lanes_[top].empty()) ++top;
    size_t lower = top + 1;
    while (lower < lanes_.size() && lanes_[lower].empty()) ++lower;
    if (lower >= lanes_.size()) {  // Nothing waiting behind `top`.
      bypass_streak_ = 0;
      return top;
    }
    if (bypass_streak_ >= bursts_per_yield_) {
      bypass_streak_ = 0;
      return lower;
    }
    ++bypass_streak_;
    return top;
  }

  const size_t capacity_;
  const int bursts_per_yield_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::array<std::deque<T>, kNumLanes> lanes_;
  size_t count_ = 0;
  int bypass_streak_ = 0;
  bool closed_ = false;
};

}  // namespace rapid::serve

#endif  // RAPID_SERVE_REQUEST_QUEUE_H_
