#include "serve/admission.h"

#include <algorithm>

namespace rapid::serve {

AdmissionController::AdmissionController(const AdmissionConfig& config,
                                         int queue_capacity)
    : config_(config) {
  const size_t capacity = static_cast<size_t>(std::max(queue_capacity, 1));
  auto resolve = [capacity](int mark) {
    return mark <= 0 ? capacity
                     : std::min(static_cast<size_t>(mark), capacity);
  };
  low_mark_ = resolve(config_.low_lane_watermark);
  // The high lane never sheds before the low lane: a high watermark below
  // the low one would invert the priority order.
  high_mark_ = std::max(resolve(config_.high_lane_watermark), low_mark_);
  for (const auto& [slot, limit] : config_.slot_quotas) {
    auto quota = std::make_unique<SlotQuota>();
    quota->limit = std::max(limit, 1);
    quotas_[slot] = std::move(quota);
  }
}

bool AdmissionController::Admit(Lane lane, size_t depth) const {
  if (config_.policy == AdmissionPolicy::kBlock) return true;
  return depth < watermark(lane);
}

bool AdmissionController::TryChargeSlot(const std::string& slot) {
  if (quotas_.empty()) return true;
  const auto it = quotas_.find(slot);
  if (it == quotas_.end()) return true;
  SlotQuota& quota = *it->second;
  // Optimistic increment with a rollback on overshoot: two racing
  // submitters can momentarily read depth == limit, but the count never
  // stays above the limit and no admitted request is lost.
  if (quota.depth.fetch_add(1, std::memory_order_relaxed) >= quota.limit) {
    quota.depth.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void AdmissionController::ReleaseSlot(const std::string& slot) {
  if (quotas_.empty()) return;
  const auto it = quotas_.find(slot);
  if (it != quotas_.end()) {
    it->second->depth.fetch_sub(1, std::memory_order_relaxed);
  }
}

int AdmissionController::SlotDepth(const std::string& slot) const {
  const auto it = quotas_.find(slot);
  return it == quotas_.end()
             ? 0
             : it->second->depth.load(std::memory_order_relaxed);
}

}  // namespace rapid::serve
