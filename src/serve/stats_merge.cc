#include "serve/stats_merge.h"

#include <algorithm>

namespace rapid::serve {

void MergeInto(RouterStats* dst, const RouterStats& src) {
  MergeInto(&dst->total, src.total);
  MergeInto(&dst->cache, src.cache);
  MergeInto<RouterStats>(dst, src);  // The router's own declared counters.
  MergeInto(&dst->process, src.process);
  if (src.has_net) {
    MergeInto(&dst->net, src.net);
    dst->has_net = true;
  }
  if (src.has_online) {
    MergeInto(&dst->online, src.online);
    dst->has_online = true;
  }
  if (src.has_page) {
    MergeInto(&dst->page, src.page);
    dst->has_page = true;
  }
  for (const RouterStats::SlotEntry& slot : src.slots) {
    auto it = std::find_if(dst->slots.begin(), dst->slots.end(),
                           [&slot](const RouterStats::SlotEntry& entry) {
                             return entry.slot == slot.slot;
                           });
    if (it == dst->slots.end()) {
      dst->slots.push_back(slot);
      continue;
    }
    MergeInto(&it->stats, slot.stats);
    MergeInto(&it->cache, slot.cache);
    // Mid-rollout version skew: report the newest published version (the
    // one the fleet is converging to) rather than an arbitrary shard's.
    if (slot.version > it->version) {
      it->version = slot.version;
      it->model_name = slot.model_name;
    }
  }
  std::sort(dst->slots.begin(), dst->slots.end(),
            [](const RouterStats::SlotEntry& a,
               const RouterStats::SlotEntry& b) { return a.slot < b.slot; });
}

}  // namespace rapid::serve
