#include "graph/dijkstra.h"

#include <algorithm>

#include "common/check.h"
#include "common/span.h"

namespace viptree {

DijkstraEngine::DijkstraEngine(const D2DGraph& graph)
    : graph_(graph),
      dist_(graph.NumVertices(), kInfDistance),
      parent_(graph.NumVertices(), kInvalidId),
      parent_via_(graph.NumVertices(), kInvalidId),
      settled_(graph.NumVertices(), 0),
      epoch_mark_(graph.NumVertices(), 0),
      target_mark_(graph.NumVertices(), 0) {}

void DijkstraEngine::Reach(DoorId d, double dist, DoorId parent,
                           PartitionId via) {
  if (epoch_mark_[d] != epoch_) {
    epoch_mark_[d] = epoch_;
    settled_[d] = 0;
    dist_[d] = kInfDistance;
  }
  if (dist < dist_[d]) {
    dist_[d] = dist;
    parent_[d] = parent;
    parent_via_[d] = via;
    heap_.emplace(dist, d);
  }
}

void DijkstraEngine::Seed(Span<const DijkstraSource> sources) {
  if (++epoch_ == 0) {  // wrapped: clear stale stamps once
    std::fill(epoch_mark_.begin(), epoch_mark_.end(), 0);
    epoch_ = 1;
  }
  settled_count_ = 0;
  // priority_queue has no clear(); rebuild it empty.
  heap_ = decltype(heap_)();
  for (const DijkstraSource& s : sources) {
    VIPTREE_DCHECK(s.door >= 0 &&
                   static_cast<size_t>(s.door) < graph_.NumVertices());
    Reach(s.door, s.offset, kInvalidId, kInvalidId);
  }
}

void DijkstraEngine::Start(Span<const DijkstraSource> sources) {
  partition_group_ = nullptr;
  Seed(sources);
}

void DijkstraEngine::StartRestricted(Span<const DijkstraSource> sources,
                                     Span<const int32_t> partition_group,
                                     int32_t group) {
  VIPTREE_DCHECK(!partition_group.empty());  // null data means unrestricted
  partition_group_ = partition_group.data();
  group_ = group;
  Seed(sources);
}

template <bool kRestricted>
SettledDoor DijkstraEngine::SettleNextImpl() {
  while (!heap_.empty()) {
    const auto [d, u] = heap_.top();
    heap_.pop();
    if (settled_[u] && epoch_mark_[u] == epoch_) continue;  // stale entry
    if (d > dist_[u]) continue;                             // stale entry
    settled_[u] = 1;
    ++settled_count_;
    for (const D2DEdge& e : graph_.EdgesOf(u)) {
      if constexpr (kRestricted) {
        if (partition_group_[e.via] != group_) continue;
      }
      if (epoch_mark_[e.to] == epoch_ && settled_[e.to]) continue;
      Reach(e.to, d + e.weight, u, e.via);
    }
    return SettledDoor{u, d};
  }
  return SettledDoor{kInvalidId, kInfDistance};
}

SettledDoor DijkstraEngine::SettleNext() {
  return partition_group_ != nullptr ? SettleNextImpl<true>()
                                     : SettleNextImpl<false>();
}

template <bool kRestricted>
void DijkstraEngine::RunToMarkedTargets(size_t wanted) {
  while (wanted > 0) {
    const DoorId u = SettleNextImpl<kRestricted>().door;
    if (u == kInvalidId) break;
    if (target_mark_[u] == target_epoch_) --wanted;
  }
}

size_t DijkstraEngine::RunToTargets(Span<const DoorId> targets) {
  if (++target_epoch_ == 0) {  // wrapped: clear stale stamps once
    std::fill(target_mark_.begin(), target_mark_.end(), 0);
    target_epoch_ = 1;
  }
  // Mark each distinct unsettled target; every settled door is settled
  // once, so it decrements `wanted` at most once.
  size_t wanted = 0;
  for (DoorId t : targets) {
    if (target_mark_[t] == target_epoch_ || Settled(t)) continue;
    target_mark_[t] = target_epoch_;
    ++wanted;
  }
  if (partition_group_ != nullptr) {
    RunToMarkedTargets<true>(wanted);
  } else {
    RunToMarkedTargets<false>(wanted);
  }
  size_t reached = 0;
  for (DoorId t : targets) reached += Settled(t) ? 1 : 0;
  return reached;
}

void DijkstraEngine::RunWithin(double radius) {
  while (!heap_.empty()) {
    if (heap_.top().first > radius) return;
    SettleNext();
  }
}

void DijkstraEngine::RunAll() {
  while (SettleNext().door != kInvalidId) {
  }
}

std::vector<DoorId> DijkstraEngine::PathTo(DoorId d) const {
  VIPTREE_CHECK(Settled(d));
  std::vector<DoorId> path;
  for (DoorId cur = d; cur != kInvalidId; cur = parent_[cur]) {
    path.push_back(cur);
    VIPTREE_DCHECK(path.size() <= graph_.NumVertices());
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace viptree
