// Reusable Dijkstra engine over the D2D graph.
//
// One engine instance owns distance / parent / epoch arrays sized to the
// graph, so repeated queries (index construction issues one search per
// access door; DistAw issues one per query) cost O(visited) instead of
// O(|V|) re-initialization. The engine exposes an incremental interface --
// Start() then SettleNext() -- because the DistAw kNN/range algorithms need
// to examine doors in increasing distance order and stop early.
//
// StartRestricted() begins a search confined to the edges through one group
// of partitions (the same-leaf queries of core/ pass the tree's
// partition -> leaf array and a leaf), so it settles only that group's
// doors. Its edge loop is a separate template instantiation: the
// unrestricted loop that index construction runs carries no extra branch.
//
// Not thread-safe; use one engine per thread.

#ifndef VIPTREE_GRAPH_DIJKSTRA_H_
#define VIPTREE_GRAPH_DIJKSTRA_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "graph/d2d_graph.h"
#include "model/types.h"
#include "common/span.h"

namespace viptree {

// A source door with an initial distance offset (multi-source searches from
// a query point seed every door of its partition with the intra-partition
// walking distance).
struct DijkstraSource {
  DoorId door = kInvalidId;
  double offset = 0.0;
};

struct SettledDoor {
  DoorId door = kInvalidId;
  double distance = 0.0;
};

class DijkstraEngine {
 public:
  // The graph must outlive the engine.
  explicit DijkstraEngine(const D2DGraph& graph);

  DijkstraEngine(const DijkstraEngine&) = delete;
  DijkstraEngine& operator=(const DijkstraEngine&) = delete;
  // Movable so the query engines holding Dijkstra scratch can themselves be
  // moved into owning containers (engine::VenueBundle).
  DijkstraEngine(DijkstraEngine&&) = default;

  // Begins a new search from the given sources, invalidating all state from
  // the previous search.
  void Start(Span<const DijkstraSource> sources);
  void Start(DoorId source) {
    const DijkstraSource s{source, 0.0};
    Start(Span<const DijkstraSource>(&s, 1));
  }

  // Like Start, but the search only walks edges whose `via` partition p has
  // partition_group[p] == group, i.e. shortest routes that stay inside the
  // group. `partition_group` (one entry per partition of the graph's venue)
  // must outlive the search.
  void StartRestricted(Span<const DijkstraSource> sources,
                       Span<const int32_t> partition_group, int32_t group);

  // Settles and returns the next-closest door, or a door with
  // id == kInvalidId when the reachable space is exhausted.
  SettledDoor SettleNext();

  // Runs until all doors in `targets` are settled (or the graph is
  // exhausted). Returns the number of targets actually reached (a target
  // listed twice counts twice).
  size_t RunToTargets(Span<const DoorId> targets);

  // Runs until the next door to settle is farther than `radius`.
  void RunWithin(double radius);

  // Runs the search to completion.
  void RunAll();

  // Accessors for the current search. Distance is kInfDistance for doors
  // not yet settled (or unreachable).
  bool Settled(DoorId d) const {
    return epoch_mark_[d] == epoch_ && settled_[d];
  }
  double DistanceTo(DoorId d) const {
    return Settled(d) ? dist_[d] : kInfDistance;
  }
  // Predecessor door on the shortest path from the nearest source
  // (kInvalidId for source doors), and the partition the final edge
  // traverses.
  DoorId ParentOf(DoorId d) const { return Settled(d) ? parent_[d] : kInvalidId; }
  PartitionId ParentVia(DoorId d) const {
    return Settled(d) ? parent_via_[d] : kInvalidId;
  }

  // Reconstructs the door sequence from the source to `d` (source door
  // first, `d` last). `d` must be settled.
  std::vector<DoorId> PathTo(DoorId d) const;

  size_t NumSettledInSearch() const { return settled_count_; }

 private:
  void Reach(DoorId d, double dist, DoorId parent, PartitionId via);
  void Seed(Span<const DijkstraSource> sources);
  template <bool kRestricted>
  SettledDoor SettleNextImpl();
  template <bool kRestricted>
  void RunToMarkedTargets(size_t wanted);

  const D2DGraph& graph_;
  std::vector<double> dist_;
  std::vector<DoorId> parent_;
  std::vector<PartitionId> parent_via_;
  std::vector<uint8_t> settled_;
  std::vector<uint32_t> epoch_mark_;
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;
  // RunToTargets' target set, stamped per call so membership is O(1).
  std::vector<uint32_t> target_mark_;
  uint32_t target_epoch_ = 0;
  // The StartRestricted filter; partition_group_ == nullptr for a full
  // search.
  const int32_t* partition_group_ = nullptr;
  int32_t group_ = kInvalidId;

  using HeapEntry = std::pair<double, DoorId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap_;
};

}  // namespace viptree

#endif  // VIPTREE_GRAPH_DIJKSTRA_H_
