// The benchmark's independent oracle: a plain point-to-point Dijkstra over
// D2DGraph::EdgesOf and the venue geometry, written here rather than
// borrowed from the library's DijkstraEngine, plus the checks every answer
// goes through.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "core/knn_query.h"
#include "graph/d2d_graph.h"
#include "model/venue.h"

namespace perfbench {

// The float distance matrices and edge weights make exact equality too
// strict: |a - b| may reach 1e-2 + 1e-4 * |d|.
double Tolerance(double d);
bool Near(double a, double b);

class Oracle {
 public:
  Oracle(const viptree::Venue& venue, const viptree::D2DGraph& graph);

  // Shortest distances from a point (seeded through the doors of its
  // partition) or from a door to every door.
  void FromPoint(const viptree::IndoorPoint& source);
  void FromDoor(viptree::DoorId source);

  // Distance from the current source to a door / to a point (through one
  // of the point's doors, or directly when it shares the source's
  // partition).
  double ToDoor(viptree::DoorId door) const { return dist_[door]; }
  double ToPoint(const viptree::IndoorPoint& target) const;

 private:
  void Run();

  const viptree::Venue& venue_;
  const viptree::D2DGraph& graph_;
  std::vector<double> dist_;
  bool from_point_ = false;
  viptree::IndoorPoint source_;
};

// A path answer: consecutive doors joined by a graph edge, the first door
// on the source's partition and the last on the target's, and the walk's
// length equal to the reported distance. Returns "" when it holds.
std::string CheckPath(const viptree::Venue& venue,
                      const viptree::D2DGraph& graph,
                      const viptree::IndoorPoint& s,
                      const viptree::IndoorPoint& t, double distance,
                      const std::vector<viptree::DoorId>& doors);

// Ascending distances, no repeated object, at most `k` answers / none
// beyond `radius`.
std::string CheckObjectsShape(const std::vector<viptree::ObjectResult>& got,
                              size_t k, double radius);

// The brute-force comparison of an object answer. `candidates[o]` holds
// every distance object o may have had while the query was in flight (one
// value when no move raced it). kNN: every answered distance is one of its
// object's candidates, and no unanswered object must have been closer than
// the k-th answer. Range: likewise against the radius.
std::string CheckKnnAgainst(
    const std::vector<viptree::ObjectResult>& got, size_t k,
    const std::vector<std::vector<double>>& candidates);
std::string CheckRangeAgainst(
    const std::vector<viptree::ObjectResult>& got, double radius,
    const std::vector<std::vector<double>>& candidates);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
