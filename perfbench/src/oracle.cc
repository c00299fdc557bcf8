#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace perfbench {

using viptree::D2DEdge;
using viptree::DoorId;
using viptree::IndoorPoint;
using viptree::kInfDistance;
using viptree::ObjectId;
using viptree::ObjectResult;

namespace {

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

double Tolerance(double d) { return 1e-2 + 1e-4 * std::fabs(d); }

bool Near(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::fabs(a - b) <= Tolerance(std::max(std::fabs(a), std::fabs(b)));
}

Oracle::Oracle(const viptree::Venue& venue, const viptree::D2DGraph& graph)
    : venue_(venue), graph_(graph), dist_(graph.NumVertices(), kInfDistance) {}

void Oracle::FromPoint(const IndoorPoint& source) {
  std::fill(dist_.begin(), dist_.end(), kInfDistance);
  for (const DoorId d : venue_.DoorsOf(source.partition)) {
    dist_[d] = std::min(dist_[d], venue_.DistanceToDoor(source, d));
  }
  from_point_ = true;
  source_ = source;
  Run();
}

void Oracle::FromDoor(DoorId source) {
  std::fill(dist_.begin(), dist_.end(), kInfDistance);
  dist_[source] = 0.0;
  from_point_ = false;
  Run();
}

void Oracle::Run() {
  using Entry = std::pair<double, DoorId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (size_t d = 0; d < dist_.size(); ++d) {
    if (dist_[d] < kInfDistance) heap.push({dist_[d], static_cast<DoorId>(d)});
  }
  while (!heap.empty()) {
    const auto [du, u] = heap.top();
    heap.pop();
    if (du > dist_[u]) continue;
    for (const D2DEdge& e : graph_.EdgesOf(u)) {
      const double dv = du + static_cast<double>(e.weight);
      if (dv < dist_[e.to]) {
        dist_[e.to] = dv;
        heap.push({dv, e.to});
      }
    }
  }
}

double Oracle::ToPoint(const IndoorPoint& target) const {
  double best = kInfDistance;
  if (from_point_ && source_.partition == target.partition) {
    best = venue_.IntraPartitionDistance(target.partition, source_.position,
                                         target.position);
  }
  for (const DoorId d : venue_.DoorsOf(target.partition)) {
    if (dist_[d] == kInfDistance) continue;
    best = std::min(best, dist_[d] + venue_.DistanceToDoor(target, d));
  }
  return best;
}

std::string CheckPath(const viptree::Venue& venue,
                      const viptree::D2DGraph& graph, const IndoorPoint& s,
                      const IndoorPoint& t, double distance,
                      const std::vector<DoorId>& doors) {
  if (doors.empty()) {
    if (s.partition != t.partition) {
      return "empty door sequence between different partitions";
    }
    const double direct =
        venue.IntraPartitionDistance(s.partition, s.position, t.position);
    if (!Near(direct, distance)) {
      return Format("direct path %.6f vs reported %.6f", direct, distance);
    }
    return "";
  }
  for (const DoorId d : doors) {
    if (d < 0 || static_cast<size_t>(d) >= venue.NumDoors()) {
      return "door id out of range";
    }
  }
  if (!venue.DoorTouches(doors.front(), s.partition)) {
    return "first door is not on the source partition";
  }
  if (!venue.DoorTouches(doors.back(), t.partition)) {
    return "last door is not on the target partition";
  }
  double length = venue.DistanceToDoor(s, doors.front()) +
                  venue.DistanceToDoor(t, doors.back());
  for (size_t i = 0; i + 1 < doors.size(); ++i) {
    double step = kInfDistance;
    for (const D2DEdge& e : graph.EdgesOf(doors[i])) {
      if (e.to == doors[i + 1]) step = std::min(step, double{e.weight});
    }
    if (step == kInfDistance) return "consecutive doors are not connected";
    length += step;
  }
  if (!Near(length, distance)) {
    return Format("path length %.6f vs reported %.6f", length, distance);
  }
  return "";
}

std::string CheckObjectsShape(const std::vector<ObjectResult>& got, size_t k,
                              double radius) {
  if (got.size() > k) return "more answers than k";
  std::vector<ObjectId> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && got[i].distance < got[i - 1].distance) {
      return "answers not ascending by distance";
    }
    if (got[i].distance > radius + Tolerance(radius)) {
      return Format("answer at %.6f beyond radius %.6f", got[i].distance,
                    radius);
    }
    ids.push_back(got[i].object);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "object answered twice";
  }
  return "";
}

namespace {

// Every answered distance must be one its object may have had.
std::string CheckAnswered(const std::vector<ObjectResult>& got,
                          const std::vector<std::vector<double>>& candidates,
                          std::vector<char>* answered) {
  answered->assign(candidates.size(), 0);
  for (const ObjectResult& r : got) {
    if (r.object < 0 || static_cast<size_t>(r.object) >= candidates.size()) {
      return "answered object id out of range";
    }
    (*answered)[r.object] = 1;
    bool match = false;
    for (const double c : candidates[r.object]) match = match || Near(c, r.distance);
    if (!match) {
      return Format("object distance %.6f matches no recorded position "
                    "(first candidate %.6f)",
                    r.distance, candidates[r.object].front());
    }
  }
  return "";
}

double Farthest(const std::vector<double>& c) {
  return *std::max_element(c.begin(), c.end());
}

}  // namespace

std::string CheckKnnAgainst(
    const std::vector<ObjectResult>& got, size_t k,
    const std::vector<std::vector<double>>& candidates) {
  std::vector<char> answered;
  if (std::string e = CheckAnswered(got, candidates, &answered); !e.empty()) {
    return e;
  }
  const size_t want = std::min(k, candidates.size());
  if (got.size() != want) return "kNN answered fewer than k objects";
  const double kth = got.empty() ? kInfDistance : got.back().distance;
  for (size_t o = 0; o < candidates.size(); ++o) {
    if (answered[o]) continue;
    const double far = Farthest(candidates[o]);
    if (far < kth - Tolerance(kth)) {
      return Format("unanswered object at %.6f is nearer than the k-th "
                    "answer %.6f",
                    far, kth);
    }
  }
  return "";
}

std::string CheckRangeAgainst(
    const std::vector<ObjectResult>& got, double radius,
    const std::vector<std::vector<double>>& candidates) {
  std::vector<char> answered;
  if (std::string e = CheckAnswered(got, candidates, &answered); !e.empty()) {
    return e;
  }
  for (size_t o = 0; o < candidates.size(); ++o) {
    if (answered[o]) continue;
    const double far = Farthest(candidates[o]);
    if (far < radius - Tolerance(radius)) {
      return Format("unanswered object at %.6f lies within radius %.6f", far,
                    radius);
    }
  }
  return "";
}

}  // namespace perfbench
