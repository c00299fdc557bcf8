// Range queries over indexed indoor objects (§3.4): every object within a
// given indoor network distance of the query point. Thin wrapper over the
// shared branch-and-bound traversal with dk fixed to the radius.

#ifndef VIPTREE_CORE_RANGE_QUERY_H_
#define VIPTREE_CORE_RANGE_QUERY_H_

#include "core/knn_query.h"

namespace viptree {

class RangeQuery {
 public:
  RangeQuery(const IPTree& tree, const ObjectIndex& objects,
             const DistanceQueryOptions& options = {});

  // Objects with dist(q, o) <= radius, ascending by distance.
  std::vector<ObjectResult> Range(const IndoorPoint& q, double radius,
                                  SearchStats* stats = nullptr) const;

 private:
  KnnQuery knn_;
};

}  // namespace viptree

#endif  // VIPTREE_CORE_RANGE_QUERY_H_
