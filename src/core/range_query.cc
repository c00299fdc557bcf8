#include "core/range_query.h"

namespace viptree {

RangeQuery::RangeQuery(const IPTree& tree, const ObjectIndex& objects,
                       const DistanceQueryOptions& options)
    : knn_(tree, objects, options) {}

std::vector<ObjectResult> RangeQuery::Range(const IndoorPoint& q,
                                            double radius,
                                            SearchStats* stats) const {
  return knn_.WithinRange(q, radius, stats);
}

}  // namespace viptree
