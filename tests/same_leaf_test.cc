// Same-leaf queries on hand-built venues where the two halves of the exact
// same-leaf answer each decide it: a shortest route that leaves the leaf and
// comes back (only the access-door term finds it), and a route inside the
// leaf that beats every access-door route (only the leaf-restricted search
// finds it). Every answer is checked against a full-graph Dijkstra.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/distance_query.h"
#include "core/knn_query.h"
#include "core/range_query.h"
#include "core/vip_tree.h"
#include "ground_truth.h"
#include "model/venue_builder.h"

namespace viptree {
namespace {

double Tolerance(double reference) {
  return 1e-2 + std::abs(reference) * 1e-4;
}

// Two long rooms A (y in [0, 2]) and B (y in [2, 4]), x in [0, 10], form
// leaf 0 and share one door at x = ab_door_x. Both open onto corridor C
// (x in [-2, 0], leaf 1) near x = 0, and C opens onto room E (leaf 2).
// A small room D below A (leaf 0) gives the leaf a second door that is not
// an access door, so door pairs need the leaf-restricted search too.
//
//   ab_door_x = 10: q = (1, 1) in A to t = (1, 3) in B is 4 through C
//                   (q -> dAC -> dBC -> t) and ~18.1 inside the leaf.
//   ab_door_x = 1:  the same pair is 2 through dAB, inside the leaf, and
//                   still 4 through C.
struct TwoRoomEnv {
  static constexpr PartitionId kA = 0, kB = 1, kC = 2, kE = 3, kD = 4;
  static constexpr DoorId kAB = 0, kBC = 2;  // ids in MakeVenue order
  Venue venue;
  D2DGraph graph;
  VIPTree vip;

  explicit TwoRoomEnv(double ab_door_x)
      : venue(MakeVenue(ab_door_x)),
        graph(venue),
        vip(VIPTree::Build(venue, graph,
                           {.min_degree = 2,
                            .forced_leaf_assignment =
                                std::vector<int>{0, 0, 1, 2, 0}})) {}

  const IPTree& tree() const { return vip.base(); }

  static Venue MakeVenue(double ab_door_x) {
    VenueBuilder builder;
    builder.AddPartition(0, PartitionUse::kRoom, Point{5, 1, 0}, "A");
    builder.AddPartition(0, PartitionUse::kRoom, Point{5, 3, 0}, "B");
    builder.AddPartition(0, PartitionUse::kCorridor, Point{-1, 2, 0}, "C");
    builder.AddPartition(0, PartitionUse::kRoom, Point{-3, 2, 0}, "E");
    builder.AddPartition(0, PartitionUse::kRoom, Point{5, -1, 0}, "D");
    builder.AddDoor(kA, kB, Point{ab_door_x, 2, 0});  // door 0: dAB
    builder.AddDoor(kA, kC, Point{0, 1, 0});          // door 1: dAC
    builder.AddDoor(kB, kC, Point{0, 3, 0});          // door 2: dBC
    builder.AddDoor(kC, kE, Point{-2, 2, 0});         // door 3: dCE
    builder.AddExteriorDoor(kE, Point{-4, 2, 0});     // door 4
    builder.AddDoor(kA, kD, Point{5, 0, 0});          // door 5: dAD
    return std::move(builder).Build();
  }
};

IndoorPoint At(PartitionId p, double x, double y) {
  return IndoorPoint{p, Point{x, y, 0}};
}

// Points of leaf 0 at both ends of both rooms and in D, plus one in C and
// one in E.
std::vector<IndoorPoint> SamplePoints() {
  return {At(TwoRoomEnv::kA, 1, 1),     At(TwoRoomEnv::kB, 1, 3),
          At(TwoRoomEnv::kA, 9, 1),     At(TwoRoomEnv::kB, 9, 3),
          At(TwoRoomEnv::kA, 5, 0.5),   At(TwoRoomEnv::kB, 0.5, 3.5),
          At(TwoRoomEnv::kA, 0.2, 1.8), At(TwoRoomEnv::kB, 7, 2.5),
          At(TwoRoomEnv::kD, 4, -1),    At(TwoRoomEnv::kC, -1, 2),
          At(TwoRoomEnv::kE, -3, 2)};
}

class SameLeafTest : public ::testing::TestWithParam<double> {};

TEST_P(SameLeafTest, WorkedPairNeedsTheExpectedTerm) {
  const TwoRoomEnv env(GetParam());
  const IndoorPoint q = At(TwoRoomEnv::kA, 1, 1);
  const IndoorPoint t = At(TwoRoomEnv::kB, 1, 3);
  ASSERT_EQ(env.tree().LeafOfPartition(q.partition),
            env.tree().LeafOfPartition(t.partition));
  const double expected = GetParam() > 5 ? 4.0 : 2.0;
  ASSERT_NEAR(testing::BruteDistance(env.venue, env.graph, q, t), expected,
              1e-9);

  // The leaf term alone (a search restricted to leaf 0) and the access-door
  // term alone (through dAC or dBC, the leaf's access doors on this pair's
  // side) — exactly one of them attains the answer.
  DijkstraEngine engine(env.graph);
  std::vector<DijkstraSource> sources;
  for (DoorId u : env.venue.DoorsOf(q.partition)) {
    sources.push_back({u, env.venue.DistanceToDoor(q, u)});
  }
  const NodeId leaf = env.tree().LeafOfPartition(q.partition);
  engine.StartRestricted(sources, env.tree().PartitionLeaves(), leaf);
  engine.RunAll();
  const double leaf_only = std::min(
      engine.DistanceTo(TwoRoomEnv::kAB) +
          env.venue.DistanceToDoor(t, TwoRoomEnv::kAB),
      engine.DistanceTo(TwoRoomEnv::kBC) +
          env.venue.DistanceToDoor(t, TwoRoomEnv::kBC));
  if (GetParam() > 5) {
    EXPECT_GT(leaf_only, expected + 1.0) << "the route must leave the leaf";
  } else {
    EXPECT_NEAR(leaf_only, expected, 1e-9) << "the route stays in the leaf";
  }

  IPDistanceQuery ip(env.tree());
  VIPDistanceQuery vip(env.vip);
  EXPECT_NEAR(ip.Distance(q, t), expected, Tolerance(expected));
  EXPECT_NEAR(vip.Distance(q, t), expected, Tolerance(expected));
  EXPECT_NEAR(ip.Distance(t, q), expected, Tolerance(expected));
}

TEST_P(SameLeafTest, DistancesMatchBruteForce) {
  const TwoRoomEnv env(GetParam());
  IPDistanceQuery ip(env.tree());
  VIPDistanceQuery vip(env.vip);
  const std::vector<IndoorPoint> points = SamplePoints();
  for (const IndoorPoint& s : points) {
    for (const IndoorPoint& t : points) {
      const double expected =
          testing::BruteDistance(env.venue, env.graph, s, t);
      EXPECT_NEAR(ip.Distance(s, t), expected, Tolerance(expected));
      EXPECT_NEAR(vip.Distance(s, t), expected, Tolerance(expected));
    }
  }
}

TEST_P(SameLeafTest, LocalDistanceMultiMatchesBruteForceAndSingleCalls) {
  const TwoRoomEnv env(GetParam());
  IPDistanceQuery ip(env.tree());
  const NodeId leaf = env.tree().LeafOfPartition(TwoRoomEnv::kA);
  std::vector<IndoorPoint> leaf_points;
  for (const IndoorPoint& p : SamplePoints()) {
    if (env.tree().LeafOfPartition(p.partition) == leaf) {
      leaf_points.push_back(p);
    }
  }
  ASSERT_EQ(leaf_points.size(), 9u);
  for (const IndoorPoint& s : leaf_points) {
    std::vector<double> out(leaf_points.size(), -1.0);
    ip.LocalDistanceMulti(
        s, Span<const IndoorPoint>(leaf_points.data(), leaf_points.size()),
        out.data());
    for (size_t k = 0; k < leaf_points.size(); ++k) {
      const double expected =
          testing::BruteDistance(env.venue, env.graph, s, leaf_points[k]);
      EXPECT_NEAR(out[k], expected, Tolerance(expected));
      EXPECT_EQ(out[k], ip.LocalDistance(s, leaf_points[k]));
    }
  }
}

TEST_P(SameLeafTest, DoorDistancesMatchBruteForce) {
  const TwoRoomEnv env(GetParam());
  IPDistanceQuery ip(env.tree());
  VIPDistanceQuery vip(env.vip);
  DijkstraEngine engine(env.graph);
  const DoorId num_doors = static_cast<DoorId>(env.venue.NumDoors());
  for (DoorId s = 0; s < num_doors; ++s) {
    engine.Start(s);
    engine.RunAll();
    for (DoorId t = 0; t < num_doors; ++t) {
      const double expected = engine.DistanceTo(t);
      EXPECT_NEAR(ip.DoorDistance(s, t), expected, Tolerance(expected))
          << s << " -> " << t;
      EXPECT_NEAR(vip.DoorDistance(s, t), expected, Tolerance(expected))
          << s << " -> " << t;
    }
  }
}

TEST_P(SameLeafTest, KnnAndRangeMatchBruteForce) {
  const TwoRoomEnv env(GetParam());
  const std::vector<IndoorPoint> objects = SamplePoints();
  ObjectIndex index(env.tree(), objects);
  KnnQuery knn(env.tree(), index);
  RangeQuery range(env.tree(), index);
  for (const IndoorPoint& q : SamplePoints()) {
    const auto all = testing::BruteAllObjectDistances(env.venue, env.graph, q,
                                                      objects);
    for (size_t k : {1u, 3u, 6u, 11u}) {
      const std::vector<ObjectResult> got = knn.Knn(q, k);
      ASSERT_EQ(got.size(), std::min(k, objects.size()));
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_NEAR(got[j].distance, all[j].distance,
                    Tolerance(all[j].distance))
            << "k=" << k << " j=" << j;
      }
    }
    for (double radius : {3.0, 5.0, 12.0, 30.0}) {
      size_t expected_count = 0;
      for (const auto& e : all) expected_count += e.distance <= radius;
      const std::vector<ObjectResult> got = range.Range(q, radius);
      EXPECT_EQ(got.size(), expected_count) << "radius=" << radius;
      for (const ObjectResult& r : got) {
        const double expected = testing::BruteDistance(env.venue, env.graph,
                                                       q, objects[r.object]);
        EXPECT_NEAR(r.distance, expected, Tolerance(expected));
      }
    }
  }
}

// Far door: the worked pair's route leaves the leaf; near door: it stays.
INSTANTIATE_TEST_SUITE_P(AbDoor, SameLeafTest, ::testing::Values(10.0, 1.0));

}  // namespace
}  // namespace viptree
