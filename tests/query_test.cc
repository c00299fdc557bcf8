#include "core/distance_query.h"

#include <gtest/gtest.h>

#include "core/path_query.h"
#include "ground_truth.h"
#include "paper_example.h"
#include "synth/building_generator.h"
#include "synth/campus_generator.h"
#include "synth/objects.h"

namespace viptree {
namespace {

using testing::BruteDistance;
using testing::D;
using testing::MakePaperExample;
using testing::PointPathLength;

class PaperQueryTest : public ::testing::Test {
 protected:
  PaperQueryTest()
      : example_(MakePaperExample()),
        tree_(IPTree::Build(example_.venue, example_.graph,
                            {.min_degree = 2,
                             .forced_leaf_assignment =
                                 example_.leaf_assignment})),
        vip_(VIPTree::Build(example_.venue, example_.graph,
                            {.min_degree = 2,
                             .forced_leaf_assignment =
                                 example_.leaf_assignment})) {}

  testing::PaperExample example_;
  IPTree tree_;
  VIPTree vip_;
};

TEST_F(PaperQueryTest, Example4DistancesIp) {
  IPDistanceQuery query(tree_);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(1)), 2.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(7)), 11.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(10)), 13.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(20)), 23.0);
}

TEST_F(PaperQueryTest, Example4DistancesVip) {
  VIPDistanceQuery query(vip_);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(1)), 2.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(7)), 11.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(10)), 13.0);
  EXPECT_DOUBLE_EQ(query.DoorDistance(D(2), D(20)), 23.0);
}

TEST_F(PaperQueryTest, AllDoorPairsMatchDijkstra) {
  IPDistanceQuery ip(tree_);
  VIPDistanceQuery vip(vip_);
  DijkstraEngine engine(example_.graph);
  for (DoorId s = 0; s < 20; ++s) {
    engine.Start(s);
    engine.RunAll();
    for (DoorId t = 0; t < 20; ++t) {
      const double expected = engine.DistanceTo(t);
      EXPECT_NEAR(ip.DoorDistance(s, t), expected, 1e-4)
          << "IP d" << s + 1 << "->d" << t + 1;
      EXPECT_NEAR(vip.DoorDistance(s, t), expected, 1e-4)
          << "VIP d" << s + 1 << "->d" << t + 1;
    }
  }
}

TEST_F(PaperQueryTest, FullPathD1ToD20) {
  // §2.1.1: d1 -> d2 -> d3 -> d5 -> d6 -> d10 -> d15 -> d20.
  const std::vector<DoorId> expected = {D(1), D(2),  D(3),  D(5),
                                        D(6), D(10), D(15), D(20)};
  IPPathQuery ip(tree_);
  IndoorPath p = ip.DoorPath(D(1), D(20));
  EXPECT_DOUBLE_EQ(p.distance, 25.0);
  EXPECT_EQ(p.doors, expected);

  VIPPathQuery vip(vip_);
  IndoorPath pv = vip.DoorPath(D(1), D(20));
  EXPECT_DOUBLE_EQ(pv.distance, 25.0);
  EXPECT_EQ(pv.doors, expected);
}

TEST_F(PaperQueryTest, Example5DecompositionD2ToD6) {
  // Example 5: d2 -> d6 decomposes to d2 -> d3 -> d5 -> d6.
  IPPathQuery ip(tree_);
  const IndoorPath p = ip.DoorPath(D(2), D(6));
  EXPECT_DOUBLE_EQ(p.distance, 7.0);
  EXPECT_EQ(p.doors, (std::vector<DoorId>{D(2), D(3), D(5), D(6)}));
}

TEST_F(PaperQueryTest, AllDoorPairPathsAreConsistent) {
  IPPathQuery ip(tree_);
  VIPPathQuery vip(vip_);
  for (DoorId s = 0; s < 20; ++s) {
    for (DoorId t = 0; t < 20; ++t) {
      const IndoorPath a = ip.DoorPath(s, t);
      const IndoorPath b = vip.DoorPath(s, t);
      EXPECT_NEAR(a.distance, b.distance, 1e-4);
      // The door sequences must be walkable and sum to the distance.
      EXPECT_NEAR(testing::DoorPathLength(example_.graph, a.doors),
                  a.distance, 1e-4)
          << "IP path d" << s + 1 << "->d" << t + 1;
      EXPECT_NEAR(testing::DoorPathLength(example_.graph, b.doors),
                  b.distance, 1e-4)
          << "VIP path d" << s + 1 << "->d" << t + 1;
      ASSERT_FALSE(a.doors.empty());
      EXPECT_EQ(a.doors.front(), s);
      EXPECT_EQ(a.doors.back(), t);
    }
  }
}

// Regression for the LCA index lookups in the DoorDistance join loops:
// doors on leaf boundaries appear in the access-door lists of more than
// one leaf, and a bad index there used to read a wrong matrix row
// silently. Sweep every door pair of multi-leaf random venues through
// both engines against Dijkstra ground truth.
TEST(DoorDistanceTest, MultiLeafBoundaryDoorDistances) {
  // Seeds chosen for small multi-leaf venues (2-4 leaves, ~20 doors), so
  // the all-pairs sweep is cheap but boundary doors genuinely span leaves.
  for (uint64_t seed : {10u, 21u}) {
    const Venue venue = testing::RandomSynthVenue(seed);
    const D2DGraph graph(venue);
    const IPTree tree = IPTree::Build(venue, graph, {.min_degree = 2});
    const VIPTree vip = VIPTree::Build(venue, graph, {.min_degree = 2});
    ASSERT_GT(tree.num_leaves(), 1u) << "seed " << seed;
    const IPDistanceQuery ip(tree);
    const VIPDistanceQuery vip_query(vip);
    DijkstraEngine dijkstra(graph);
    const DoorId num_doors = static_cast<DoorId>(venue.NumDoors());
    for (DoorId s = 0; s < num_doors; ++s) {
      dijkstra.Start(s);
      dijkstra.RunAll();
      for (DoorId t = 0; t < num_doors; ++t) {
        const double expected = dijkstra.DistanceTo(t);
        EXPECT_NEAR(ip.DoorDistance(s, t), expected, 1e-4)
            << "IP seed " << seed << " " << s << "->" << t;
        EXPECT_NEAR(vip_query.DoorDistance(s, t), expected, 1e-4)
            << "VIP seed " << seed << " " << s << "->" << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property tests on generated venues.
// ---------------------------------------------------------------------------

struct VenueCase {
  const char* name;
  Venue venue;
};

class PropertyTest : public ::testing::TestWithParam<int> {};

Venue MakeVenueForCase(int which) {
  switch (which) {
    case 0: {
      synth::BuildingConfig cfg;
      cfg.floors = 3;
      cfg.rooms_per_floor = 18;
      cfg.staircases = 2;
      cfg.lifts = 1;
      cfg.extra_corridor_door_prob = 0.2;
      cfg.inter_room_door_prob = 0.25;
      return synth::GenerateStandaloneBuilding(cfg, 101);
    }
    case 1: {
      synth::BuildingConfig cfg;
      cfg.floors = 5;
      cfg.rooms_per_floor = 30;
      cfg.corridors_per_floor = 2;
      cfg.staircases = 2;
      return synth::GenerateStandaloneBuilding(cfg, 102);
    }
    default:
      return synth::GenerateCampus(synth::MixedCampusConfig(4, 0.15, 103));
  }
}

TEST_P(PropertyTest, DistancesMatchBruteForce) {
  const Venue venue = MakeVenueForCase(GetParam());
  const D2DGraph graph(venue);
  const IPTree tree = IPTree::Build(venue, graph);
  VIPTree vip = VIPTree::Build(venue, graph);
  IPDistanceQuery ip(tree);
  VIPDistanceQuery vipq(vip);
  IPDistanceQuery ip_all_doors(tree, {.use_superior_doors = false});

  Rng rng(500 + GetParam());
  const auto pairs = synth::RandomPointPairs(venue, 60, rng);
  for (const auto& [s, t] : pairs) {
    const double expected = BruteDistance(venue, graph, s, t);
    EXPECT_NEAR(ip.Distance(s, t), expected, 1e-3 + expected * 1e-5);
    EXPECT_NEAR(vipq.Distance(s, t), expected, 1e-3 + expected * 1e-5);
    // The superior-door lemma: restricting to superior doors is lossless.
    EXPECT_NEAR(ip_all_doors.Distance(s, t), expected,
                1e-3 + expected * 1e-5);
  }
}

TEST_P(PropertyTest, PathsMatchDistances) {
  const Venue venue = MakeVenueForCase(GetParam());
  const D2DGraph graph(venue);
  const IPTree tree = IPTree::Build(venue, graph);
  VIPTree vip = VIPTree::Build(venue, graph);
  IPPathQuery ip(tree);
  VIPPathQuery vipq(vip);

  Rng rng(600 + GetParam());
  const auto pairs = synth::RandomPointPairs(venue, 40, rng);
  for (const auto& [s, t] : pairs) {
    const double expected = BruteDistance(venue, graph, s, t);
    const IndoorPath a = ip.Path(s, t);
    const IndoorPath b = vipq.Path(s, t);
    EXPECT_NEAR(a.distance, expected, 1e-3 + expected * 1e-5);
    EXPECT_NEAR(b.distance, expected, 1e-3 + expected * 1e-5);
    EXPECT_NEAR(PointPathLength(venue, graph, s, t, a.doors), expected,
                1e-3 + expected * 1e-4);
    EXPECT_NEAR(PointPathLength(venue, graph, s, t, b.doors), expected,
                1e-3 + expected * 1e-4);
  }
}

TEST_P(PropertyTest, GetDistancesMonotoneUpTheChain) {
  // dist(s, AD(parent)) can never be smaller than the minimum distance to
  // the child's access doors (paths must cross the child's boundary).
  const Venue venue = MakeVenueForCase(GetParam());
  const D2DGraph graph(venue);
  const IPTree tree = IPTree::Build(venue, graph);
  IPDistanceQuery ip(tree);
  Rng rng(700 + GetParam());
  for (int i = 0; i < 10; ++i) {
    const IndoorPoint s = synth::RandomIndoorPoint(venue, rng);
    const AscentDistances ascent =
        ip.GetDistances(QuerySource::Point(s), tree.root());
    for (size_t level = 1; level < ascent.chain.size(); ++level) {
      double prev_min = kInfDistance;
      for (double d : ascent.ad_dist[level - 1]) {
        prev_min = std::min(prev_min, d);
      }
      for (double d : ascent.ad_dist[level]) {
        EXPECT_GE(d, prev_min - 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Venues, PropertyTest, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("DenseBuilding");
                             case 1:
                               return std::string("TwoCorridorTower");
                             default:
                               return std::string("SmallCampus");
                           }
                         });

}  // namespace
}  // namespace viptree
