#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include "core/ip_tree.h"
#include "ground_truth.h"
#include "paper_example.h"
#include "common/span.h"

namespace viptree {
namespace {

using testing::D;
using testing::P;

class DijkstraPaperTest : public ::testing::Test {
 protected:
  DijkstraPaperTest() : example_(testing::MakePaperExample()) {}
  testing::PaperExample example_;
};

TEST_F(DijkstraPaperTest, DistancesMatchPaperWorkedValues) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(2));
  engine.RunAll();
  // Example 4 of the paper: distances from d2.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), 2.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(6)), 7.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(7)), 11.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(10)), 13.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 23.0);
}

TEST_F(DijkstraPaperTest, FullPathFromD1ToD20) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  const DoorId target = D(20);
  engine.RunToTargets(viptree::Span<const DoorId>(&target, 1));
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 25.0);
  // §2.1.1: "the shortest path from d1 to d20 is
  //   d1 -> d2 -> d3 -> d5 -> d6 -> d10 -> d15 -> d20".
  const std::vector<DoorId> expected = {D(1), D(2), D(3),  D(5),
                                        D(6), D(10), D(15), D(20)};
  EXPECT_EQ(engine.PathTo(D(20)), expected);
}

TEST_F(DijkstraPaperTest, EarlyTerminationSettlesFewerDoors) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  const std::vector<DoorId> targets = {D(2), D(3)};
  const size_t reached = engine.RunToTargets(targets);
  EXPECT_EQ(reached, 2u);
  EXPECT_LT(engine.NumSettledInSearch(), example_.graph.NumVertices());
}

TEST_F(DijkstraPaperTest, MultiSourceUsesOffsets) {
  // A query point 1.0 from d2 and 5.0 from d4 inside P1.
  DijkstraEngine engine(example_.graph);
  const std::vector<DijkstraSource> sources = {{D(2), 1.0}, {D(4), 5.0}};
  engine.Start(sources);
  engine.RunAll();
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(2)), 1.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(4)), 5.0);
  // d1 reached through d2: 1 + 2.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), 3.0);
  EXPECT_EQ(engine.ParentOf(D(2)), kInvalidId);  // a source
}

TEST_F(DijkstraPaperTest, EngineIsReusableAcrossSearches) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  engine.RunAll();
  const double first = engine.DistanceTo(D(20));

  engine.Start(D(20));
  engine.RunAll();
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), first);  // symmetric graph
  // Distances from the previous epoch must not leak.
  engine.Start(D(16));
  EXPECT_EQ(engine.DistanceTo(D(1)), kInfDistance);
  engine.RunAll();
  EXPECT_NE(engine.DistanceTo(D(1)), kInfDistance);
}

TEST_F(DijkstraPaperTest, SettleNextYieldsNondecreasingDistances) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(11));
  double last = 0.0;
  size_t count = 0;
  while (true) {
    const SettledDoor s = engine.SettleNext();
    if (s.door == kInvalidId) break;
    EXPECT_GE(s.distance, last);
    last = s.distance;
    ++count;
  }
  EXPECT_EQ(count, example_.graph.NumVertices());  // connected graph
}

TEST_F(DijkstraPaperTest, ParentViaReportsTraversedPartition) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(15));
  const DoorId target = D(20);
  engine.RunToTargets(viptree::Span<const DoorId>(&target, 1));
  // d15 -> d20 is a direct edge through P13.
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(20)), 4.0);
  EXPECT_EQ(engine.ParentOf(D(20)), D(15));
  EXPECT_EQ(engine.ParentVia(D(20)), testing::P(13));
}

TEST_F(DijkstraPaperTest, RunToTargetsStopsOnceEveryDistinctTargetSettles) {
  DijkstraEngine engine(example_.graph);
  engine.Start(D(1));
  // A target listed twice counts twice and does not keep the search going.
  const std::vector<DoorId> targets = {D(2), D(3), D(2)};
  EXPECT_EQ(engine.RunToTargets(targets), 3u);
  const size_t settled = engine.NumSettledInSearch();
  EXPECT_LT(settled, example_.graph.NumVertices());
  // Resuming with targets that are already settled settles nothing more.
  EXPECT_EQ(engine.RunToTargets(targets), 3u);
  EXPECT_EQ(engine.NumSettledInSearch(), settled);
}

// The same-leaf queries of core/ search one leaf only: from d2 in the
// paper's leaf N1 = {P1..P4}, a restricted search settles N1's doors and
// nothing else, and in-leaf routes keep their full-graph lengths.
TEST_F(DijkstraPaperTest, RestrictedSearchSettlesOnlyTheLeafsDoors) {
  const IPTree tree = IPTree::Build(
      example_.venue, example_.graph,
      {.min_degree = 2, .forced_leaf_assignment = example_.leaf_assignment});
  const NodeId n1 = tree.LeafOfPartition(P(1));
  const TreeNode& leaf = tree.node(n1);
  DijkstraEngine engine(example_.graph);
  const DijkstraSource source{D(2), 0.0};
  engine.StartRestricted(Span<const DijkstraSource>(&source, 1),
                         tree.PartitionLeaves(), n1);
  engine.RunAll();
  EXPECT_LE(engine.NumSettledInSearch(), leaf.doors.size());
  for (DoorId d = 0; d < static_cast<DoorId>(example_.graph.NumVertices());
       ++d) {
    if (engine.Settled(d)) {
      EXPECT_GE(IPTree::IndexOf(leaf.doors, d), 0) << "door d" << d + 1;
    }
  }
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(1)), 2.0);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(6)), 7.0);  // d2 -> d3 -> d5 -> d6
  EXPECT_EQ(engine.ParentVia(D(6)), P(4));
  EXPECT_FALSE(engine.Settled(D(7)));  // only reachable through P5 (N2)

  // RunToTargets resumes the restricted search: a target outside the leaf
  // stays unreached and the search stays inside the leaf.
  engine.StartRestricted(Span<const DijkstraSource>(&source, 1),
                         tree.PartitionLeaves(), n1);
  const std::vector<DoorId> targets = {D(5), D(10)};
  EXPECT_EQ(engine.RunToTargets(targets), 1u);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(D(5)), 5.0);
  EXPECT_LE(engine.NumSettledInSearch(), leaf.doors.size());
}

// Unrestricted searches are untouched by the restricted variant: a search
// restricted to a group holding every partition walks every edge and
// reproduces Start's settle order, distances and parents bit for bit, and
// Start after a restricted search drops the filter.
TEST(DijkstraTest, UnrestrictedSearchIsBitIdenticalToFullRestriction) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    const Venue venue = testing::RandomSynthVenue(seed);
    const D2DGraph graph(venue);
    const std::vector<int32_t> one_group(venue.NumPartitions(), 0);
    DijkstraEngine full(graph);
    DijkstraEngine reused(graph);
    for (DoorId s = 0; s < static_cast<DoorId>(graph.NumVertices());
         s += 7) {
      const DijkstraSource source{s, 0.5};
      full.Start(Span<const DijkstraSource>(&source, 1));
      // A leftover restricted search to a group no partition is in.
      reused.StartRestricted(Span<const DijkstraSource>(&source, 1),
                             one_group, 1);
      reused.RunAll();
      ASSERT_EQ(reused.NumSettledInSearch(), 1u);
      DijkstraEngine restricted(graph);
      restricted.StartRestricted(Span<const DijkstraSource>(&source, 1),
                                 one_group, 0);
      reused.Start(Span<const DijkstraSource>(&source, 1));
      while (true) {
        const SettledDoor a = full.SettleNext();
        const SettledDoor b = restricted.SettleNext();
        const SettledDoor c = reused.SettleNext();
        ASSERT_EQ(a.door, b.door);
        ASSERT_EQ(a.door, c.door);
        if (a.door == kInvalidId) break;
        ASSERT_EQ(a.distance, b.distance);
        ASSERT_EQ(a.distance, c.distance);
        ASSERT_EQ(full.ParentOf(a.door), restricted.ParentOf(a.door));
        ASSERT_EQ(full.ParentVia(a.door), reused.ParentVia(a.door));
      }
      ASSERT_EQ(full.NumSettledInSearch(), graph.NumVertices());
    }
  }
}

TEST(DijkstraTest, RunWithinStopsAtRadius) {
  const testing::PaperExample example = testing::MakePaperExample();
  DijkstraEngine engine(example.graph);
  engine.Start(D(2));
  engine.RunWithin(7.0);
  EXPECT_TRUE(engine.Settled(D(1)));   // dist 2
  EXPECT_TRUE(engine.Settled(D(6)));   // dist 7
  EXPECT_FALSE(engine.Settled(D(20)));  // dist 23
}

TEST(DijkstraTest, UnreachableVertexStaysInfinite) {
  // Two disconnected doors in an explicit graph.
  const std::vector<ExplicitD2DEdge> edges = {{0, 1, 1.0f, 0}};
  const D2DGraph graph(4, edges);  // doors 2 and 3 isolated
  DijkstraEngine engine(graph);
  engine.Start(0);
  engine.RunAll();
  EXPECT_EQ(engine.DistanceTo(2), kInfDistance);
  EXPECT_EQ(engine.DistanceTo(3), kInfDistance);
  EXPECT_DOUBLE_EQ(engine.DistanceTo(1), 1.0);
}

}  // namespace
}  // namespace viptree
