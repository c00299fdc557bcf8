// The oracle's own test. Door-to-door distances on the paper's running
// example (Fig. 1, tests/paper_example.h) must equal the numbers the paper
// works out by hand, so the oracle is checked against something other than
// the library it checks. The answer checks get small hand-made cases,
// including a kNN answer that raced a move.
//
//   .bench_build/perfbench_oracle_test   (exit 0 = pass)

#include <cmath>
#include <cstdio>

#include "oracle.h"
#include "paper_example.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void ExpectDistance(perfbench::Oracle& oracle, int from, int to, double want) {
  using viptree::testing::D;
  oracle.FromDoor(D(from));
  const double got = oracle.ToDoor(D(to));
  if (std::fabs(got - want) > 1e-9) {
    ++failures;
    std::printf("FAIL: dist(d%d, d%d) = %g, paper says %g\n", from, to, got,
                want);
  }
}

}  // namespace

int main() {
  using viptree::IndoorPoint;
  using viptree::ObjectResult;
  using viptree::Point;
  using viptree::testing::D;
  using viptree::testing::P;

  const viptree::testing::PaperExample ex = viptree::testing::MakePaperExample();
  perfbench::Oracle oracle(ex.venue, ex.graph);

  // Fig. 3 (leaf N1), the N5 and N7 matrices, Examples 4 and 5.
  ExpectDistance(oracle, 1, 6, 9);
  ExpectDistance(oracle, 2, 6, 7);
  ExpectDistance(oracle, 3, 6, 4);
  ExpectDistance(oracle, 4, 6, 7);
  ExpectDistance(oracle, 5, 6, 2);
  ExpectDistance(oracle, 1, 3, 5);
  ExpectDistance(oracle, 1, 4, 6);
  ExpectDistance(oracle, 6, 7, 4);
  ExpectDistance(oracle, 6, 10, 6);
  ExpectDistance(oracle, 7, 10, 7);
  ExpectDistance(oracle, 1, 7, 13);
  ExpectDistance(oracle, 1, 10, 15);
  ExpectDistance(oracle, 1, 20, 25);
  ExpectDistance(oracle, 7, 20, 17);
  ExpectDistance(oracle, 10, 20, 10);
  ExpectDistance(oracle, 2, 1, 2);
  ExpectDistance(oracle, 2, 7, 11);
  ExpectDistance(oracle, 2, 10, 13);
  ExpectDistance(oracle, 2, 20, 23);
  ExpectDistance(oracle, 10, 15, 6);
  ExpectDistance(oracle, 15, 20, 4);
  ExpectDistance(oracle, 20, 1, 25);  // undirected

  // Points: doors sit at x = door number on a line, so a point of P4 at
  // x = 5.5 reaches d5 and d6 in 0.5 each; a point of P5 at x = 7 is 1
  // from d6. Best route: through d6, 0.5 + 1 = 1.5.
  const IndoorPoint s{P(4), Point{5.5, 0, 0}};
  const IndoorPoint t{P(5), Point{7.0, 0, 0}};
  oracle.FromPoint(s);
  Expect(std::fabs(oracle.ToPoint(t) - 1.5) < 1e-9, "point to point via d6");
  // Same partition: the straight line, 0.25.
  Expect(std::fabs(oracle.ToPoint({P(4), Point{5.75, 0, 0}}) - 0.25) < 1e-9,
         "point to point inside one partition");

  // Path checks: s -> d6 -> t is connected and 1.5 long.
  Expect(perfbench::CheckPath(ex.venue, ex.graph, s, t, 1.5, {D(6)}).empty(),
         "a correct one-door path passes");
  Expect(!perfbench::CheckPath(ex.venue, ex.graph, s, t, 2.5, {D(6)}).empty(),
         "a path whose length differs from its distance fails");
  Expect(!perfbench::CheckPath(ex.venue, ex.graph, s, t, 1.5, {D(5)}).empty(),
         "a path whose last door misses the target partition fails");
  // d1 -> d20 jumps partitions without an edge.
  const IndoorPoint a{P(1), Point{1, 0, 0}};
  const IndoorPoint b{P(13), Point{20, 0, 0}};
  Expect(!perfbench::CheckPath(ex.venue, ex.graph, a, b, 25, {D(1), D(20)})
              .empty(),
         "a path with unconnected consecutive doors fails");

  // kNN against candidates: objects 0..3 at distances 1, 2, 3, 4.
  std::vector<std::vector<double>> c = {{1}, {2}, {3}, {4}};
  Expect(perfbench::CheckKnnAgainst({{0, 1}, {1, 2}}, 2, c).empty(),
         "the true 2-NN passes");
  Expect(!perfbench::CheckKnnAgainst({{0, 1}, {2, 3}}, 2, c).empty(),
         "a 2-NN that skips a nearer object fails");
  Expect(!perfbench::CheckKnnAgainst({{0, 1}, {1, 2.5}}, 2, c).empty(),
         "a distance no recorded position explains fails");
  // Object 2 raced a move from 3 to 1.5: either side is a valid answer.
  c[2] = {1.5, 3};
  Expect(perfbench::CheckKnnAgainst({{0, 1}, {2, 1.5}}, 2, c).empty(),
         "a 2-NN that saw the move passes");
  Expect(perfbench::CheckKnnAgainst({{0, 1}, {1, 2}}, 2, c).empty(),
         "a 2-NN that did not see the move passes");
  Expect(perfbench::CheckRangeAgainst({{0, 1}}, 1.2, c).empty(),
         "a range answer within the radius passes");
  Expect(!perfbench::CheckRangeAgainst({{0, 1}}, 2.5, c).empty(),
         "a range answer missing an object inside the radius fails");
  Expect(!perfbench::CheckObjectsShape({{1, 2}, {0, 1}}, 2, 1e9).empty(),
         "descending answers fail");

  if (failures == 0) std::printf("oracle test: OK\n");
  return failures == 0 ? 0 : 1;
}
