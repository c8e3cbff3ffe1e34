// Tests of the benchmark's checker and hypervolume: hand-built fronts of
// known volume, a clean solver output that must pass, and corrupted
// solutions that must be rejected.  Exits non-zero on the first failure.
//
//   perfbench_checker_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker.hpp"
#include "construct/i1_insertion.hpp"
#include "moo/metrics.hpp"
#include "vrptw/generator.hpp"
#include "vrptw/solution.hpp"

using perfbench::Box;
using perfbench::Member;
using perfbench::Point;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

std::vector<std::vector<int>> routes_of(const tsmo::Solution& s) {
  std::vector<std::vector<int>> r;
  for (int i = 0; i < s.num_routes(); ++i) {
    if (!s.route(i).empty()) r.push_back(s.route(i));
  }
  return r;
}

void test_hypervolume() {
  const Point ref{10, 5, 10};
  // One point: a box of 8 x 3 x 10.
  expect(near(perfbench::hypervolume({{2, 2, 0}}, ref), 240),
         "single point volume");
  // Two points in one vehicle slice overlap on [6,10) x [4,10):
  // 4*10 + 8*6 - 4*6 = 64 per slice, 3 slices.
  expect(near(perfbench::hypervolume({{6, 2, 0}, {2, 2, 4}}, ref), 192),
         "two-point slice union");
  // Points on different vehicle levels: level 1 adds (10-8)*(10-0) for
  // one slice below level 2, then levels 2..4 take the union.
  // Slice v=1: 2*10 = 20; slices v=2..4: union of [8,10)x[0,10) and
  // [4,10)x[5,10) = 20 + 30 - 10 = 40 each.
  expect(near(perfbench::hypervolume({{8, 1, 0}, {4, 2, 5}}, ref),
              20 + 3 * 40),
         "stacked vehicle levels");
  // Dominated and out-of-box points add nothing.
  expect(near(perfbench::hypervolume({{2, 2, 0}, {3, 3, 1}, {11, 1, 0}}, ref),
              240),
         "dominated and outside points ignored");
  expect(perfbench::hypervolume({}, ref) == 0, "empty front");
  const Box box{{0, 0, 0}, {10, 5, 10}};
  expect(near(perfbench::normalized_hypervolume({{-5, 0, 0}}, box), 1.0),
         "clamped ideal point fills the box");
  // Cross-check against the library's sweep on a pseudo-random front.
  std::vector<Point> pts;
  std::vector<tsmo::Objectives> objs;
  unsigned x = 12345;
  for (int i = 0; i < 40; ++i) {
    x = x * 1103515245u + 12345u;
    Point q{static_cast<double>(x % 1000) / 7.0, static_cast<int>(x % 7) + 1,
            static_cast<double>((x >> 8) % 500) / 3.0};
    pts.push_back(q);
    objs.push_back({q.distance, q.vehicles, q.tardiness});
  }
  const Point r2{150, 9, 170};
  expect(near(perfbench::hypervolume(pts, r2),
              tsmo::hypervolume(objs, {r2.distance, r2.vehicles, r2.tardiness})),
         "agrees with moo::hypervolume");
}

void test_checker() {
  const tsmo::Instance inst = tsmo::generate_named("RC1_1_1");
  const perfbench::Problem p = perfbench::problem_of(inst);
  const tsmo::Solution s = tsmo::construct_i1(inst, tsmo::I1Params{});
  const Member good{{s.objectives().distance, s.objectives().vehicles,
                     s.objectives().tardiness},
                    s.feasible(),
                    routes_of(s)};
  expect(perfbench::check_front(p, {good}, 20, 7, 7).empty(),
         "I1 solution passes");
  expect(!perfbench::check_front(p, {good}, 20, 6, 7).empty(),
         "evaluation count off budget rejected");
  expect(!perfbench::check_front(p, {good, good}, 20, 7, 7).empty(),
         "duplicate front member rejected");

  Member dup = good;
  dup.routes[0].push_back(dup.routes[1][0]);
  expect(!perfbench::check_front(p, {dup}, 20, 7, 7).empty(),
         "duplicated customer rejected");

  Member missing = good;
  missing.routes[0].pop_back();
  expect(!perfbench::check_front(p, {missing}, 20, 7, 7).empty(),
         "missing customer rejected");

  Member wrong = good;
  wrong.reported.distance += 1e-3;
  expect(!perfbench::check_front(p, {wrong}, 20, 7, 7).empty(),
         "wrong distance rejected");

  Member flag = good;
  flag.reported_feasible = !flag.reported_feasible;
  expect(!perfbench::check_front(p, {flag}, 20, 7, 7).empty(),
         "wrong feasible flag rejected");

  // Everything on one vehicle overloads it (RC1 capacity is 200).
  Member overload = good;
  std::vector<int> all;
  for (const auto& r : good.routes) all.insert(all.end(), r.begin(), r.end());
  overload.routes = {all};
  perfbench::Recomputed rc;
  const std::string why = perfbench::recompute(p, overload.routes, rc);
  overload.reported = rc.obj;
  expect(!perfbench::check_front(p, {overload}, 20, 7, 7).empty() &&
             why.find("capacity") != std::string::npos,
         "overloaded route rejected");
}

}  // namespace

int main() {
  test_hypervolume();
  test_checker();
  if (failures > 0) {
    std::printf("%d checker test(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("all checker tests passed\n");
  return EXIT_SUCCESS;
}
