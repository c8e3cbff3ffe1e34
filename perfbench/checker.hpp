#pragma once

// Independent output checker of the benchmark.  It re-derives every figure
// it checks from the raw instance data (coordinates, demands, windows and
// service times) and shares no evaluation code with the solver: distances,
// loads, schedules, dominance and the hypervolume are all written here
// again, so a fault in the solver's own evaluation cannot hide itself.

#include <cstdint>
#include <string>
#include <vector>

#include "vrptw/instance.hpp"

namespace perfbench {

struct SiteData {
  double x = 0, y = 0, demand = 0, ready = 0, due = 0, service = 0;
};

/// Raw problem data; site 0 is the depot.
struct Problem {
  std::vector<SiteData> sites;
  double capacity = 0;
  int max_vehicles = 0;
};

/// Copies the raw site fields of an instance (nothing derived from them).
Problem problem_of(const tsmo::Instance& inst);

/// One objective vector (distance, vehicles, tardiness), all minimized.
struct Point {
  double distance = 0;
  int vehicles = 0;
  double tardiness = 0;
};

/// A solution as the program reported it.
struct Member {
  Point reported;
  bool reported_feasible = false;
  std::vector<std::vector<int>> routes;  ///< customer ids, depot excluded
};

/// Objectives and loads recomputed from the routes.
struct Recomputed {
  Point obj;
  double max_load = 0;
  bool feasible = false;
};

/// Recomputes one solution.  Returns "" when the routes are a valid
/// solution (every customer exactly once, fleet and capacity respected),
/// otherwise a diagnostic; `out` is filled either way.
std::string recompute(const Problem& p,
                      const std::vector<std::vector<int>>& routes,
                      Recomputed& out);

/// Checks one returned front: every member is valid, its feasible flag and
/// objectives agree with the recomputed ones, the members are mutually
/// non-dominated, there are at most `capacity` of them, and the run spent
/// exactly `expected_evaluations`.  Returns "" or the first diagnostic.
std::string check_front(const Problem& p, const std::vector<Member>& front,
                        std::size_t capacity, std::int64_t evaluations,
                        std::int64_t expected_evaluations);

/// True when `a` Pareto-dominates `b` (minimization).
bool dominates(const Point& a, const Point& b);

/// Exact 3-D hypervolume dominated by `pts` and bounded by `ref`: the
/// integer vehicle axis is cut into unit slices and each slice's 2-D area
/// is swept in (distance, tardiness).  Points not strictly below `ref` in
/// every objective add nothing.
double hypervolume(const std::vector<Point>& pts, const Point& ref);

/// Per-instance normalization box: `lo` is the ideal corner, `hi` the
/// reference point.  Objectives below `lo` are clamped onto it.
struct Box {
  Point lo, hi;
};

/// Hypervolume of `pts` inside `box` divided by the box volume, in [0, 1].
double normalized_hypervolume(const std::vector<Point>& pts, const Box& box);

}  // namespace perfbench
