#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {

namespace {

double dist(const SiteData& a, const SiteData& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Recomputed sums are added in another order than the program's, so they
/// may differ in the last few bits.
bool close(double reported, double recomputed) {
  return std::fabs(reported - recomputed) <=
         1e-9 * std::max(1.0, std::fabs(recomputed));
}

std::string describe(const Point& p) {
  std::ostringstream os;
  os.precision(17);
  os << "(" << p.distance << ", " << p.vehicles << ", " << p.tardiness << ")";
  return os.str();
}

/// Area of the region in [.., rx) x [.., ry) dominated by the points.
double area2d(std::vector<std::pair<double, double>> pts, double rx,
              double ry) {
  std::sort(pts.begin(), pts.end());
  double area = 0;
  double lowest = ry;
  for (const auto& [x, y] : pts) {
    if (x >= rx || y >= lowest) continue;
    area += (rx - x) * (lowest - y);
    lowest = y;
  }
  return area;
}

}  // namespace

Problem problem_of(const tsmo::Instance& inst) {
  Problem p;
  p.capacity = inst.capacity();
  p.max_vehicles = inst.max_vehicles();
  for (const tsmo::Site& s : inst.sites()) {
    p.sites.push_back({s.x, s.y, s.demand, s.ready, s.due, s.service});
  }
  return p;
}

std::string recompute(const Problem& p,
                      const std::vector<std::vector<int>>& routes,
                      Recomputed& out) {
  out = Recomputed{};
  const int n = static_cast<int>(p.sites.size()) - 1;
  std::vector<int> seen(p.sites.size(), 0);
  std::ostringstream err;
  bool capacity_ok = true;
  for (const std::vector<int>& route : routes) {
    if (route.empty()) continue;
    ++out.obj.vehicles;
    int prev = 0;
    double time = 0;
    double load = 0;
    for (int c : route) {
      if (c < 1 || c > n) {
        err << "customer id " << c << " out of range";
        return err.str();
      }
      ++seen[static_cast<std::size_t>(c)];
      const SiteData& s = p.sites[static_cast<std::size_t>(c)];
      const double leg = dist(p.sites[static_cast<std::size_t>(prev)], s);
      const double arrival = time + leg;
      out.obj.distance += leg;
      out.obj.tardiness += std::max(arrival - s.due, 0.0);
      time = std::max(arrival, s.ready) + s.service;
      load += s.demand;
      prev = c;
    }
    const double leg = dist(p.sites[static_cast<std::size_t>(prev)], p.sites[0]);
    out.obj.distance += leg;
    out.obj.tardiness += std::max(time + leg - p.sites[0].due, 0.0);
    out.max_load = std::max(out.max_load, load);
    if (load > p.capacity) capacity_ok = false;
  }
  out.feasible = capacity_ok && out.obj.tardiness == 0.0;
  for (int c = 1; c <= n; ++c) {
    if (seen[static_cast<std::size_t>(c)] != 1) {
      err << "customer " << c << " routed " << seen[static_cast<std::size_t>(c)]
          << " times";
      return err.str();
    }
  }
  if (out.obj.vehicles > p.max_vehicles) {
    err << out.obj.vehicles << " routes exceed the fleet of "
        << p.max_vehicles;
    return err.str();
  }
  if (!capacity_ok) {
    err << "route load " << out.max_load << " exceeds capacity "
        << p.capacity;
    return err.str();
  }
  return "";
}

bool dominates(const Point& a, const Point& b) {
  return a.distance <= b.distance && a.vehicles <= b.vehicles &&
         a.tardiness <= b.tardiness &&
         (a.distance < b.distance || a.vehicles < b.vehicles ||
          a.tardiness < b.tardiness);
}

std::string check_front(const Problem& p, const std::vector<Member>& front,
                        std::size_t capacity, std::int64_t evaluations,
                        std::int64_t expected_evaluations) {
  std::ostringstream err;
  if (evaluations != expected_evaluations) {
    err << "spent " << evaluations << " evaluations, budget "
        << expected_evaluations;
    return err.str();
  }
  if (front.empty() || front.size() > capacity) {
    err << "front holds " << front.size() << " members, capacity "
        << capacity;
    return err.str();
  }
  for (std::size_t i = 0; i < front.size(); ++i) {
    const Member& m = front[i];
    Recomputed r;
    const std::string bad = recompute(p, m.routes, r);
    if (!bad.empty()) return "member " + std::to_string(i) + ": " + bad;
    if (!close(m.reported.distance, r.obj.distance) ||
        m.reported.vehicles != r.obj.vehicles ||
        !close(m.reported.tardiness, r.obj.tardiness)) {
      return "member " + std::to_string(i) + ": reported " +
             describe(m.reported) + ", recomputed " + describe(r.obj);
    }
    if (m.reported_feasible != r.feasible) {
      return "member " + std::to_string(i) + ": feasible flag is wrong";
    }
    for (std::size_t j = 0; j < i; ++j) {
      const Point& o = front[j].reported;
      const bool equal = o.distance == m.reported.distance &&
                         o.vehicles == m.reported.vehicles &&
                         o.tardiness == m.reported.tardiness;
      if (equal || dominates(o, m.reported) || dominates(m.reported, o)) {
        return "members " + std::to_string(j) + " and " + std::to_string(i) +
               " are not mutually non-dominated";
      }
    }
  }
  return "";
}

double hypervolume(const std::vector<Point>& pts, const Point& ref) {
  int lowest = ref.vehicles;
  for (const Point& q : pts) lowest = std::min(lowest, q.vehicles);
  double volume = 0;
  for (int v = lowest; v < ref.vehicles; ++v) {
    std::vector<std::pair<double, double>> slice;
    for (const Point& q : pts) {
      if (q.vehicles <= v && q.distance < ref.distance &&
          q.tardiness < ref.tardiness) {
        slice.emplace_back(q.distance, q.tardiness);
      }
    }
    volume += area2d(std::move(slice), ref.distance, ref.tardiness);
  }
  return volume;
}

double normalized_hypervolume(const std::vector<Point>& pts, const Box& box) {
  std::vector<Point> clamped;
  for (Point q : pts) {
    q.distance = std::max(q.distance, box.lo.distance);
    q.vehicles = std::max(q.vehicles, box.lo.vehicles);
    q.tardiness = std::max(q.tardiness, box.lo.tardiness);
    clamped.push_back(q);
  }
  const double full = (box.hi.distance - box.lo.distance) *
                      (box.hi.vehicles - box.lo.vehicles) *
                      (box.hi.tardiness - box.lo.tardiness);
  return hypervolume(clamped, box.hi) / full;
}

}  // namespace perfbench
