// Benchmark driver: runs the in-process workloads, checks every output with
// the independent checker, and aggregates the end-to-end and per-layer
// metrics.  run.py builds and calls it; the job-plane probe's client lives
// in run.py, takes its job bodies from the `bodies` mode and hands its
// records to the `check-jobs` mode here.
//
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --reference perfbench/reference.json
//   perfbench_driver bodies --variant V           (one round of job bodies)
//   perfbench_driver check-jobs FILE --reference perfbench/reference.json
//   perfbench_driver calibrate --seeds a,b,...   (prints reference.json)
//   perfbench_driver findings --seeds a,b,... --reference ...  (README)
//
// The last line of stdout is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "core/sequential_tsmo.hpp"
#include "harness/job_runner.hpp"
#include "moo/anytime.hpp"
#include "moo/metrics.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "util/json.hpp"
#include "vrptw/candidate_list.hpp"
#include "vrptw/generator.hpp"

namespace {

using perfbench::Box;
using perfbench::Member;
using perfbench::Point;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Point point_of(const tsmo::Objectives& o) {
  return {o.distance, o.vehicles, o.tardiness};
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::string> instances;
  int candidate_k = 0;
  std::int64_t evaluations = 100000;
  /// Also runs the parallel probe (parallel_probe below).
  bool parallel_probe = false;
};

/// The parallel probe: deterministic SyncTsmo and MultisearchTsmo at P=4
/// on R1_6_1 (the size of the paper's Table III), 25k evaluations per
/// searcher, at width 1 and at full width.
constexpr int kProcessors = 4;
const char* const kProbeInstance = "R1_6_1";
constexpr std::int64_t kProbeEvaluations = 25000;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"paper-400",
       {"R1_4_1", "R2_4_1", "C1_4_1", "C2_4_1", "RC1_4_1", "RC2_4_1"},
       0, 100000, true},
      {"pruned-1000", {"R1_10_1", "RC2_10_1"}, 16, 100000, false},
  };
  return w;
}

const Workload& workload_named(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

/// Paper parameters (tenure 20, archive 20, restart 100, neighborhood 200)
/// with the given sampling mode, budget and seed.
tsmo::TsmoParams paper_params(int candidate_k, std::int64_t evaluations,
                              std::uint64_t seed) {
  tsmo::TsmoParams p;
  p.max_evaluations = evaluations;
  p.neighborhood_size = 200;
  p.tabu_tenure = 20;
  p.archive_capacity = 20;
  p.restart_after = 100;
  p.candidate_k = candidate_k;
  p.seed = seed;
  return p;
}

tsmo::TsmoParams params_for(const Workload& w, std::uint64_t seed) {
  return paper_params(w.candidate_k, w.evaluations, seed);
}

/// Search seed of the operation in `slot` of `round`.  The seeds are a
/// fixed panel, the same for every benchmark seed, so that two runs compare
/// the same searches; the benchmark seed only orders the operations
/// (`round_order`).  Calibration seeds are small integers and never
/// collide with the panel.
std::uint64_t panel_seed(int round, int slot) {
  std::uint64_t z = static_cast<std::uint64_t>(round) * 1000003ULL +
                    static_cast<std::uint64_t>(slot) * 7919ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1000;
}

/// The order in which one round visits its `n` slots.
std::vector<int> round_order(std::uint64_t bench_seed, int round, int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::mt19937_64 rng(bench_seed * 7919ULL + static_cast<std::uint64_t>(round));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// ---------------------------------------------------------------------------
// Reference data: per-instance boxes and hypervolume targets
// ---------------------------------------------------------------------------

struct Reference {
  std::map<std::string, Box> boxes;       ///< by instance name
  std::map<std::string, double> targets;  ///< by "<workload>/<key>"
};

Point point_from_json(const tsmo::JsonValue& a) {
  const auto& it = a.items();
  if (it.size() != 3) throw std::runtime_error("reference: bad point");
  return {it[0].as_double(), static_cast<int>(it[1].as_int64()),
          it[2].as_double()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<tsmo::JsonValue> parse_or_throw(const std::string& text,
                                                const std::string& what) {
  std::string err;
  auto doc = tsmo::json_parse(text, &err);
  if (!doc) throw std::runtime_error(what + ": " + err);
  return doc;
}

Reference load_reference(const std::string& path) {
  const auto doc = parse_or_throw(read_file(path), path);
  Reference ref;
  if (const tsmo::JsonValue* boxes = doc->find("boxes")) {
    for (std::size_t i = 0; i < boxes->keys().size(); ++i) {
      const tsmo::JsonValue& b = boxes->items()[i];
      ref.boxes[boxes->keys()[i]] = {point_from_json(*b.find("lo")),
                                     point_from_json(*b.find("hi"))};
    }
  }
  if (const tsmo::JsonValue* targets = doc->find("targets")) {
    for (std::size_t i = 0; i < targets->keys().size(); ++i) {
      ref.targets[targets->keys()[i]] = targets->items()[i].as_double();
    }
  }
  return ref;
}

// ---------------------------------------------------------------------------
// One operation's outcome and the aggregation shared by every workload
// ---------------------------------------------------------------------------

struct OpRecord {
  std::string key;       ///< instance, or "<engine>/<instance>"
  std::string instance;  ///< names the normalization box
  double wall = 0;       ///< seconds until the result is in hand
  std::int64_t evaluations = 0;
  std::vector<Point> front;
  /// Anytime archive insertions (seconds since the run started, point).
  std::vector<std::pair<double, Point>> insertions;
  double hv = 0;
  double time_to_target = -1;  ///< -1: the target was not reached
  /// One of the first kPanelRounds rounds, whose fixed seeds feed the
  /// quality metrics; later rounds only add timing samples.
  bool panel = false;
};

/// Rounds every run completes, however long they take, so that the
/// quality metrics of two runs cover the same searches.
constexpr int kPanelRounds = 12;

/// Mean distance / vehicles of the zero-tardiness members, NaN when none.
std::pair<double, double> feasible_means(const std::vector<Point>& front) {
  double d = 0, v = 0;
  int n = 0;
  for (const Point& p : front) {
    if (p.tardiness == 0.0) {
      d += p.distance;
      v += p.vehicles;
      ++n;
    }
  }
  if (n == 0) {
    return {std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::quiet_NaN()};
  }
  return {d / n, v / n};
}

/// First time the union of the insertions reaches `target` normalized
/// hypervolume, or -1.
double first_reach(const std::vector<std::pair<double, Point>>& ins,
                   const Box& box, double target) {
  std::vector<Point> seen;
  for (const auto& [t, p] : ins) {
    const bool covered =
        std::any_of(seen.begin(), seen.end(), [&p](const Point& q) {
          return q.distance <= p.distance && q.vehicles <= p.vehicles &&
                 q.tardiness <= p.tardiness;
        });
    if (covered) continue;  // adds no volume
    seen.push_back(p);
    if (perfbench::normalized_hypervolume(seen, box) >= target) return t;
  }
  return -1;
}

/// Compares the checker's hypervolume of `front` with moo::hypervolume,
/// both against the box's reference corner.  Returns "" or a diagnostic.
std::string cross_check_hv(const std::vector<Point>& front, const Box& box) {
  std::vector<tsmo::Objectives> objs;
  for (const Point& p : front) {
    objs.push_back({p.distance, p.vehicles, p.tardiness});
  }
  const Point& hi = box.hi;
  const double mine = perfbench::hypervolume(front, hi);
  const double lib =
      tsmo::hypervolume(objs, {hi.distance, hi.vehicles, hi.tardiness});
  if (std::fabs(mine - lib) <= 1e-9 * std::max(1.0, std::fabs(lib))) return "";
  std::ostringstream os;
  os.precision(17);
  os << "hypervolume mismatch: checker " << mine << ", library " << lib;
  return os.str();
}

/// Cross-checks the front's hypervolume, then fills hv and time_to_target.
/// Returns "" or a diagnostic.
std::string score(OpRecord& r, const Reference& ref,
                  const std::string& target_key) {
  const auto box = ref.boxes.find(r.instance);
  const auto target = ref.targets.find(target_key);
  if (box == ref.boxes.end() || target == ref.targets.end()) {
    return "no reference box or target for " + target_key;
  }
  const std::string bad = cross_check_hv(r.front, box->second);
  if (!bad.empty()) return bad;
  r.hv = perfbench::normalized_hypervolume(r.front, box->second);
  r.time_to_target = first_reach(r.insertions, box->second, target->second);
  return "";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void pass(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
};

/// Search counters summed over runs, from RunResult::introspect in-process
/// or from the result document's "introspect" block of a job.
struct SearchCounts {
  double runs = 0, proposed = 0, accepted = 0, steps = 0, restarts = 0;
  double tabu_checked = 0, tabu_hits = 0, archive_inserts = 0;

  void add(const tsmo::IntrospectStats& is) {
    runs += 1;
    proposed += static_cast<double>(is.total_proposed());
    accepted += static_cast<double>(is.total_accepted());
    steps += static_cast<double>(is.steps);
    restarts += static_cast<double>(is.restarts);
    tabu_checked += static_cast<double>(is.tabu_checked);
    tabu_hits += static_cast<double>(is.tabu_hits);
    archive_inserts += static_cast<double>(is.archive_inserts);
  }

  void fill(std::map<std::string, double>& m) const {
    m["operators.accept_ratio"] = accepted / proposed;
    m["core.restarts"] = restarts / runs;
    m["core.tabu_hit_ratio"] = tabu_hits / tabu_checked;
    m["moo.archive_insert_ratio"] = archive_inserts / steps;
  }
};

/// Per key: median over the key's runs; then the mean over keys
/// (geometric for the positive raw quantities, arithmetic for the
/// normalized hypervolume).
double across_keys(const std::map<std::string, std::vector<double>>& by_key,
                   bool geometric) {
  double acc = 0;
  int n = 0;
  for (const auto& [key, values] : by_key) {
    std::vector<double> finite;
    for (double v : values) {
      if (std::isfinite(v)) finite.push_back(v);
    }
    if (finite.empty()) continue;
    const double m = median(finite);
    acc += geometric ? std::log(m) : m;
    ++n;
  }
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return geometric ? std::exp(acc / n) : acc / n;
}

/// Expected running time to the target (the ERT of the COCO platform):
/// the time all runs of a key spent until they reached the target or
/// ended, divided by the number that reached it (at least one).
double expected_running_time(const std::vector<const OpRecord*>& runs) {
  double spent = 0;
  int reached = 0;
  for (const OpRecord* r : runs) {
    if (r->time_to_target >= 0) {
      spent += r->time_to_target;
      ++reached;
    } else {
      spent += r->wall;
    }
  }
  return spent / std::max(reached, 1);
}

std::vector<Metric> end_to_end(const std::vector<OpRecord>& ops,
                               double setup_s, double rss_mb) {
  std::map<std::string, std::vector<double>> rate, per_s, hv, ert, fd, fv;
  std::map<std::string, std::vector<const OpRecord*>> panel;
  std::vector<double> latencies;
  for (const OpRecord& r : ops) {
    rate[r.key].push_back(static_cast<double>(r.evaluations) / r.wall);
    per_s[r.key].push_back(1.0 / r.wall);
    latencies.push_back(r.wall);
    if (!r.panel) continue;
    panel[r.key].push_back(&r);
    hv[r.key].push_back(r.hv);
    const auto [d, v] = feasible_means(r.front);
    fd[r.key].push_back(d);
    fv[r.key].push_back(v);
  }
  for (const auto& [key, runs] : panel) {
    ert[key].push_back(expected_running_time(runs));
  }
  return {
      {"setup_s", setup_s, "s"},
      {"evals_per_s", across_keys(rate, true), "1/s"},
      {"hv_at_budget", across_keys(hv, false), "fraction"},
      {"time_to_target_s", across_keys(ert, true), "s"},
      {"feasible_distance", across_keys(fd, true), "distance"},
      {"feasible_vehicles", across_keys(fv, true), "vehicles"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"jobs_per_s", across_keys(per_s, true), "1/s"},
      {"job_latency_p50_s", median(latencies), "s"},
      {"job_latency_p90_s", quantile(latencies, 0.9), "s"},
  };
}

/// Every per-layer metric name, in BENCHMARK.json order; a workload that
/// does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"vrptw.instance_build_s", "s"},
      {"vrptw.candidate_list_s", "s"},
      {"construct.i1_ms", "ms"},
      {"construct.share", "fraction"},
      {"operators.generate_ns_per_eval", "ns"},
      {"operators.share", "fraction"},
      {"operators.price_ns_per_eval", "ns"},
      {"operators.propose_ns_per_eval", "ns"},
      {"operators.accept_ratio", "fraction"},
      {"core.step_us_per_iter", "us"},
      {"core.share", "fraction"},
      {"core.restarts", "count"},
      {"core.tabu_hit_ratio", "fraction"},
      {"moo.archive_insert_ratio", "fraction"},
      {"parallel.sync_speedup", "ratio"},
      {"parallel.coll_speedup", "ratio"},
      {"parallel.sync_serial_fraction", "fraction"},
      {"parallel.coll_serial_fraction", "fraction"},
      {"parallel.coll_messages", "count"},
      {"obs.submit_ms", "ms"},
      {"obs.status_ms", "ms"},
      {"obs.result_ms", "ms"},
      {"obs.queue_wait_ms", "ms"},
      {"obs.plane_overhead_ms", "ms"},
      {"harness.runner_overhead_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return names;
}

void print_result(const Tally& tally, bool correct,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& got) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = got.find(name);
    out.push_back({name, it == got.end() ? 0.0 : it->second, unit});
  }
  return out;
}

constexpr int kSetupReps = 15;

/// Builds the instances and returns the median of `reps` timed builds.
double timed_setup(const std::vector<std::string>& names, int reps,
                   std::vector<tsmo::Instance>& out) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    std::vector<tsmo::Instance> built;
    const auto t0 = Clock::now();
    for (const std::string& n : names) built.push_back(tsmo::generate_named(n));
    times.push_back(seconds_since(t0));
    out = std::move(built);
  }
  return median(times);
}

// ---------------------------------------------------------------------------
// Checks of one in-process result
// ---------------------------------------------------------------------------

std::vector<Member> members_of(const tsmo::RunResult& r) {
  std::vector<Member> out;
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    Member m;
    m.reported = point_of(r.front[i]);
    const tsmo::Solution& s = r.solutions.at(i);
    m.reported_feasible = s.feasible();
    for (int k = 0; k < s.num_routes(); ++k) {
      if (!s.route(k).empty()) m.routes.push_back(s.route(k));
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Point> points_of(const tsmo::RunResult& r) {
  std::vector<Point> out;
  for (const tsmo::Objectives& o : r.front) out.push_back(point_of(o));
  return out;
}

// ---------------------------------------------------------------------------
// Sequential workloads
// ---------------------------------------------------------------------------

/// SequentialTsmo::run with its public per-iteration observer collecting
/// the archive insertions (the I1 start solution is the base of the first
/// neighborhood).
OpRecord run_sequential(const tsmo::Instance& inst, const tsmo::TsmoParams& p,
                        tsmo::RunResult& result) {
  OpRecord rec;
  rec.key = rec.instance = inst.name();
  bool first = true;
  const auto t0 = Clock::now();
  tsmo::SequentialTsmo engine(inst, p);
  result = engine.run([&](const tsmo::IterationEvent& ev) {
    const double t = seconds_since(t0);
    if (first && !ev.candidates->empty()) {
      rec.insertions.push_back(
          {t, point_of(ev.candidates->front().base->objectives())});
    }
    first = false;
    if (ev.archive_improved) rec.insertions.push_back({t, point_of(ev.current)});
  });
  rec.wall = seconds_since(t0);
  rec.evaluations = result.evaluations;
  rec.front = points_of(result);
  return rec;
}

/// Layer timings accumulated by the traced loop.
struct SeqTrace {
  double wall = 0, untraced_wall = 0, i1 = 0, cand_list = 0;
  double generate = 0, price = 0, step = 0;
  double generated = 0, priced = 0, iterations = 0, runs = 0;
  SearchCounts counts;
};

/// Algorithm 1 driven through the public SearchState API, exactly as
/// SequentialTsmo::run drives it, with every layer call timed.  Every 16th
/// iteration the step's moves are re-priced on a separate MoveEngine;
/// `repriced_ok` reports whether they matched the candidates bitwise.
tsmo::RunResult run_traced(const tsmo::Instance& inst,
                           const tsmo::TsmoParams& p, SeqTrace& tr,
                           bool& repriced_ok) {
  const auto t0 = Clock::now();
  const auto tl = Clock::now();
  const std::shared_ptr<const tsmo::CandidateList> cands =
      tsmo::make_candidate_list(inst, p.candidate_k);
  tr.cand_list += seconds_since(tl);
  tsmo::SearchState state(inst, p, tsmo::Rng(p.seed), cands);
  const auto ti = Clock::now();
  state.initialize();
  tr.i1 += seconds_since(ti);
  const tsmo::MoveEngine pricer(inst);
  std::vector<tsmo::Move> moves;
  std::vector<tsmo::Objectives> priced;
  repriced_ok = true;
  while (!state.budget_exhausted()) {
    const std::int64_t remaining = p.max_evaluations - state.evaluations();
    const int want = static_cast<int>(
        std::min<std::int64_t>(p.neighborhood_size, remaining));
    if (want <= 0) break;
    const auto tg = Clock::now();
    const std::vector<tsmo::Candidate> candidates =
        state.generate_candidates(want);
    tr.generate += seconds_since(tg);
    tr.generated += static_cast<double>(candidates.size());
    if (state.iterations() % 16 == 0 && !candidates.empty()) {
      moves.clear();
      for (const tsmo::Candidate& c : candidates) moves.push_back(c.move);
      const auto tp = Clock::now();
      pricer.evaluate_batch(*candidates.front().base, moves, priced);
      tr.price += seconds_since(tp);
      tr.priced += static_cast<double>(moves.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!(priced[i] == candidates[i].obj)) repriced_ok = false;
      }
    }
    const auto ts = Clock::now();
    state.step_with_candidates(candidates);
    tr.step += seconds_since(ts);
  }
  const double wall = seconds_since(t0);
  tr.wall += wall;
  tr.iterations += static_cast<double>(state.iterations());
  tr.runs += 1;
  tr.counts.add(state.istats());
  return tsmo::collect_result(state, "sequential", wall);
}

std::string check_run(const tsmo::Instance& inst, const tsmo::RunResult& r,
                      std::size_t capacity, std::int64_t budget) {
  return perfbench::check_front(perfbench::problem_of(inst), members_of(r),
                                capacity, r.evaluations, budget);
}

// ---------------------------------------------------------------------------
// Parallel probe: deterministic SyncTsmo and MultisearchTsmo
// ---------------------------------------------------------------------------

struct ThreadRun {
  tsmo::RunResult result;
  std::int64_t messages = 0;
  std::size_t capacity = 20;
  std::vector<std::pair<double, Point>> insertions;
  double wall = 0;
};

ThreadRun run_engine(const std::string& engine, const tsmo::Instance& inst,
                     const tsmo::TsmoParams& p, int width) {
  tsmo::ConvergenceConfig cc;
  cc.reference = tsmo::convergence_reference(inst);
  cc.sample_every_iters = 0;
  cc.sample_every_ms = 0;
  ThreadRun out;
  const auto t0 = Clock::now();
  tsmo::ConvergenceRecorder rec(cc);
  if (engine == "sync") {
    tsmo::SyncOptions o;
    o.deterministic = true;
    o.exec_threads = width;
    o.recorder = &rec;
    out.result = tsmo::SyncTsmo(inst, p, kProcessors, o).run();
  } else {
    tsmo::MultisearchOptions o;
    o.deterministic = true;
    o.exec_threads = width;
    o.recorder = &rec;
    tsmo::MultisearchResult r =
        tsmo::MultisearchTsmo(inst, p, kProcessors, o).run();
    out.messages = r.messages_sent;
    // Every searcher's own archive capacity is perturbed, so the merged
    // front is bounded by the searchers' fronts together.
    out.capacity = 0;
    for (const tsmo::RunResult& s : r.per_searcher) out.capacity += s.front.size();
    out.result = std::move(r.merged);
  }
  out.wall = seconds_since(t0);
  for (const tsmo::InsertionEvent& e : rec.insertions()) {
    out.insertions.push_back({static_cast<double>(e.t_ns) * 1e-9, point_of(e.obj)});
  }
  std::sort(out.insertions.begin(), out.insertions.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

/// Runs `rounds` rounds of the parallel probe.  Every result is checked,
/// and width 1 must reproduce the full-width fingerprint.  With `layer`,
/// fills the parallel.* per-layer metrics from the two widths' walls.
void parallel_probe(const tsmo::Instance& inst, int rounds, Tally& tally,
                    std::map<std::string, double>* layer) {
  const int full = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));
  std::map<std::string, double> wall1, wallf;
  double messages = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const std::string engine : {"sync", "coll"}) {
      const tsmo::TsmoParams p = paper_params(
          0, kProbeEvaluations, panel_seed(round, engine == "sync" ? 0 : 1));
      const std::int64_t budget =
          engine == "sync" ? kProbeEvaluations
                           : kProcessors * kProbeEvaluations;
      const ThreadRun run = run_engine(engine, inst, p, full);
      const std::string bad = check_run(inst, run.result, run.capacity, budget);
      tally.pass(bad.empty(), engine + ": " + bad);
      const ThreadRun one = run_engine(engine, inst, p, 1);
      tally.pass(one.result.archive_fingerprint ==
                         run.result.archive_fingerprint &&
                     one.result.evaluations == run.result.evaluations,
                 engine + ": width 1 and full width differ");
      wall1[engine] += one.wall;
      wallf[engine] += run.wall;
      messages += static_cast<double>(run.messages);
    }
  }
  if (layer == nullptr) return;
  const double procs = std::min(full, kProcessors);
  for (const std::string engine : {"sync", "coll"}) {
    const double s = wall1[engine] / wallf[engine];
    (*layer)["parallel." + engine + "_speedup"] = s;
    // Karp-Flatt experimentally determined serial fraction.
    (*layer)["parallel." + engine + "_serial_fraction"] =
        procs > 1 ? (1.0 / s - 1.0 / procs) / (1.0 - 1.0 / procs) : 1.0;
  }
  (*layer)["parallel.coll_messages"] = messages / rounds;
}

int run_sequential_workload(const Workload& w, std::uint64_t seed,
                            double seconds, bool traced,
                            const Reference& ref) {
  std::vector<std::string> names = w.instances;
  if (w.parallel_probe) names.push_back(kProbeInstance);
  std::vector<tsmo::Instance> insts;
  const double setup_s = timed_setup(names, kSetupReps, insts);
  std::optional<tsmo::Instance> probe_inst;
  if (w.parallel_probe) {
    probe_inst.emplace(std::move(insts.back()));
    insts.pop_back();
  }
  Tally tally;
  std::vector<OpRecord> ops;
  SeqTrace tr;
  const auto start = Clock::now();
  for (int round = 0; round < kPanelRounds || seconds_since(start) < seconds;
       ++round) {
    for (const int slot : round_order(seed, round, static_cast<int>(insts.size()))) {
      const auto i = static_cast<std::size_t>(slot);
      const tsmo::TsmoParams p = params_for(w, panel_seed(round, slot));
      tsmo::RunResult result;
      OpRecord rec = run_sequential(insts[i], p, result);
      rec.panel = round < kPanelRounds;
      const std::string bad =
          check_run(insts[i], result, 20, w.evaluations);
      tally.pass(bad.empty(), insts[i].name() + ": " + bad);
      const std::string unscored = score(rec, ref, w.name + "/" + rec.key);
      tally.pass(unscored.empty(), insts[i].name() + ": " + unscored);
      // The traced loop replays every run in the traced mode and the first
      // round otherwise; its archive must equal SequentialTsmo::run's.
      if (traced || round == 0) {
        SeqTrace scratch;
        SeqTrace& into = traced ? tr : scratch;
        bool repriced_ok = false;
        const tsmo::RunResult replay =
            run_traced(insts[i], p, into, repriced_ok);
        into.untraced_wall += rec.wall;
        tally.pass(replay.archive_fingerprint == result.archive_fingerprint &&
                       replay.evaluations == result.evaluations &&
                       replay.iterations == result.iterations,
                   insts[i].name() + ": traced loop diverged from run()");
        tally.pass(repriced_ok,
                   insts[i].name() + ": re-priced moves differ");
      }
      ops.push_back(std::move(rec));
    }
  }
  const double rss_mb = peak_rss_mb();
  // The probe's property checks run once untraced; traced, three rounds
  // also time the two widths.
  std::map<std::string, double> m;
  if (probe_inst) {
    parallel_probe(*probe_inst, traced ? 3 : 1, tally, traced ? &m : nullptr);
  }
  const bool correct = tally.failed == 0;
  if (!traced) {
    print_result(tally, correct, end_to_end(ops, setup_s, rss_mb));
    return 0;
  }
  m["vrptw.instance_build_s"] = setup_s;
  m["vrptw.candidate_list_s"] = tr.cand_list / tr.runs;
  m["construct.i1_ms"] = 1e3 * tr.i1 / tr.runs;
  m["construct.share"] = tr.i1 / tr.wall;
  m["operators.generate_ns_per_eval"] = 1e9 * tr.generate / tr.generated;
  m["operators.share"] = tr.generate / tr.wall;
  m["operators.price_ns_per_eval"] = 1e9 * tr.price / tr.priced;
  m["operators.propose_ns_per_eval"] =
      1e9 * tr.generate / tr.generated - 1e9 * tr.price / tr.priced;
  m["core.step_us_per_iter"] = 1e6 * tr.step / tr.iterations;
  m["core.share"] = tr.step / tr.wall;
  tr.counts.fill(m);
  // Wall of the traced loop against SequentialTsmo::run on the same work.
  m["bench.trace_overhead"] = tr.wall / tr.untraced_wall - 1.0;
  print_result(tally, correct, layer_metrics(m));
  return 0;
}

// ---------------------------------------------------------------------------
// Job-plane probe: checks and per-layer timings of the jobs run.py ran
// ---------------------------------------------------------------------------

const tsmo::JsonValue& field(const tsmo::JsonValue& v, const std::string& k) {
  const tsmo::JsonValue* f = v.find(k);
  if (f == nullptr) throw std::runtime_error("missing field " + k);
  return *f;
}

std::uint64_t hex(const tsmo::JsonValue& v) {
  return std::strtoull(v.as_string().c_str(), nullptr, 16);
}

/// One round of the job-plane probe: seq and sync (2 processors) at 25k
/// evaluations on the six 400-customer classes, seeded from the panel.
/// run.py reads them through the `bodies` mode.
std::vector<std::pair<std::string, std::string>> job_bodies(int variant) {
  std::vector<std::pair<std::string, std::string>> out;
  int slot = 0;
  for (const std::string& inst : workload_named("paper-400").instances) {
    for (const std::string algo : {"seq", "sync"}) {
      std::ostringstream b;
      b << "{\"instance\": \"" << inst << "\", \"algorithm\": \"" << algo
        << "\", \"processors\": " << (algo == "seq" ? 1 : 2)
        << ", \"include_routes\": true, \"params\": {\"evaluations\": 25000,"
        << " \"seed\": " << panel_seed(variant, slot++) << "}}";
      out.push_back({algo + "/" + inst, b.str()});
    }
  }
  return out;
}

/// Checks every job record in `path` and prints the obs.* and harness.*
/// per-layer metrics with the check counts.
int check_jobs(const std::string& path, const Reference& ref) {
  const auto doc = parse_or_throw(read_file(path), path);
  Tally tally;
  std::map<std::string, tsmo::Instance> insts;
  std::map<std::string, std::uint64_t> in_process;  // body -> fingerprint
  std::vector<double> submit_ms, status_ms, result_ms, wait_ms, plane_ms,
      runner_ms;
  for (const tsmo::JsonValue& job : field(*doc, "jobs").items()) {
    const std::string body_text = field(job, "body").as_string();
    const auto body = parse_or_throw(body_text, "job body");
    const std::string name = field(*body, "instance").as_string();
    const std::string label =
        field(*body, "algorithm").as_string() + "/" + name;
    const std::int64_t budget =
        field(field(*body, "params"), "evaluations").as_int64();
    auto it = insts.find(name);
    if (it == insts.end()) {
      it = insts.emplace(name, tsmo::generate_named(name)).first;
    }
    const tsmo::JsonValue& status = field(job, "status");
    const tsmo::JsonValue& result = field(job, "result");
    if (field(status, "state").as_string() != "done") {
      tally.pass(false, label + ": job " + field(status, "state").as_string());
      continue;
    }
    // Independent check of the returned front.
    std::vector<Member> members;
    std::vector<Point> front;
    for (const tsmo::JsonValue& e : field(result, "front").items()) {
      Member m;
      m.reported = {field(e, "distance").as_double(),
                    static_cast<int>(field(e, "vehicles").as_int64()),
                    field(e, "tardiness").as_double()};
      m.reported_feasible = field(e, "feasible").as_bool();
      for (const tsmo::JsonValue& r : field(e, "routes").items()) {
        std::vector<int> route;
        for (const tsmo::JsonValue& c : r.items()) {
          route.push_back(static_cast<int>(c.as_int64()));
        }
        m.routes.push_back(std::move(route));
      }
      front.push_back(m.reported);
      members.push_back(std::move(m));
    }
    const std::string bad = perfbench::check_front(
        perfbench::problem_of(it->second), members, 20,
        field(result, "evaluations").as_int64(), budget);
    tally.pass(bad.empty(), label + ": " + bad);
    const std::string hv_bad = cross_check_hv(front, ref.boxes.at(name));
    tally.pass(hv_bad.empty(), label + ": " + hv_bad);
    // The service result must equal run_job_body on the same body.
    auto fp = in_process.find(body_text);
    if (fp == in_process.end()) {
      const tsmo::obs::JobOutcome o =
          tsmo::run_job_body(body_text, tsmo::obs::JobContext{});
      fp = in_process.emplace(body_text, o.ok ? o.archive_fingerprint : 0)
               .first;
    }
    tally.pass(fp->second != 0 &&
                   fp->second == hex(field(status, "archive_fingerprint")),
               label + ": service and in-process fingerprints differ");

    const double latency = field(job, "latency_s").as_double();
    const double wait = field(status, "wait_seconds").as_double();
    const double run = field(status, "run_seconds").as_double();
    submit_ms.push_back(1e3 * field(job, "submit_s").as_double());
    for (const tsmo::JsonValue& s : field(job, "status_s").items()) {
      status_ms.push_back(1e3 * s.as_double());
    }
    result_ms.push_back(1e3 * field(job, "result_s").as_double());
    wait_ms.push_back(1e3 * wait);
    plane_ms.push_back(1e3 * (latency - run - wait));
    runner_ms.push_back(1e3 * (run - field(status, "wall_seconds").as_double()));
  }
  if (submit_ms.empty()) tally.pass(false, "no job finished");
  std::vector<Metric> m = {
      {"obs.submit_ms", median(submit_ms), "ms"},
      {"obs.status_ms", median(status_ms), "ms"},
      {"obs.result_ms", median(result_ms), "ms"},
      {"obs.queue_wait_ms", median(wait_ms), "ms"},
      {"obs.plane_overhead_ms", median(plane_ms), "ms"},
      {"harness.runner_overhead_ms", median(runner_ms), "ms"},
  };
  print_result(tally, tally.failed == 0, m);
  return 0;
}

// ---------------------------------------------------------------------------
// Calibration: boxes and targets from reference runs
// ---------------------------------------------------------------------------


int calibrate(const std::vector<std::uint64_t>& seeds) {
  // Every reference front, by target key, with its instance.
  std::map<std::string, std::vector<std::vector<Point>>> fronts;
  std::map<std::string, std::string> instance_of;
  for (const Workload& w : workloads()) {
    std::vector<tsmo::Instance> insts;
    for (const std::string& n : w.instances) insts.push_back(tsmo::generate_named(n));
    for (std::uint64_t s : seeds) {
      for (std::size_t i = 0; i < insts.size(); ++i) {
        tsmo::RunResult r;
        run_sequential(insts[i], params_for(w, s), r);
        const std::string key = w.name + "/" + insts[i].name();
        fronts[key].push_back(points_of(r));
        instance_of[key] = insts[i].name();
      }
    }
  }
  // Box per instance: the reference fronts' extent with a 5% margin on the
  // continuous objectives and one vehicle on the integer one.
  std::map<std::string, Box> boxes;
  for (const auto& [key, list] : fronts) {
    const std::string& inst = instance_of[key];
    auto [it, fresh] = boxes.try_emplace(inst);
    Box& b = it->second;
    for (const auto& f : list) {
      for (const Point& p : f) {
        if (fresh) {
          b.lo = b.hi = p;
          fresh = false;
        }
        b.lo.distance = std::min(b.lo.distance, p.distance);
        b.lo.vehicles = std::min(b.lo.vehicles, p.vehicles);
        b.hi.distance = std::max(b.hi.distance, p.distance);
        b.hi.vehicles = std::max(b.hi.vehicles, p.vehicles);
        b.hi.tardiness = std::max(b.hi.tardiness, p.tardiness);
      }
    }
  }
  for (auto& [name, b] : boxes) {
    b.lo = {0.95 * b.lo.distance, b.lo.vehicles - 1, 0.0};
    b.hi = {1.05 * b.hi.distance, b.hi.vehicles + 1,
            b.hi.tardiness > 0 ? 1.05 * b.hi.tardiness : 1.0};
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"seeds\": [";
  for (std::size_t i = 0; i < seeds.size(); ++i) os << (i ? ", " : "") << seeds[i];
  os << "],\n  \"boxes\": {";
  bool first = true;
  for (const auto& [name, b] : boxes) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"lo\": ["
       << b.lo.distance << ", " << b.lo.vehicles << ", " << b.lo.tardiness
       << "], \"hi\": [" << b.hi.distance << ", " << b.hi.vehicles << ", "
       << b.hi.tardiness << "]}";
    first = false;
  }
  os << "\n  },\n  \"targets\": {";
  first = true;
  for (const auto& [key, list] : fronts) {
    std::vector<double> hv;
    for (const auto& f : list) {
      hv.push_back(perfbench::normalized_hypervolume(f, boxes[instance_of[key]]));
    }
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": " << median(hv);
    first = false;
  }
  os << "\n  }\n}\n";
  std::cout << os.str();
  return 0;
}

// ---------------------------------------------------------------------------
// Findings quoted in the README, reproducible from the same code
// ---------------------------------------------------------------------------

int findings(const std::vector<std::uint64_t>& seeds, const Reference& ref) {
  std::cout.precision(4);
  // 1-2: uniform against pruned sampling on RC2_4_1 at 100k evaluations.
  const tsmo::Instance rc2 = tsmo::generate_named("RC2_4_1");
  for (int k : {0, 16}) {
    Workload w = workload_named("paper-400");
    w.candidate_k = k;
    std::vector<double> hv, gen;
    for (std::uint64_t s : seeds) {
      SeqTrace tr;
      bool ok = false;
      const tsmo::RunResult r = run_traced(rc2, params_for(w, s), tr, ok);
      hv.push_back(perfbench::normalized_hypervolume(points_of(r),
                                                     ref.boxes.at("RC2_4_1")));
      gen.push_back(tr.generate * 1e5 / tr.generated);
    }
    std::cout << "RC2_4_1 candidate_k " << k
              << ": generate_candidates s per 100k evaluations, median "
              << median(gen) << "; hv_at_budget median " << median(hv)
              << "\n";
  }
  // 3: feasible front members on R1_4_1 against the I1 start solution.
  const tsmo::Instance r1 = tsmo::generate_named("R1_4_1");
  for (std::int64_t budget : {100000, 400000}) {
    for (std::uint64_t s : seeds) {
      tsmo::TsmoParams p = params_for(workload_named("paper-400"), s);
      p.max_evaluations = budget;
      tsmo::RunResult r;
      const OpRecord rec = run_sequential(r1, p, r);
      const Point start = rec.insertions.front().second;
      int feasible = 0, is_start = 0;
      for (const Point& q : rec.front) {
        if (q.tardiness != 0.0) continue;
        ++feasible;
        if (q.distance == start.distance && q.vehicles == start.vehicles) {
          ++is_start;
        }
      }
      std::cout << "R1_4_1 " << budget << " evaluations seed " << s << ": "
                << feasible << " feasible member(s), " << is_start
                << " of them the I1 start solution\n";
    }
  }
  // Multisearch wall time at neighborhood 200 on R1_6_1, width 1 and full.
  const tsmo::Instance r16 = tsmo::generate_named("R1_6_1");
  const int full = static_cast<int>(
      std::max(1U, std::thread::hardware_concurrency()));
  for (int width : {1, full}) {
    std::vector<double> walls;
    for (std::uint64_t s : seeds) {
      const tsmo::TsmoParams p = paper_params(0, 100000, s);
      walls.push_back(run_engine("coll", r16, p, width).wall);
    }
    std::sort(walls.begin(), walls.end());
    std::cout << "MultisearchTsmo P=4, 100k evaluations per searcher, width "
              << width << ": " << walls.front() << "-" << walls.back()
              << " s\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------

std::map<std::string, std::string> options(int argc, char** argv, int from,
                                           std::vector<std::string>& rest) {
  std::map<std::string, std::string> opts;
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      opts[a.substr(2)] = argv[++i];
    } else {
      rest.push_back(a);
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("missing mode");
    const std::string mode = argv[1];
    std::vector<std::string> rest;
    auto opts = options(argc, argv, 2, rest);
    const auto opt = [&](const std::string& k) {
      const auto it = opts.find(k);
      if (it == opts.end()) throw std::invalid_argument("missing --" + k);
      return it->second;
    };
    if (mode == "run") {
      const Workload& w = workload_named(opt("workload"));
      const std::uint64_t seed = std::stoull(opt("seed"));
      const double seconds = std::stod(opt("seconds"));
      const bool traced = opt("trace") == "1";
      const Reference ref = load_reference(opt("reference"));
      return run_sequential_workload(w, seed, seconds, traced, ref);
    }
    if (mode == "bodies") {
      for (const auto& [key, body] : job_bodies(std::stoi(opt("variant")))) {
        std::cout << key << "\t" << body << "\n";
      }
      return 0;
    }
    if (mode == "check-jobs") {
      if (rest.size() != 1) throw std::invalid_argument("check-jobs FILE");
      return check_jobs(rest[0], load_reference(opt("reference")));
    }
    const auto seeds = [&] {
      std::vector<std::uint64_t> out;
      for (const std::string& s : split(opt("seeds"), ',')) {
        out.push_back(std::stoull(s));
      }
      return out;
    };
    if (mode == "findings") {
      return findings(seeds(), load_reference(opt("reference")));
    }
    if (mode == "calibrate") return calibrate(seeds());
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
