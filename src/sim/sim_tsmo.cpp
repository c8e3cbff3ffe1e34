#include "sim/sim_tsmo.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/sequential_tsmo.hpp"
#include "obs/flight_recorder.hpp"
#include "parallel/collab.hpp"
#include "sim/des.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One simulated generation worker: its own engine and RNG stream, an
/// absolute completion time, and the (already computed) result that
/// becomes visible to the master at that time.
class SimWorker {
 public:
  /// `cands` must outlive the worker.
  SimWorker(const Instance& inst, int id, Rng rng, const TsmoParams& params,
            const CandidateList* cands)
      : generate_(inst, params, cands), rng_(rng), id_(id) {}

  bool busy() const noexcept { return busy_; }
  double done_time() const noexcept { return done_time_; }

  /// Dispatches a chunk at virtual time `start`; the candidates are
  /// computed now (against the base as of dispatch) but hidden until
  /// done_time().
  void dispatch(std::shared_ptr<const Solution> base, int count,
                double start, const CostModel& cost, Rng& noise_rng) {
    result_ = generate_(std::move(base), count, rng_, id_);
    const double work = static_cast<double>(result_.size()) * cost.eval_us *
                        cost.straggler_noise(noise_rng);
    done_time_ = start + cost.msg_us + work;
    busy_us_ += cost.msg_us + work;
    busy_ = true;
  }

  /// Collects the finished result (caller must check done_time <= now).
  std::vector<Candidate> collect() {
    busy_ = false;
    return std::move(result_);
  }

  /// Virtual µs this worker spent receiving + generating so far.
  double busy_us() const noexcept { return busy_us_; }

 private:
  ChunkGenerator generate_;
  Rng rng_;
  std::vector<Candidate> result_;
  double done_time_ = kInf;
  double busy_us_ = 0.0;
  bool busy_ = false;
  int id_ = -1;
};

/// Exports the virtual utilization of simulated workers as the same
/// `worker.<id>.busy_ns` / `.idle_ns` gauges the real WorkerTeam maintains,
/// so table benches (which run on the DES substrate) report per-worker
/// utilization too.  Virtual µs are scaled to ns; idle = total − busy.
void export_sim_worker_gauges(
    [[maybe_unused]] const std::vector<SimWorker>& workers,
    [[maybe_unused]] double total_us) {
  TSMO_TELEMETRY_ONLY(if (!telemetry::enabled()) return;
  auto& reg = telemetry::Registry::instance();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double busy_us = workers[i].busy_us();
    const double idle_us = std::max(0.0, total_us - busy_us);
    const std::string prefix = "worker." + std::to_string(i);
    reg.gauge_add(reg.gauge(prefix + ".busy_ns"),
                  static_cast<std::int64_t>(busy_us * 1e3));
    reg.gauge_add(reg.gauge(prefix + ".idle_ns"),
                  static_cast<std::int64_t>(idle_us * 1e3));
  })
}

/// The `procs - 1` generation workers of a simulated master, with the RNG
/// streams WorkerTeam would derive from params.seed.
std::vector<SimWorker> make_sim_workers(
    const Instance& inst, int procs, const TsmoParams& params,
    const std::shared_ptr<const CandidateList>& cands) {
  Rng stream_seed(params.seed ^ 0x5eedF00dULL);
  std::vector<SimWorker> workers;
  workers.reserve(static_cast<std::size_t>(procs - 1));
  for (int w = 0; w < procs - 1; ++w) {
    workers.emplace_back(inst, w, stream_seed.split(), params, cands.get());
  }
  return workers;
}

double selection_cost(std::size_t pool_size, const CostModel& cost) {
  return static_cast<double>(pool_size) * cost.sel_per_cand_us +
         cost.iter_overhead_us;
}

/// A finished searcher's result with its virtual runtime `t_us`.
RunResult sim_result(const SearchState& state, const char* algorithm,
                     double t_us) {
  RunResult r = collect_result(state, algorithm, 0.0);
  r.sim_seconds = t_us * 1e-6;
  r.refresh_throughput();
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sequential (virtual Ts baseline)
// ---------------------------------------------------------------------------

RunResult run_sim_sequential(const Instance& inst, const TsmoParams& params,
                             const CostModel& cost) {
  if (params.telemetry) telemetry::set_enabled(true);
  TSMO_SPAN("run.sim-sequential");
  SearchState state(inst, params, Rng(params.seed));
  state.initialize();
  double t = cost.eval_us;  // initial construction
  while (!state.budget_exhausted()) {
    const int want = state.budget_left(params.neighborhood_size);
    if (want <= 0) break;
    const auto candidates = state.generate_candidates(want);
    t += static_cast<double>(candidates.size()) * cost.eval_us;
    t += selection_cost(candidates.size(), cost);
    state.step_with_candidates(candidates);
  }
  return sim_result(state, "sim-sequential", t);
}

// ---------------------------------------------------------------------------
// Synchronous master-worker
// ---------------------------------------------------------------------------

RunResult run_sim_sync(const Instance& inst, const TsmoParams& params,
                       int processors, const CostModel& cost) {
  if (params.telemetry) telemetry::set_enabled(true);
  TSMO_SPAN("run.sim-sync");
  const int procs = std::max(2, processors);
  const auto cands = make_candidate_list(inst, params.candidate_k);
  SearchState state(inst, params, Rng(params.seed), cands);
  state.initialize();
  Rng noise(params.seed ^ 0xd015eULL);
  std::vector<SimWorker> workers = make_sim_workers(inst, procs, params, cands);

  double t = cost.eval_us;  // initial construction
  while (!state.budget_exhausted()) {
    const int want = state.budget_left(params.neighborhood_size);
    if (want <= 0) break;
    const int chunk = want / procs;

    // Serial dispatch at the master: one solution transfer per worker.
    double dispatch_end = t;
    int dispatched = 0;
    if (chunk > 0) {
      for (SimWorker& w : workers) {
        dispatch_end += cost.msg_us + cost.transfer_solution_us;
        w.dispatch(state.current(), chunk, dispatch_end, cost, noise);
        ++dispatched;
      }
      TSMO_COUNT_N("sync.chunks_dispatched",
                   static_cast<std::uint64_t>(dispatched));
    }
    // Master's own share runs after dispatching.
    const int master_chunk = want - dispatched * chunk;
    std::vector<Candidate> pool = state.generate_candidates(master_chunk);
    double master_done =
        dispatch_end + static_cast<double>(pool.size()) * cost.eval_us;

    // Barrier: the iteration continues after the slowest participant,
    // then the master deserializes every returned chunk.
    double barrier = master_done;
    for (SimWorker& w : workers) {
      if (!w.busy()) continue;
      barrier = std::max(barrier, w.done_time());
    }
    for (SimWorker& w : workers) {
      if (!w.busy()) continue;
      auto part = w.collect();
      barrier += cost.msg_us + static_cast<double>(part.size()) *
                                   cost.transfer_per_cand_us;
      state.absorb(pool, part);
    }
    t = barrier + selection_cost(pool.size(), cost);
    state.step_with_candidates(pool);
  }
  export_sim_worker_gauges(workers, t);
  return sim_result(state, "sim-sync", t);
}

// ---------------------------------------------------------------------------
// Asynchronous master-worker — reusable core (also drives the hybrid)
// ---------------------------------------------------------------------------

namespace {

class AsyncSimCore {
 public:
  /// `cands` is the run's shared candidate list (null when unpruned).
  AsyncSimCore(const Instance& inst, const TsmoParams& params,
               int processors, const CostModel& cost,
               SimAsyncOptions options,
               const std::shared_ptr<const CandidateList>& cands)
      : cost_(cost),
        options_(std::move(options)),
        state_(inst, params, Rng(params.seed), cands),
        noise_(params.seed ^ 0xa57cULL),
        workers_(make_sim_workers(inst, std::max(2, processors), params,
                                  cands)) {
    chunk_ = std::max(1, params.neighborhood_size / std::max(2, processors));
    wait_too_long_us_ = options.wait_too_long_us > 0.0
                            ? options.wait_too_long_us
                            : 0.5 * static_cast<double>(chunk_) *
                                  cost.eval_us;
    if (options_.recorder) {
      state_.set_recorder(options_.recorder, options_.searcher_id);
    }
    state_.initialize();
  }

  SearchState& state() noexcept { return state_; }
  bool done() const noexcept { return state_.budget_exhausted(); }

  /// Publishes per-worker virtual utilization gauges up to time `total_us`.
  void export_worker_gauges(double total_us) const {
    export_sim_worker_gauges(workers_, total_us);
  }

  struct IterResult {
    double end_time = 0.0;
    bool archive_improved = false;
    bool progressed = false;  ///< false when the budget ran out instead
  };

  /// One master macro-iteration starting no earlier than `now`.
  IterResult iterate(double now) {
    if (done()) return IterResult{now};
    double t = now;

    // Dispatch fresh chunks to idle workers while the budget leaves room.
    for (SimWorker& w : workers_) {
      const std::int64_t headroom = state_.params().max_evaluations -
                                    state_.evaluations() - inflight_;
      if (w.busy() || headroom < chunk_) continue;
      t += cost_.msg_us + cost_.transfer_solution_us;
      w.dispatch(state_.current(), chunk_, t, cost_, noise_);
      inflight_ += chunk_;
      TSMO_COUNT("async.chunks_dispatched");
    }

    // Master's own share.
    const int master_chunk = state_.budget_left(chunk_);
    if (master_chunk > 0) {
      t += static_cast<double>(state_.generate_into(pool_, master_chunk)) *
           cost_.eval_us;
    }
    t = collect_arrived(t);

    // Algorithm 2 on the virtual clock.
    const double wait_start = t;
    for (;;) {
      const bool c1 = std::any_of(workers_.begin(), workers_.end(),
                                  [](const SimWorker& w) {
                                    return !w.busy();
                                  });
      const bool c2 = std::any_of(
          pool_.begin(), pool_.end(), [&](const Candidate& c) {
            return dominates(c.obj, state_.current()->objectives());
          });
      const bool c4 = state_.budget_exhausted();
      if ((options_.use_c1 && c1) || (options_.use_c2 && c2) || c4) break;
      const double next = next_completion();
      if (next == kInf) break;  // nothing in flight: waiting is pointless
      if (next > wait_start + wait_too_long_us_) {
        t = wait_start + wait_too_long_us_;  // c3
        break;
      }
      t = collect_arrived(next);
    }

    if (pool_.empty() && state_.budget_exhausted()) return IterResult{t};
    t += selection_cost(pool_.size(), cost_);
    std::vector<Objectives> pool_objs;
    if (options_.observer) {
      pool_objs.reserve(pool_.size());
      for (const Candidate& c : pool_) pool_objs.push_back(c.obj);
    }
    const auto step = state_.step_with_candidates(pool_);
    pool_.clear();
    if (options_.observer) {
      SimAsyncIterationEvent ev;
      ev.iteration = state_.iterations();
      ev.virtual_time_s = t * 1e-6;
      ev.pool = std::move(pool_objs);
      ev.selected = state_.current()->objectives();
      ev.restarted = step.restarted;
      options_.observer(ev);
    }
    return IterResult{t, step.archive_improved, true};
  }

 private:
  double next_completion() const {
    double next = kInf;
    for (const SimWorker& w : workers_) {
      if (w.busy()) next = std::min(next, w.done_time());
    }
    return next;
  }

  /// Moves every result with done_time <= t into the pool, charging the
  /// master's receive costs; returns the advanced master time.
  double collect_arrived(double t) {
    for (SimWorker& w : workers_) {
      if (!w.busy() || w.done_time() > t) continue;
      auto part = w.collect();
      inflight_ -= chunk_;
      t += cost_.msg_us + static_cast<double>(part.size()) *
                              cost_.transfer_per_cand_us;
      state_.absorb(pool_, part);
    }
    return t;
  }

  CostModel cost_;
  SimAsyncOptions options_;
  SearchState state_;
  Rng noise_;
  std::vector<SimWorker> workers_;
  std::vector<Candidate> pool_;
  int chunk_ = 1;
  std::int64_t inflight_ = 0;
  double wait_too_long_us_ = 0.0;
};

}  // namespace

RunResult run_sim_async(const Instance& inst, const TsmoParams& params,
                        int processors, const CostModel& cost,
                        SimAsyncOptions options) {
  if (params.telemetry) telemetry::set_enabled(true);
  TSMO_SPAN("run.sim-async");
  ConvergenceRecorder* rec = options.recorder;
  obs::flight_engine_start("sim-async", 1, std::max(2, processors) - 1);
  if (rec) {
    rec->engine_started("sim-async", 1, std::max(2, processors) - 1);
  }
  AsyncSimCore core(inst, params, processors, cost, std::move(options),
                    make_candidate_list(inst, params.candidate_k));
  double t = cost.eval_us;  // initial construction
  while (!core.done()) {
    const auto iter = core.iterate(t);
    t = iter.end_time;
    if (!iter.progressed) break;
  }
  core.export_worker_gauges(t);
  obs::flight_engine_finish("sim-async", core.state().iterations());
  if (rec) rec->engine_finished(core.state().iterations());
  return sim_result(core.state(), "sim-async", t);
}

// ---------------------------------------------------------------------------
// Collaborative drivers on the DES: multisearch and the hybrid islands
// ---------------------------------------------------------------------------

namespace {

/// When a node's iteration ends: at `base + rel`; a solution it sends
/// first adds the send cost to `rel`, then arrives at
/// `base + (rel + msg_us)`.  Nodes timing relative to now set base = now,
/// nodes with an absolute end time base = 0, which keeps each driver's
/// virtual-time arithmetic bit for bit what it always was.
struct SimNext {
  double base = 0.0;
  double rel = 0.0;
};

/// Runs collaborating nodes — each with `peer`, `mailbox`, `finish_time`,
/// `state()`, `export_gauges()` and `advance(now, mail_us, improved)`,
/// which returns nullopt, after setting finish_time, once the node is
/// done — as one self-rescheduling iteration event each from `start`;
/// solution messages are delivered with latency (§III.E).
template <class Node>
MultisearchResult run_sim_collab(const char* algorithm,
                                 std::vector<std::unique_ptr<Node>>& nodes,
                                 double start, const CostModel& cost) {
  MultisearchResult result;
  Simulation sim;
  std::function<void(int)> do_step = [&](int id) {
    Node& node = *nodes[static_cast<std::size_t>(id)];
    if (node.state().budget_exhausted()) {
      node.finish_time = sim.now();
      return;
    }
    double mail_us = 0.0;
    for (const Solution& incoming : node.mailbox) {
      mail_us += cost.msg_us;  // reception handling
      if (node.state().receive(incoming)) ++result.messages_accepted;
    }
    node.mailbox.clear();
    bool improved = false;
    std::optional<SimNext> next = node.advance(sim.now(), mail_us, improved);
    if (!next) return;
    const int target = node.peer.send_target(node.state(), improved);
    if (target >= 0) {
      next->rel += cost.msg_us + cost.transfer_solution_us;
      ++result.messages_sent;
      sim.schedule_at(next->base + (next->rel + cost.msg_us),
                      [&nodes, target, payload = *node.state().current()] {
                        nodes[static_cast<std::size_t>(target)]
                            ->mailbox.push_back(payload);
                      });
    }
    sim.schedule_at(next->base + next->rel, [&, id] { do_step(id); });
  };
  for (int id = 0; id < static_cast<int>(nodes.size()); ++id) {
    sim.schedule_at(start, [&, id] { do_step(id); });
  }
  sim.run();
  for (auto& node : nodes) {
    node->export_gauges();
    result.per_searcher.push_back(
        sim_result(node->state(), algorithm, node->finish_time));
  }
  result.merged = merge_results(result.per_searcher, algorithm);
  return result;
}

/// A node's side of the collaboration: protocol, inbox, finish time.
struct SimPeer {
  CollabPeer peer;
  std::vector<Solution> mailbox{};
  double finish_time = 0.0;
};

/// A multisearch searcher: one sequential TSMO iteration per event,
/// slowed by its peers' contention.
struct SimSearcher : SimPeer {
  SimSearcher(const Instance& inst, const TsmoParams& params, int id,
              int procs, const CostModel& cost,
              const std::shared_ptr<const CandidateList>& cands)
      : SimPeer{CollabPeer(params, id, procs, 0x51ed2701ULL)},
        search(inst, peer.params(), Rng(peer.params().seed), cands),
        cost(&cost),
        contention(cost.contention_factor(procs)) {
    search.initialize();
  }

  SearchState& state() { return search; }
  void export_gauges() const {}

  std::optional<SimNext> advance(double now, double dt, bool& improved) {
    const int want = search.budget_left(peer.params().neighborhood_size);
    if (want <= 0) {
      finish_time = now;
      return std::nullopt;
    }
    const auto candidates = search.generate_candidates(want);
    improved = search.step_with_candidates(candidates).archive_improved;
    dt += static_cast<double>(candidates.size()) * cost->eval_us;
    dt += selection_cost(candidates.size(), *cost);
    return SimNext{now, dt * contention};
  }

  SearchState search;
  const CostModel* cost;
  double contention;
};

/// A hybrid island: an asynchronous master-worker group whose iterations
/// stretch by the islands' contention.
struct SimIsland : SimPeer {
  SimIsland(const Instance& inst, const TsmoParams& params, int id, int k,
            int procs, const CostModel& cost,
            const std::shared_ptr<const CandidateList>& cands)
      : SimPeer{CollabPeer(params, id, k, 0x9d2c5680ULL)},
        core(inst, peer.params(), procs, cost, SimAsyncOptions{}, cands),
        contention(cost.contention_factor(k)) {}

  SearchState& state() { return core.state(); }
  void export_gauges() const { core.export_worker_gauges(finish_time); }

  std::optional<SimNext> advance(double now, double mail_us, bool& improved) {
    const auto iter = core.iterate(now + mail_us);
    if (!iter.progressed) {
      finish_time = iter.end_time;
      return std::nullopt;
    }
    improved = iter.archive_improved;
    return SimNext{0.0, now + (iter.end_time - now) * contention};
  }

  AsyncSimCore core;
  double contention;
};

}  // namespace

MultisearchResult run_sim_multisearch(const Instance& inst,
                                      const TsmoParams& params,
                                      int processors,
                                      const CostModel& cost) {
  if (params.telemetry) telemetry::set_enabled(true);
  TSMO_SPAN("run.sim-coll");
  const int procs = std::max(2, processors);
  const auto cands = make_candidate_list(inst, params.candidate_k);
  std::vector<std::unique_ptr<SimSearcher>> searchers;
  for (int id = 0; id < procs; ++id) {
    searchers.push_back(
        std::make_unique<SimSearcher>(inst, params, id, procs, cost, cands));
  }
  return run_sim_collab("sim-coll", searchers,
                        cost.eval_us * cost.contention_factor(procs), cost);
}

MultisearchResult run_sim_hybrid(const Instance& inst,
                                 const TsmoParams& params, int islands,
                                 int procs_per_island,
                                 const CostModel& cost) {
  if (params.telemetry) telemetry::set_enabled(true);
  TSMO_SPAN("run.sim-hybrid");
  const int k = std::max(2, islands);
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(inst, params.candidate_k);
  std::vector<std::unique_ptr<SimIsland>> nodes;
  for (int id = 0; id < k; ++id) {
    nodes.push_back(std::make_unique<SimIsland>(
        inst, params, id, k, procs_per_island, cost, cands));
  }
  return run_sim_collab("sim-hybrid", nodes, cost.eval_us, cost);
}

}  // namespace tsmo
