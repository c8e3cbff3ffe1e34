#include "parallel/async_tsmo.hpp"

#include <algorithm>
#include <vector>

#include "parallel/async_master.hpp"
#include "parallel/run_scope.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

struct AsyncTag {
  static constexpr const char* kDispatched = "async.chunks_dispatched";
  static constexpr const char* kWait = "async.wait";
  static constexpr const char* kWaitNs = "async.wait_ns";
};

}  // namespace

RunResult AsyncTsmo::run() const {
  const bool det = options_.deterministic;
  RunScope scope("async", "run.async", params_, options_.recorder,
                 options_.introspect, "async master");
  const int procs = std::max(2, processors_);
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_,
                  det && options_.exec_threads > 0 ? options_.exec_threads
                                                   : procs - 1,
                  params_, cands);
  scope.started(1, team.num_workers());
  scope.attach(team, "async worker");
  if (!det && options_.stall_restart) scope.enable_stall_restart(1);
  scope.attach(state);
  state.initialize();

  if (!det) {
    AsyncMaster<AsyncTag> master(state, team, procs,
                                 options_.wait_too_long_ms);
    while (!state.budget_exhausted() && master.iterate()) {
    }
    return scope.finish(state);
  }

  DeferSchedule schedule(params_, procs, options_.defer_probability);
  std::uint64_t ticket = 0;
  while (!state.budget_exhausted()) {
    const std::vector<int> chunks = schedule.chunks(state);
    for (int count : chunks) {
      team.submit(
          GenRequest{state.current(), count, ++ticket, schedule.seed(), true});
    }
    state.trace().record_event(RunTrace::kTagDispatch, ticket,
                               static_cast<std::uint64_t>(chunks.size()));
    TSMO_COUNT_N("async.chunks_dispatched", chunks.size());

    // Every chunk completes, reassembled in ticket order; the straggler
    // model, not arrival order, decides which miss this selection.
    std::vector<GenResult> results;
    {
      TSMO_SPAN_TIMED("async.wait", "async.wait_ns");
      TSMO_PROFILE_FRAME("channel.wait");
      results = team.collect_in_order(static_cast<int>(chunks.size()));
    }
    std::vector<Candidate> pool = schedule.take_deferred();
    for (GenResult& r : results) {
      if (schedule.route(state, pool, r.candidates, r.ticket)) {
        TSMO_COUNT("async.chunks_deferred");
      }
    }
    state.step_with_candidates(pool);
  }
  // Chunks still deferred at exhaustion are dropped, like in-flight
  // results at termination of the wall-clock mode.
  return scope.finish(state);
}

}  // namespace tsmo
