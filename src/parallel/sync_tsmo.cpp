#include "parallel/sync_tsmo.hpp"

#include <algorithm>
#include <vector>

#include "parallel/run_scope.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

RunResult SyncTsmo::run() const {
  const bool det = options_.deterministic;
  RunScope scope("sync", "run.sync", params_, options_.recorder,
                 options_.introspect, "sync master");
  const int procs = std::max(2, processors_);
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  SearchState state(*inst_, params_, Rng(params_.seed), cands);
  WorkerTeam team(*inst_,
                  det && options_.exec_threads > 0 ? options_.exec_threads
                                                   : procs - 1,
                  params_, cands);
  scope.started(1, team.num_workers());
  scope.attach(team, "sync worker");
  scope.attach(state);
  state.initialize();
  // Deterministic chunk seeds come from a dedicated schedule stream, so the
  // logical candidate sequence depends only on (seed, procs) — not on the
  // execution width.
  Rng schedule(params_.seed ^ 0xdead5eedULL);

  std::uint64_t ticket = 0;
  while (!state.budget_exhausted()) {
    TSMO_SPAN("sync.round");
    TSMO_PROFILE_FRAME("sync.round");
    const int want = state.budget_left(params_.neighborhood_size);
    if (want <= 0) break;

    // Balanced `procs`-way partition of the neighborhood.  Deterministic
    // mode hands every chunk to the team with a schedule seed; otherwise
    // the master evaluates chunk 0 itself, from its own stream.
    int dispatched = 0;
    for (int c = det ? 0 : 1; c < procs; ++c) {
      const int count = (c + 1) * want / procs - c * want / procs;
      if (count <= 0) continue;
      team.submit(det ? GenRequest{state.current(), count, ++ticket,
                                   schedule.next(), true}
                      : GenRequest{state.current(), count, ++ticket});
      ++dispatched;
    }
    if (det) {
      state.trace().record_event(RunTrace::kTagDispatch, ticket,
                                 static_cast<std::uint64_t>(dispatched));
    }
    TSMO_COUNT_N("sync.chunks_dispatched", dispatched);
    std::vector<Candidate> pool;
    pool.reserve(static_cast<std::size_t>(want));
    if (!det && want / procs > 0) state.generate_into(pool, want / procs);

    // Barrier: wait for every chunk before selecting, and reassemble in
    // ticket order so the pool is independent of worker scheduling.
    std::vector<GenResult> results;
    {
      TSMO_SPAN_TIMED("sync.barrier", "sync.barrier_wait_ns");
      TSMO_PROFILE_FRAME("channel.wait");
      results = team.collect_in_order(dispatched);
    }
    for (GenResult& r : results) state.absorb(pool, r.candidates);
    state.step_with_candidates(pool);
  }
  return scope.finish(state);
}

}  // namespace tsmo
