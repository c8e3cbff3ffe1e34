#pragma once

// The asynchronous master iteration (§III.D, Algorithm 2), written once for
// AsyncTsmo and the hybrid islands, in both execution modes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/search_state.hpp"
#include "parallel/worker_team.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

/// Free-running master over a WorkerTeam: dispatch chunks of the current
/// solution's neighborhood to idle workers, generate the master's own
/// chunk, then wait until the decision function lets it continue — c1 a
/// worker is idle, c2 a collected neighbor dominates the current solution,
/// c3 it waited `wait_too_long_ms`, c4 the budget is spent — and select
/// from whatever arrived.  Stragglers join a later iteration's pool.
/// `Tag` names the engine's telemetry (kDispatched, kWait, kWaitNs).
template <class Tag>
class AsyncMaster {
 public:
  AsyncMaster(SearchState& state, WorkerTeam& team, int procs,
              double wait_too_long_ms)
      : state_(&state),
        team_(&team),
        chunk_(std::max(1, state.params().neighborhood_size / procs)),
        wait_too_long_ms_(wait_too_long_ms),
        busy_(static_cast<std::size_t>(team.num_workers()), false) {}

  /// One iteration; nullopt when the budget ran out with nothing to select.
  std::optional<SearchState::StepOutcome> iterate() {
    SearchState& state = *state_;
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      const std::int64_t headroom = state.params().max_evaluations -
                                    state.evaluations() - inflight_;
      if (busy_[w] || headroom < chunk_) continue;
      team_->submit(GenRequest{state.current(), chunk_, ++ticket_});
      busy_[w] = true;
      inflight_ += chunk_;
      TSMO_COUNT(Tag::kDispatched);
    }
    const int mine = state.budget_left(chunk_);
    if (mine > 0) state.generate_into(pool_, mine);
    drain(team_->try_collect());
    {
      TSMO_SPAN_TIMED(Tag::kWait, Tag::kWaitNs);
      TSMO_PROFILE_FRAME("channel.wait");
      const Timer wait_timer;
      for (;;) {
        const bool c1 = std::find(busy_.begin(), busy_.end(), false) !=
                        busy_.end();
        const bool c2 = std::any_of(
            pool_.begin(), pool_.end(), [&](const Candidate& c) {
              return dominates(c.obj, state.current()->objectives());
            });
        const bool c3 = wait_timer.elapsed_ms() >= wait_too_long_ms_;
        if (c1 || c2 || c3 || state.budget_exhausted()) break;
        drain(team_->collect_for(std::chrono::microseconds(200)));
      }
    }
    if (pool_.empty() && state.budget_exhausted()) return std::nullopt;
    const auto outcome = state.step_with_candidates(pool_);
    // The considered pool is consumed; results still in flight join the
    // pool of the iteration in which they arrive.
    pool_.clear();
    return outcome;
  }

 private:
  void drain(std::optional<GenResult> result) {
    while (result) {
      busy_[static_cast<std::size_t>(result->worker_id)] = false;
      inflight_ -= chunk_;
      state_->absorb(pool_, result->candidates);
      result = team_->try_collect();
    }
  }

  SearchState* state_;
  WorkerTeam* team_;
  int chunk_;
  double wait_too_long_ms_;
  std::vector<bool> busy_;
  std::int64_t inflight_ = 0;  ///< evaluations requested, not yet returned
  std::vector<Candidate> pool_;
  std::uint64_t ticket_ = 0;
};

/// Deterministic mode's logical schedule (DESIGN.md §7), replacing the
/// wall-clock decision function: every iteration runs `procs` chunks
/// within the remaining budget, seeded from a dedicated stream, and a
/// seeded straggler model defers a random subset of the non-leading chunks
/// to the next iteration's pool — the paper's "neighbors of a previous
/// solution" (Fig. 1) without arrival-order dependence.
class DeferSchedule {
 public:
  DeferSchedule(const TsmoParams& params, int procs, double defer_probability)
      : rng_(params.seed ^ 0xa57c5eedULL),
        procs_(procs),
        chunk_(std::max(1, params.neighborhood_size / procs)),
        defer_probability_(defer_probability) {}

  /// Sizes of this iteration's chunks.
  std::vector<int> chunks(const SearchState& state) const {
    std::int64_t total = std::min<std::int64_t>(
        std::int64_t{procs_} * chunk_,
        state.params().max_evaluations - state.evaluations());
    std::vector<int> sizes;
    for (; total > 0; total -= sizes.back()) {
      sizes.push_back(static_cast<int>(std::min<std::int64_t>(chunk_, total)));
    }
    return sizes;
  }

  /// The next chunk's RNG seed.
  std::uint64_t seed() { return rng_.next(); }

  /// Opens an iteration: its pool starts with last iteration's stragglers.
  std::vector<Candidate> take_deferred() {
    leading_ = true;
    return std::exchange(deferred_, {});
  }

  /// Charges a finished chunk to `state` and moves it into `pool`, or —
  /// unless it leads the iteration — with the straggler probability into
  /// the next iteration's pool.  Records the verdict in the trace under
  /// `tag`.  Returns whether the chunk was deferred.
  bool route(SearchState& state, std::vector<Candidate>& pool,
             std::vector<Candidate>& chunk, std::uint64_t tag) {
    const bool defer = !leading_ && rng_.chance(defer_probability_);
    leading_ = false;
    state.trace().record_event(RunTrace::kTagDefer, tag, defer ? 1 : 0);
    state.absorb(defer ? deferred_ : pool, chunk);
    return defer;
  }

 private:
  Rng rng_;
  int procs_;
  int chunk_;
  double defer_probability_;
  std::vector<Candidate> deferred_;
  bool leading_ = true;
};

}  // namespace tsmo
