#include "parallel/hybrid_tsmo.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "parallel/async_master.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/collab.hpp"
#include "parallel/worker_team.hpp"
#include "util/telemetry.hpp"

namespace tsmo {

namespace {

struct HybridTag {
  static constexpr const char* kEngine = "hybrid";
  static constexpr const char* kIteration = "hybrid.iteration";
  static constexpr const char* kSent = "hybrid.messages_sent";
  static constexpr const char* kReceived = "hybrid.messages_received";
  static constexpr const char* kAccepted = "hybrid.messages_accepted";
  static constexpr const char* kMailbox = "island";
  static constexpr const char* kThread = "hybrid island";
  static constexpr const char* kDispatched = "hybrid.chunks_dispatched";
  static constexpr const char* kWait = "hybrid.wait";
  static constexpr const char* kWaitNs = "hybrid.wait_ns";
};

/// A hybrid island: a collaborating searcher whose step is one
/// asynchronous master iteration — over its own WorkerTeam when
/// free-running, or under the deterministic schedule with its chunks
/// generated inline on the island's thread.
struct Island : CollabSearcher {
  Island(const Instance& inst, const TsmoParams& base, int id, int islands,
         int procs, const std::shared_ptr<const CandidateList>& cands,
         RunScope& scope, const HybridOptions& options)
      : CollabSearcher(inst, base, id, islands, 0x9d2c5680ULL, cands, scope),
        schedule_(peer.params(), procs, options.defer_probability) {
    if (options.deterministic) {
      generate_.emplace(inst, peer.params(), cands.get());
      return;
    }
    team_ = std::make_unique<WorkerTeam>(inst, procs - 1, peer.params(),
                                         cands);
    scope.attach(*team_, "island " + std::to_string(id) + " worker");
    master_.emplace(state, *team_, procs, AsyncOptions{}.wait_too_long_ms);
  }

  std::optional<SearchState::StepOutcome> step() {
    if (master_) return master_->iterate();
    if (state.budget_exhausted()) return std::nullopt;
    std::vector<Candidate> pool = schedule_.take_deferred();
    for (int count : schedule_.chunks(state)) {
      Rng chunk_rng(schedule_.seed());
      std::vector<Candidate> chunk =
          (*generate_)(state.current(), count, chunk_rng);
      TSMO_COUNT("hybrid.chunks_dispatched");
      if (schedule_.route(state, pool, chunk,
                          static_cast<std::uint64_t>(count))) {
        TSMO_COUNT("hybrid.chunks_deferred");
      }
    }
    return state.step_with_candidates(pool);
  }

 private:
  DeferSchedule schedule_;
  std::optional<ChunkGenerator> generate_;
  std::unique_ptr<WorkerTeam> team_;
  std::optional<AsyncMaster<HybridTag>> master_;
};

}  // namespace

MultisearchResult HybridTsmo::run() const {
  const bool det = options_.deterministic;
  RunScope scope("hybrid", "run.hybrid", params_, options_.recorder,
                 options_.introspect);
  const int k = std::max(2, islands_);
  const int procs = std::max(2, procs_per_island_);
  // candidate_k is never perturbed, so every island shares one list.
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  if (!det && options_.stall_restart) scope.enable_stall_restart(k);
  scope.started(k, det ? 0 : k * (procs - 1));
  return run_collab<HybridTag>(
      scope, k, det, options_.exec_threads, [&](int id) {
        return std::make_unique<Island>(*inst_, params_, id, k, procs, cands,
                                        scope, options_);
      });
}

}  // namespace tsmo
