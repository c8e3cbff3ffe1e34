#include "parallel/multisearch_tsmo.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "parallel/collab.hpp"
#include "util/trace.hpp"

namespace tsmo {

RunResult merge_results(const std::vector<RunResult>& results,
                        std::string algorithm) {
  RunResult merged;
  merged.algorithm = std::move(algorithm);
  for (const RunResult& r : results) {
    merged.evaluations += r.evaluations;
    merged.iterations += r.iterations;
    merged.restarts += r.restarts;
    merged.wall_seconds = std::max(merged.wall_seconds, r.wall_seconds);
    merged.sim_seconds = std::max(merged.sim_seconds, r.sim_seconds);
    merged.introspect.merge(r.introspect);
    merged.trace_fingerprint ^= r.trace_fingerprint;  // order-independent
    for (std::size_t i = 0; i < r.front.size(); ++i) {
      // The weak-dominance check also rejects exact duplicates, so an
      // objective vector reached by several searchers keeps exactly one
      // merged entry — and therefore one attribution row (first searcher
      // wins) — never double-counting a shared point.
      const Objectives& point = r.front[i];
      if (std::any_of(merged.front.begin(), merged.front.end(),
                      [&](const Objectives& o) {
                        return weakly_dominates(o, point);
                      })) {
        continue;
      }
      for (std::size_t j = merged.front.size(); j-- > 0;) {
        if (!dominates(point, merged.front[j])) continue;
        const auto at = static_cast<std::ptrdiff_t>(j);
        merged.front.erase(merged.front.begin() + at);
        merged.solutions.erase(merged.solutions.begin() + at);
        merged.attribution.erase(merged.attribution.begin() + at);
      }
      merged.front.push_back(r.front[i]);
      merged.solutions.push_back(r.solutions[i]);
      merged.attribution.push_back(i < r.attribution.size()
                                       ? r.attribution[i]
                                       : ArchiveAttribution{});
    }
  }
  merged.archive_fingerprint = archive_fingerprint(merged.front);
  merged.refresh_throughput();
  return merged;
}

namespace {

struct CollTag {
  static constexpr const char* kEngine = "coll";
  static constexpr const char* kIteration = "coll.iteration";
  static constexpr const char* kSent = "coll.messages_sent";
  static constexpr const char* kReceived = "coll.messages_received";
  static constexpr const char* kAccepted = "coll.messages_accepted";
  static constexpr const char* kMailbox = "mailbox";
  static constexpr const char* kThread = "coll searcher";
};

/// A multisearch searcher: each step is one sequential TSMO iteration.
struct CollSearcher : CollabSearcher {
  using CollabSearcher::CollabSearcher;

  std::optional<SearchState::StepOutcome> step() {
    const int want = state.budget_left(peer.params().neighborhood_size);
    if (state.budget_exhausted() || want <= 0) return std::nullopt;
    return state.step_with_candidates(state.generate_candidates(want));
  }
};

}  // namespace

MultisearchResult MultisearchTsmo::run() const {
  RunScope scope("coll", "run.coll", params_, options_.recorder,
                 options_.introspect);
  const int procs = std::max(2, processors_);
  // candidate_k is never perturbed, so every searcher shares one list.
  const auto cands = make_candidate_list(*inst_, params_.candidate_k);
  scope.started(procs, 0);
  return run_collab<CollTag>(
      scope, procs, options_.deterministic, options_.exec_threads,
      [&](int id) {
        return std::make_unique<CollSearcher>(*inst_, params_, id, procs,
                                              0x51ed2701ULL, cands, scope);
      });
}

}  // namespace tsmo
