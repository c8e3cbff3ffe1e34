#pragma once

// The lifecycle every parallel engine wraps around its search loop, written
// once: the caller's causal trace (DESIGN.md §13), telemetry and profiler
// arming with the `run.<engine>` span and frame (§8, §14), the flight
// recorder's and the convergence recorder's engine start/finish events
// (§9, §10), the live introspection hub, and the wall clock.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/search_state.hpp"
#include "parallel/multisearch_tsmo.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace tsmo {

class WorkerTeam;

class RunScope {
 public:
  /// Opens the run on the calling thread.  `span` must be the literal
  /// "run.<engine>"; `thread_label` (optional) names the calling thread in
  /// traces.  The introspection hub is `introspect`, or one the scope owns
  /// when that is null and params.introspect is set.
  RunScope(const char* engine, const char* span, const TsmoParams& params,
           ConvergenceRecorder* recorder, LiveIntrospect* introspect,
           const char* thread_label = nullptr);

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// Records the engine start with the flight ring and the recorder.
  void started(int searchers, int workers) const;
  /// Attaches the recorder (under the state's trace id) and the hub, and
  /// routes stall verdicts for that id to the state once enabled; the
  /// state must then outlive finish().
  void attach(SearchState& state);
  /// Gives each worker of `team` a recorder heartbeat ("<prefix> N").
  void attach(WorkerTeam& team, const std::string& prefix) const;
  /// Opt-in stall reaction (DESIGN.md §9): until finish(), the recorder's
  /// watchdog verdict for searcher id < `searchers` makes the attached
  /// state with that trace id restart from its memories on its next step.
  /// A no-op without a recorder.
  void enable_stall_restart(int searchers);

  /// Closes a single-searcher run and collects its result.
  RunResult finish(const SearchState& state);
  /// Closes a multi-searcher run: the merged front over `per_searcher`.
  MultisearchResult finish(std::vector<RunResult> per_searcher,
                           std::int64_t sent, std::int64_t accepted);

 private:
  void finished(std::int64_t iterations);

  const char* engine_;
  std::uint64_t trace_id_;
  ConvergenceRecorder* recorder_;
  telemetry::TraceScope trace_scope_;
#if TSMO_TELEMETRY_ENABLED
  std::optional<telemetry::Span> span_;
  std::optional<prof::Frame> frame_;
#endif
  std::unique_ptr<LiveIntrospect> own_introspect_;
  LiveIntrospect* live_;
  std::mutex stall_mutex_;
  std::vector<SearchState*> stall_states_;  ///< by trace id, when enabled
  Timer timer_;
};

}  // namespace tsmo
