#include "parallel/run_scope.hpp"

#include "core/sequential_tsmo.hpp"
#include "obs/flight_recorder.hpp"
#include "parallel/worker_team.hpp"

namespace tsmo {

RunScope::RunScope(const char* engine, [[maybe_unused]] const char* span,
                   const TsmoParams& params, ConvergenceRecorder* recorder,
                   LiveIntrospect* introspect,
                   [[maybe_unused]] const char* thread_label)
    : engine_(engine),
      trace_id_(params.trace_id),
      recorder_(recorder),
      trace_scope_(
          telemetry::TraceContext{params.trace_id, params.trace_parent_span}),
      own_introspect_(introspect == nullptr && params.introspect
                          ? std::make_unique<LiveIntrospect>(engine)
                          : nullptr),
      live_(introspect != nullptr ? introspect : own_introspect_.get()) {
  if (params.telemetry) telemetry::set_enabled(true);
  if (params.profile_hz > 0) prof::start(params.profile_hz);
#if TSMO_TELEMETRY_ENABLED
  span_.emplace(span);
  frame_.emplace(prof::register_frame_name(span));
  if (thread_label != nullptr && telemetry::enabled()) {
    telemetry::Registry::instance().set_thread_label(thread_label);
  }
#endif
}

void RunScope::started(int searchers, int workers) const {
  obs::flight_engine_start(engine_, searchers, workers, trace_id_);
  if (recorder_) recorder_->engine_started(engine_, searchers, workers);
}

void RunScope::attach(SearchState& state) {
  if (recorder_) state.set_recorder(recorder_);
  if (live_ != nullptr) state.set_introspect(live_);
  std::lock_guard<std::mutex> lock(stall_mutex_);
  const auto id = static_cast<std::size_t>(state.trace_id());
  if (id < stall_states_.size()) stall_states_[id] = &state;
}

void RunScope::attach(WorkerTeam& team, const std::string& prefix) const {
  if (recorder_) team.enable_heartbeats(*recorder_, prefix);
}

void RunScope::enable_stall_restart(int searchers) {
  if (recorder_ == nullptr) return;
  stall_states_.assign(static_cast<std::size_t>(searchers), nullptr);
  recorder_->set_stall_action([this](int id) {
    std::lock_guard<std::mutex> lock(stall_mutex_);
    if (id >= 0 && id < static_cast<int>(stall_states_.size()) &&
        stall_states_[static_cast<std::size_t>(id)] != nullptr) {
      stall_states_[static_cast<std::size_t>(id)]->request_restart();
    }
  });
}

void RunScope::finished(std::int64_t iterations) {
  if (recorder_) {
    // Clearing the action blocks out any in-flight watchdog invocation,
    // so it can no longer touch a searcher after this line.
    if (!stall_states_.empty()) recorder_->set_stall_action(nullptr);
    recorder_->engine_finished(iterations);
  }
  obs::flight_engine_finish(engine_, iterations, trace_id_);
}

RunResult RunScope::finish(const SearchState& state) {
  finished(state.iterations());
  return collect_result(state, engine_, timer_.elapsed_seconds());
}

MultisearchResult RunScope::finish(std::vector<RunResult> per_searcher,
                                   std::int64_t sent, std::int64_t accepted) {
  MultisearchResult result;
  result.per_searcher = std::move(per_searcher);
  result.merged = merge_results(result.per_searcher, engine_);
  result.merged.wall_seconds = timer_.elapsed_seconds();
  result.merged.refresh_throughput();
  result.messages_sent = sent;
  result.messages_accepted = accepted;
  finished(result.merged.iterations);
  return result;
}

}  // namespace tsmo
