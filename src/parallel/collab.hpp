#pragma once

// The collaboration protocol of the multisearch TSMO (§III.E), written once
// for the collaborative multisearch, the hybrid islands and their
// virtual-clock counterparts in src/sim.
//
// Every searcher but the first perturbs its parameters; each owns a full
// evaluation budget.  After its initial phase (which ends the first time
// it goes `restart_after` iterations without improving its archive), a
// searcher that adds a solution to its archive sends that solution to
// exactly one peer — the head of its private, shuffled communication list,
// which is then rotated.  The receiver tries to store it in its M_nondom.

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/sequential_tsmo.hpp"
#include "parallel/channel.hpp"
#include "parallel/run_scope.hpp"
#include "parallel/thread_pool.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace tsmo {

/// One searcher's side of the protocol.
class CollabPeer {
 public:
  /// Derives searcher `id`'s parameters from `base` with an RNG seeded
  /// `base.seed + id * salt` (each engine has its own salt): searcher 0
  /// keeps the base, the others perturb it; all get the full budget and a
  /// fresh seed.  Then shuffles the list over the other `peers - 1`.
  CollabPeer(const TsmoParams& base, int id, int peers, std::uint64_t salt);

  const TsmoParams& params() const noexcept { return params_; }

  /// Call after every step: the peer the current solution goes to (then
  /// rotated to the back of the list), or -1 when nothing is sent.
  int send_target(const SearchState& state, bool archive_improved);

 private:
  TsmoParams params_;
  std::vector<int> comm_;
  bool initial_phase_ = true;
};

/// A threaded collaborating searcher: its peer, then its SearchState
/// (trace id = searcher id), attached to the run's observers.
struct CollabSearcher {
  CollabSearcher(const Instance& inst, const TsmoParams& base, int id,
                 int peers, std::uint64_t salt,
                 std::shared_ptr<const CandidateList> cands, RunScope& scope);

  CollabPeer peer;
  SearchState state;
};

/// Runs `n` collaborating searchers; `make(id)` returns a unique_ptr to a
/// CollabSearcher subclass whose `step()` performs one search step and
/// returns its SearchState::StepOutcome, or nullopt once the budget is
/// spent.  Free-running, each searcher owns a thread and mails through a
/// channel.  Deterministic (DESIGN.md §7), the searchers advance in
/// lock-step rounds on `exec_threads` pool threads (0: one per searcher):
/// mail sent in round r arrives at the start of round r+1, delivered in
/// sender order, so the result is independent of the execution width.
/// `Tag` names the engine's telemetry (kEngine, kIteration, kSent,
/// kReceived, kAccepted, kMailbox, kThread).
template <class Tag, class Make>
MultisearchResult run_collab(RunScope& scope, int n, bool deterministic,
                             int exec_threads, Make make) {
  using Searcher = typename std::invoke_result_t<Make, int>::element_type;
  struct Slot {
    std::unique_ptr<Searcher> s;
    std::vector<Solution> inbox;
    std::vector<std::pair<int, Solution>> outbox;
    Timer timer;
    bool done = false;
    std::int64_t sent = 0;
    std::int64_t accepted = 0;
  };
  // Searcher and pool threads re-establish the run's ambient trace context
  // so their spans parent under the run span.
  const telemetry::TraceContext ctx = telemetry::current_trace();
  // Searchers live in their slots until the run is finished, so stall
  // verdicts routed to them (RunScope::attach) never outlive them.
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  std::vector<RunResult> per_searcher(slots.size());
  const auto finish = [&](int id) {
    Slot& slot = slots[static_cast<std::size_t>(id)];
    slot.done = true;
    per_searcher[static_cast<std::size_t>(id)] = collect_result(
        slot.s->state,
        std::string(Tag::kEngine) + "[" + std::to_string(id) + "]",
        slot.timer.elapsed_seconds());
  };
  // One iteration: take in the inbox, step, and queue an improvement for
  // the next peer on the list in the outbox; finishes the searcher once
  // its budget is spent.
  const auto iterate = [&](int id) {
    Slot& slot = slots[static_cast<std::size_t>(id)];
    SearchState& state = slot.s->state;
    TSMO_SPAN(Tag::kIteration);
    TSMO_PROFILE_FRAME(Tag::kIteration);
    for (const Solution& sol : slot.inbox) {
      TSMO_COUNT(Tag::kReceived);
      if (state.receive(sol)) {
        TSMO_COUNT(Tag::kAccepted);
        ++slot.accepted;
      }
    }
    slot.inbox.clear();
    const auto outcome = slot.s->step();
    if (!outcome) return finish(id);
    const int target =
        slot.s->peer.send_target(state, outcome->archive_improved);
    if (target < 0) return;
    state.trace().record_event(RunTrace::kTagSend,
                               static_cast<std::uint64_t>(target),
                               hash_objectives(state.current()->objectives()));
    TSMO_COUNT(Tag::kSent);
    slot.outbox.emplace_back(target, *state.current());
    ++slot.sent;
  };

  if (!deterministic) {
    std::vector<std::unique_ptr<Channel<Solution>>> mail;
    for (int i = 0; i < n; ++i) {
      mail.push_back(std::make_unique<Channel<Solution>>());
      TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
        mail.back()->enable_telemetry(Tag::kMailbox + std::to_string(i));
      })
    }
    std::vector<std::jthread> threads;
    for (int id = 0; id < n; ++id) {
      threads.emplace_back([&, id] {
        telemetry::TraceScope trace_scope(ctx);
        Slot& slot = slots[static_cast<std::size_t>(id)];
        TSMO_TELEMETRY_ONLY(if (telemetry::enabled()) {
          telemetry::Registry::instance().set_thread_label(
              std::string(Tag::kThread) + " " + std::to_string(id));
        })
        slot.s = make(id);
        slot.s->state.initialize();
        while (!slot.done && !slot.s->state.budget_exhausted()) {
          while (auto m = mail[static_cast<std::size_t>(id)]->try_pop()) {
            slot.inbox.push_back(std::move(*m));
          }
          iterate(id);
          for (auto& [target, sol] : slot.outbox) {
            mail[static_cast<std::size_t>(target)]->push(std::move(sol));
          }
          slot.outbox.clear();
        }
        if (!slot.done) finish(id);
      });
    }
    threads.clear();  // join
  } else {
    for (int id = 0; id < n; ++id) {
      slots[static_cast<std::size_t>(id)].s = make(id);
    }
    ThreadPool pool(
        static_cast<unsigned>(exec_threads > 0 ? exec_threads : n));
    // Runs `fn(id)` for every searcher still alive, one pool task each;
    // false when none is.
    const auto on_pool = [&](auto fn) {
      std::vector<std::future<void>> tasks;
      for (int id = 0; id < n; ++id) {
        if (slots[static_cast<std::size_t>(id)].done) continue;
        tasks.push_back(pool.submit([&fn, &ctx, id] {
          telemetry::TraceScope trace_scope(ctx);
          fn(id);
        }));
      }
      for (auto& t : tasks) t.get();
      return !tasks.empty();
    };
    on_pool([&](int id) {
      slots[static_cast<std::size_t>(id)].s->state.initialize();
    });
    // Lock-step rounds: mail sent in round r arrives at the start of round
    // r+1, delivered in sender order; a finished receiver drops it.
    while (on_pool(iterate)) {
      for (Slot& slot : slots) {
        for (auto& [target, sol] : slot.outbox) {
          Slot& to = slots[static_cast<std::size_t>(target)];
          if (!to.done) to.inbox.push_back(std::move(sol));
        }
        slot.outbox.clear();
      }
    }
  }
  std::int64_t sent = 0;
  std::int64_t accepted = 0;
  for (const Slot& slot : slots) {
    sent += slot.sent;
    accepted += slot.accepted;
  }
  return scope.finish(std::move(per_searcher), sent, accepted);
}

}  // namespace tsmo
