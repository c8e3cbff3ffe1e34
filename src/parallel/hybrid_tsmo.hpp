#pragma once

// Threaded hybrid of the paper's §V future work: islands of asynchronous
// master-worker groups (§III.D) that exchange improving solutions like the
// collaborative multisearch (§III.E).  The deterministic virtual-clock
// counterpart is run_sim_hybrid() in src/sim.
//
// Topology: `islands` master threads, each driving `procs_per_island - 1`
// generation workers (total processors = islands * procs_per_island).
// Every island owns a full evaluation budget, perturbs its parameters like
// a multisearch searcher (island 0 keeps the base), and after its initial
// phase sends archive improvements to one peer island at a time through a
// rotating communication list.

#include "core/run_result.hpp"
#include "core/search_state.hpp"
#include "parallel/multisearch_tsmo.hpp"

namespace tsmo {

struct HybridOptions {
  /// Deterministic replay mode (DESIGN.md §7): islands advance in
  /// lock-step rounds (messages sent in round r arrive in round r+1,
  /// sender-ordered) and each island runs the deterministic async chunk
  /// schedule — seeded chunk RNGs plus a seeded straggler model — with
  /// the chunks evaluated inline on the island's thread.  The same seed
  /// fingerprints identically for any `exec_threads`.
  bool deterministic = false;
  /// Threads executing island rounds; 0 selects one per island.
  /// Execution width only — never affects the result.
  int exec_threads = 0;
  /// Straggler model within each island (see AsyncOptions).
  double defer_probability = 0.25;
  /// Anytime convergence recorder (DESIGN.md §9); each island attaches
  /// under its island id and its generation workers get heartbeat gauges.
  /// Observation only, so deterministic fingerprints are identical with or
  /// without it.  Must outlive the run.
  ConvergenceRecorder* recorder = nullptr;
  /// Live search-introspection hub (DESIGN.md §14); every island's
  /// searcher registers its own slot.  Observation only.  When null and
  /// params.introspect is set, the run creates its own.  Must outlive
  /// the run.
  LiveIntrospect* introspect = nullptr;
  /// Opt-in stall reaction: a watchdog-flagged island searcher restarts
  /// from its memories on its next step (the engine's existing
  /// diversification path).  Ignored without a recorder or in
  /// deterministic mode; off by default (wall-clock dependent).
  bool stall_restart = false;
};

class HybridTsmo {
 public:
  HybridTsmo(const Instance& inst, const TsmoParams& params, int islands,
             int procs_per_island, HybridOptions options = {})
      : inst_(&inst),
        params_(params),
        islands_(islands),
        procs_per_island_(procs_per_island),
        options_(options) {}

  MultisearchResult run() const;

 private:
  const Instance* inst_;
  TsmoParams params_;
  int islands_;
  int procs_per_island_;
  HybridOptions options_;
};

}  // namespace tsmo
