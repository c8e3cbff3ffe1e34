#pragma once

// A Candidate is an evaluated potential next solution: a move, the
// objectives it yields, its tabu features, and a shared handle on the base
// solution the move applies to.
//
// Keeping the base alive matters for the asynchronous algorithm (§III.D):
// the master may select "solutions that were neighbors of a previous
// solution, but not evaluated at the time the algorithm continued" — i.e.
// candidates whose base is no longer the current solution.  Materializing
// a candidate therefore applies the move to *its own* base, never to the
// current solution.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "operators/neighborhood.hpp"
#include "vrptw/solution.hpp"

namespace tsmo {

struct Candidate {
  Objectives obj;
  Move move;
  MoveAttrs creates;
  MoveAttrs destroys;
  std::shared_ptr<const Solution> base;
  /// Generation worker that evaluated this candidate; -1 when the searcher
  /// produced it itself.  Stamped by WorkerTeam / the DES worker model and
  /// carried into the convergence recorder's contribution attribution.
  std::int16_t origin = -1;
};

/// The neighborhood generator `params` configures on `engine`: operator
/// weights, feasibility screen and pricing mode.  Searchers and the
/// workers generating on their behalf all build theirs here, so every
/// share of a neighborhood is drawn alike.
NeighborhoodGenerator make_generator(const MoveEngine& engine,
                                     const TsmoParams& params);

/// A private MoveEngine (candidate-list pruned when `cands` is set; the
/// list must outlive it) with the generator `params` configures: what a
/// worker needs to generate neighbors on a searcher's behalf.
class ChunkGenerator {
 public:
  ChunkGenerator(const Instance& inst, const TsmoParams& params,
                 const CandidateList* cands);

  /// `count` evaluated neighbors of `base` drawn from `rng`, stamped with
  /// the generating worker's id `origin`.
  std::vector<Candidate> operator()(std::shared_ptr<const Solution> base,
                                    int count, Rng& rng,
                                    int origin = -1) const;

 private:
  std::unique_ptr<MoveEngine> engine_;  ///< heap: generator_ points at it
  NeighborhoodGenerator generator_;
};

/// Wraps evaluated neighbors of `base` into candidates sharing one handle.
std::vector<Candidate> make_candidates(
    const NeighborhoodGenerator& generator,
    std::shared_ptr<const Solution> base, int count, Rng& rng);

/// Applies the candidate's move to a copy of its base.
Solution materialize(const MoveEngine& engine, const Candidate& c);

/// Indices of the non-dominated members of `candidates` (first occurrence
/// wins among duplicates).
std::vector<std::size_t> nondominated_indices(
    const std::vector<Candidate>& candidates);

}  // namespace tsmo
