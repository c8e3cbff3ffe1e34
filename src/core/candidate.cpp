#include "core/candidate.hpp"

namespace tsmo {

NeighborhoodGenerator make_generator(const MoveEngine& engine,
                                     const TsmoParams& params) {
  return NeighborhoodGenerator(engine, params.operator_weights,
                               params.feasibility_screen,
                               params.batch_pricing);
}

ChunkGenerator::ChunkGenerator(const Instance& inst, const TsmoParams& params,
                               const CandidateList* cands)
    : engine_(std::make_unique<MoveEngine>(inst)),
      generator_(make_generator(*engine_, params)) {
  if (cands != nullptr) engine_->set_candidate_list(cands);
}

std::vector<Candidate> ChunkGenerator::operator()(
    std::shared_ptr<const Solution> base, int count, Rng& rng,
    int origin) const {
  std::vector<Candidate> out =
      make_candidates(generator_, std::move(base), count, rng);
  for (Candidate& c : out) c.origin = static_cast<std::int16_t>(origin);
  return out;
}

std::vector<Candidate> make_candidates(
    const NeighborhoodGenerator& generator,
    std::shared_ptr<const Solution> base, int count, Rng& rng) {
  const std::vector<Neighbor> neighbors =
      generator.generate(*base, count, rng);
  std::vector<Candidate> out;
  out.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out.push_back(Candidate{n.obj, n.move, n.creates, n.destroys, base});
  }
  return out;
}

Solution materialize(const MoveEngine& engine, const Candidate& c) {
  Solution s = *c.base;
  engine.apply(s, c.move);
  return s;
}

std::vector<std::size_t> nondominated_indices(
    const std::vector<Candidate>& candidates) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < candidates.size() && keep; ++j) {
      if (j == i) continue;
      if (dominates(candidates[j].obj, candidates[i].obj)) keep = false;
      if (j < i && candidates[j].obj == candidates[i].obj) keep = false;
    }
    if (keep) out.push_back(i);
  }
  return out;
}

}  // namespace tsmo
