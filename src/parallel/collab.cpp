#include "parallel/collab.hpp"

#include <algorithm>

namespace tsmo {

CollabPeer::CollabPeer(const TsmoParams& base, int id, int peers,
                       std::uint64_t salt) {
  Rng rng(base.seed + static_cast<std::uint64_t>(id) * salt);
  params_ = id == 0 ? base : base.perturbed(rng);
  params_.max_evaluations = base.max_evaluations;
  params_.seed = rng.next();
  for (int k = 0; k < peers; ++k) {
    if (k != id) comm_.push_back(k);
  }
  for (std::size_t k = comm_.size(); k > 1; --k) {
    std::swap(comm_[k - 1], comm_[rng.below(k)]);
  }
}

int CollabPeer::send_target(const SearchState& state, bool archive_improved) {
  if (initial_phase_ &&
      state.iterations_since_improvement() >= params_.restart_after) {
    initial_phase_ = false;  // stagnated once: start collaborating
  }
  if (initial_phase_ || !archive_improved || comm_.empty()) return -1;
  const int target = comm_.front();
  std::rotate(comm_.begin(), comm_.begin() + 1, comm_.end());
  return target;
}

CollabSearcher::CollabSearcher(const Instance& inst, const TsmoParams& base,
                               int id, int peers, std::uint64_t salt,
                               std::shared_ptr<const CandidateList> cands,
                               RunScope& scope)
    : peer(base, id, peers, salt),
      state(inst, peer.params(), Rng(peer.params().seed), std::move(cands)) {
  state.set_trace_id(id);
  scope.attach(state);
}

}  // namespace tsmo
