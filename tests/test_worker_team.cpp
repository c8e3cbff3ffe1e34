#include "parallel/worker_team.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "construct/i1_insertion.hpp"
#include "parallel/async_tsmo.hpp"
#include "parallel/hybrid_tsmo.hpp"
#include "parallel/sync_tsmo.hpp"
#include "sim/sim_tsmo.hpp"
#include "util/rng.hpp"
#include "vrptw/generator.hpp"

namespace tsmo {
namespace {

TsmoParams seeded(std::uint64_t seed) {
  TsmoParams p;
  p.seed = seed;
  return p;
}

class WorkerTeamTest : public ::testing::Test {
 protected:
  WorkerTeamTest() : inst_(generate_named("R1_1_1")) {}

  std::shared_ptr<const Solution> base() {
    Rng rng(3);
    return std::make_shared<const Solution>(
        construct_i1_random(inst_, rng));
  }

  Instance inst_;
};

TEST_F(WorkerTeamTest, RoundTripsOneRequest) {
  WorkerTeam team(inst_, 2, seeded(7));
  team.submit(GenRequest{base(), 25, 99});
  const auto result = team.collect();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->ticket, 99u);
  EXPECT_EQ(result->candidates.size(), 25u);
  EXPECT_GE(result->worker_id, 0);
  EXPECT_LT(result->worker_id, 2);
}

TEST_F(WorkerTeamTest, AllRequestsAnswered) {
  WorkerTeam team(inst_, 3, seeded(7));
  const auto b = base();
  std::set<std::uint64_t> tickets;
  for (std::uint64_t t = 1; t <= 12; ++t) {
    team.submit(GenRequest{b, 10, t});
  }
  std::size_t total = 0;
  for (int i = 0; i < 12; ++i) {
    const auto r = team.collect();
    ASSERT_TRUE(r.has_value());
    tickets.insert(r->ticket);
    total += r->candidates.size();
  }
  EXPECT_EQ(tickets.size(), 12u);
  EXPECT_EQ(total, 120u);
}

TEST_F(WorkerTeamTest, CandidatesAreValidAgainstBase) {
  WorkerTeam team(inst_, 2, seeded(7));
  const auto b = base();
  team.submit(GenRequest{b, 30, 1});
  const auto result = team.collect();
  ASSERT_TRUE(result.has_value());
  MoveEngine engine(inst_);
  for (const Candidate& c : result->candidates) {
    EXPECT_EQ(c.base.get(), b.get());
    EXPECT_TRUE(engine.applicable(*b, c.move));
    const Solution s = materialize(engine, c);
    EXPECT_EQ(s.objectives(), c.obj);
  }
}

TEST_F(WorkerTeamTest, WorkersApplyTheSearchersScreen) {
  TsmoParams p = seeded(7);
  p.feasibility_screen = FeasibilityScreen::Exact;
  WorkerTeam team(inst_, 2, p);
  const auto b = base();
  for (std::uint64_t t = 1; t <= 4; ++t) {
    team.submit(GenRequest{b, 30, t, /*seed=*/t, /*seeded=*/t % 2 == 0});
  }
  MoveEngine engine(inst_);
  std::size_t checked = 0;
  for (const GenResult& r : team.collect_in_order(4)) {
    for (const Candidate& c : r.candidates) {
      EXPECT_TRUE(engine.exact_feasible(*b, c.move));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(WorkerTeamTest, TryCollectNonBlocking) {
  WorkerTeam team(inst_, 1, seeded(7));
  EXPECT_FALSE(team.try_collect().has_value());
  team.submit(GenRequest{base(), 5, 1});
  // Eventually the result must appear.
  std::optional<GenResult> r;
  for (int spin = 0; spin < 1000 && !r; ++spin) {
    r = team.collect_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(r.has_value());
}

TEST_F(WorkerTeamTest, CleanShutdownWithPendingRequests) {
  const auto b = base();
  {
    WorkerTeam team(inst_, 2, seeded(7));
    for (int i = 0; i < 20; ++i) team.submit(GenRequest{b, 50, 1});
    // Destructor must join without deadlock even with work outstanding.
  }
  SUCCEED();
}

TEST_F(WorkerTeamTest, AtLeastOneWorker) {
  WorkerTeam team(inst_, 0, seeded(7));
  EXPECT_EQ(team.num_workers(), 1);
}

TEST_F(WorkerTeamTest, SeededRequestsIndependentOfTeamSize) {
  // A seeded request is a pure function of (seed, base, count): two teams
  // of different sizes must return identical candidates for it.  This is
  // the primitive the deterministic engine modes are built on.
  const auto b = base();
  auto run_with = [&](int workers) {
    WorkerTeam team(inst_, workers, seeded(1234 + workers));
    std::vector<GenResult> results;
    for (std::uint64_t t = 1; t <= 6; ++t) {
      team.submit(GenRequest{b, 15, t, 0xabc0ffee00ULL + t, true});
    }
    for (int i = 0; i < 6; ++i) {
      auto r = team.collect();
      EXPECT_TRUE(r.has_value());
      if (r) results.push_back(std::move(*r));
    }
    std::sort(results.begin(), results.end(),
              [](const GenResult& x, const GenResult& y) {
                return x.ticket < y.ticket;
              });
    return results;
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t r = 0; r < one.size(); ++r) {
    ASSERT_EQ(one[r].candidates.size(), four[r].candidates.size());
    for (std::size_t c = 0; c < one[r].candidates.size(); ++c) {
      EXPECT_EQ(one[r].candidates[c].move, four[r].candidates[c].move);
      EXPECT_EQ(one[r].candidates[c].obj, four[r].candidates[c].obj);
    }
  }
}

TEST_F(WorkerTeamTest, ChurnConcurrentSubmittersShutdownMidFlight) {
  // Team churn designed for the TSan job: concurrent submitters racing a
  // collector, teams destroyed with work still in flight, repeatedly.
  const auto b = base();
  for (int round = 0; round < 6; ++round) {
    std::atomic<int> submitted{0};
    int collected = 0;
    {
      WorkerTeam team(inst_, 3,
                      seeded(static_cast<std::uint64_t>(7 + round)));
      std::vector<std::thread> submitters;
      for (int s = 0; s < 2; ++s) {
        submitters.emplace_back([&, s] {
          Rng rng(static_cast<std::uint64_t>(round * 10 + s));
          for (std::uint64_t t = 1; t <= 10; ++t) {
            team.submit(GenRequest{b, 12, t});
            submitted.fetch_add(1, std::memory_order_relaxed);
            if (rng.below(3) == 0) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(rng.below(200)));
            }
          }
        });
      }
      // Collect roughly half the traffic, leaving the rest in flight when
      // the team is torn down.
      for (int i = 0; i < 10; ++i) {
        if (team.collect_for(std::chrono::milliseconds(20))) ++collected;
      }
      for (std::thread& t : submitters) t.join();
    }  // destructor joins workers with requests still queued
    EXPECT_EQ(submitted.load(), 20);
    EXPECT_LE(collected, 20);
  }
}

// Master-worker generation must honor the run's feasibility screen and
// operator weights: in deterministic mode the workers produce the whole
// neighborhood, so a generator built with fixed defaults would silently
// ignore both knobs.
class WorkerTeamGeneratorTest : public ::testing::Test {
 protected:
  WorkerTeamGeneratorTest() : inst_(generate_named("R1_1_1")) {}

  TsmoParams params() const {
    TsmoParams p;
    p.max_evaluations = 1500;
    p.neighborhood_size = 40;
    p.restart_after = 15;
    p.trace = true;
    p.seed = 3;
    return p;
  }

  static SyncOptions sync_det() {
    SyncOptions o;
    o.deterministic = true;
    return o;
  }
  static AsyncOptions async_det() {
    AsyncOptions o;
    o.deterministic = true;
    return o;
  }
  static HybridOptions hybrid_det() {
    HybridOptions o;
    o.deterministic = true;
    return o;
  }

  Instance inst_;
};

TEST_F(WorkerTeamGeneratorTest, ScreenChangesDeterministicTrajectories) {
  TsmoParams local = params();
  TsmoParams exact = local;
  exact.feasibility_screen = FeasibilityScreen::Exact;
  EXPECT_NE(SyncTsmo(inst_, local, 4, sync_det()).run().trace_fingerprint,
            SyncTsmo(inst_, exact, 4, sync_det()).run().trace_fingerprint);
  EXPECT_NE(AsyncTsmo(inst_, local, 4, async_det()).run().trace_fingerprint,
            AsyncTsmo(inst_, exact, 4, async_det()).run().trace_fingerprint);
  EXPECT_NE(
      HybridTsmo(inst_, local, 2, 2, hybrid_det()).run().merged
          .trace_fingerprint,
      HybridTsmo(inst_, exact, 2, 2, hybrid_det()).run().merged
          .trace_fingerprint);
}

TEST_F(WorkerTeamGeneratorTest, ExactScreenKeepsDeterministicFrontsFeasible) {
  TsmoParams exact = params();
  exact.feasibility_screen = FeasibilityScreen::Exact;
  const auto all_feasible = [](const RunResult& r) {
    return !r.front.empty() &&
           std::all_of(r.front.begin(), r.front.end(),
                       [](const Objectives& o) { return o.tardiness == 0.0; });
  };
  EXPECT_TRUE(all_feasible(SyncTsmo(inst_, exact, 4, sync_det()).run()));
  EXPECT_TRUE(all_feasible(AsyncTsmo(inst_, exact, 4, async_det()).run()));
  EXPECT_TRUE(all_feasible(
      HybridTsmo(inst_, exact, 2, 2, hybrid_det()).run().merged));
}

TEST_F(WorkerTeamGeneratorTest, OperatorWeightsReachEveryWorker) {
  TsmoParams relocate_only = params();
  relocate_only.operator_weights = {1, 0, 0, 0, 0};
  const auto only_relocate = [](const RunResult& r) {
    const auto& proposed = r.introspect.proposed;
    return proposed[0] > 0 &&
           std::all_of(proposed.begin() + 1, proposed.end(),
                       [](std::uint64_t n) { return n == 0; });
  };
  const CostModel cost = CostModel::for_instance(inst_);
  EXPECT_TRUE(
      only_relocate(SyncTsmo(inst_, relocate_only, 4, sync_det()).run()));
  EXPECT_TRUE(
      only_relocate(AsyncTsmo(inst_, relocate_only, 4, async_det()).run()));
  EXPECT_TRUE(only_relocate(
      HybridTsmo(inst_, relocate_only, 2, 2, hybrid_det()).run().merged));
  EXPECT_TRUE(only_relocate(run_sim_sync(inst_, relocate_only, 4, cost)));
  EXPECT_TRUE(only_relocate(run_sim_async(inst_, relocate_only, 4, cost)));
  EXPECT_TRUE(
      only_relocate(run_sim_hybrid(inst_, relocate_only, 2, 2, cost).merged));
}

}  // namespace
}  // namespace tsmo
