// Differential suite: core::Evaluator, core::BoundEngine and every
// built-in solver against the naive reference checker
// (tests/oracle/reference_checker.h), which shares no code with core/.
// Seeded uniform and mixed-fleet instances (tests/differential_instances.h)
// carry every objective term — a nonlinear disk model (shared and per class),
// replicas, a pin, anti-affinity pairs (one of them a self pair), a drained
// class and an incumbent with a weighted migration term. Agreement is
// within 1e-9 of the objective's magnitude.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "model/analytic.h"
#include "sim/disk.h"
#include "sim/fleet.h"
#include "solve/solver.h"
#include "tests/differential_instances.h"
#include "tests/oracle/reference_checker.h"
#include "util/rng.h"

namespace kairos {
namespace {

constexpr double kRelTol = 1e-9;

using oracle::Instance;
using oracle::MakeInstance;
using oracle::RandomAssignment;

double Tol(double scale_a, double scale_b = 0.0) {
  return kRelTol * std::max({1.0, std::abs(scale_a), std::abs(scale_b)});
}

double RefDelta(const core::ConsolidationProblem& prob, std::vector<int> a,
                int slot, int to, double* before) {
  *before = oracle::Objective(prob, a);
  a[slot] = to;
  return oracle::Objective(prob, a) - *before;
}

TEST(OracleTest, ConstantsAreCopiesOfCore) {
  EXPECT_EQ(oracle::kServerCost, core::kServerCost);
  EXPECT_EQ(oracle::kViolationBase, core::kViolationBase);
  EXPECT_EQ(oracle::kViolationScale, core::kViolationScale);
  EXPECT_EQ(oracle::kAffinityUnit, core::kAffinityUnit);
  EXPECT_EQ(oracle::kPinPenalty, core::kPinPenalty);
  EXPECT_EQ(oracle::kDrainedUnit, core::kDrainedUnit);
}

TEST(OracleTest, CheckerSeesEveryTerm) {
  // The instances exercise what the suite claims to cover: a broken pin,
  // co-located anti-affinity slots, a drained server, capacity excess and
  // migration all move the checker's objective.
  const Instance in = MakeInstance(3, /*mixed=*/true);
  const core::ConsolidationProblem& prob = in.problem;
  const int slots = prob.TotalSlots();
  std::vector<int> spread(slots);
  for (int s = 0; s < slots; ++s) spread[s] = s % 6;
  spread[9] = 1;  // workload 6's slot, on its pin
  const oracle::ReferenceScore base = oracle::Score(prob, spread);

  std::vector<int> off_pin = spread;
  off_pin[9] = 2;
  EXPECT_EQ(oracle::Score(prob, off_pin).pins_broken, base.pins_broken + 1);

  std::vector<int> packed(slots, 3);
  const oracle::ReferenceScore all_on_one = oracle::Score(prob, packed);
  EXPECT_GT(all_on_one.affinity_units, 0);
  EXPECT_GT(all_on_one.server_violation[3], 0);
  EXPECT_FALSE(all_on_one.feasible());

  std::vector<int> drained = spread;
  drained[0] = 6;
  EXPECT_GE(oracle::Score(prob, drained).server_violation[6],
            oracle::kDrainedUnit);
  EXPECT_GT(base.migration, 0);
}

TEST(OracleDifferentialTest, EvaluateMatchesChecker) {
  int compared = 0;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance in = MakeInstance(seed, mixed);
      core::Evaluator ev(in.problem, in.cap);
      core::ServerCostMemo memo;
      util::Rng rng(seed * 31 + (mixed ? 7 : 0));
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<int> a = RandomAssignment(&rng, ev.num_slots(), in.cap);
        if (trial % 2 == 1) {
          a[static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1))] =
              static_cast<int>(rng.UniformInt(0, in.cap - 1));
        }
        const oracle::ReferenceScore ref = oracle::Score(in.problem, a);
        ASSERT_NEAR(ev.Evaluate(a), ref.objective, Tol(ref.objective))
            << "mixed " << mixed << " seed " << seed << " trial " << trial;
        ASSERT_NEAR(ev.Evaluate(a, &memo), ref.objective, Tol(ref.objective));
        ev.Load(a);
        ASSERT_NEAR(ev.current_cost(), ref.objective, Tol(ref.objective));
        ASSERT_EQ(ev.IsFeasible(), ref.feasible());
        ASSERT_NEAR(ev.migration_cost(), ref.migration, Tol(ref.migration));
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 480);
}

// After every step of a random walk of ApplyMove (pinned slots included),
// ApplyPackage and UndoPackage, the cached state and every what-if query
// agree with the checker. MoveDelta prices a move off a pin as a flat
// kPinPenalty sentinel, so the what-if queries are checked on unpinned
// slots.
TEST(OracleDifferentialTest, IncrementalStateAndMoveQueriesMatchChecker) {
  int packages = 0, undos = 0, emptied = 0, floors_finite = 0;
  std::vector<double> batch;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance in = MakeInstance(seed, mixed);
      const core::ConsolidationProblem& prob = in.problem;
      core::Evaluator ev(prob, in.cap);
      util::Rng rng(seed * 977 + (mixed ? 1 : 0));
      ev.Load(RandomAssignment(&rng, ev.num_slots(), in.cap));
      std::vector<int> all_targets(in.cap);
      std::iota(all_targets.begin(), all_targets.end(), 0);
      bool last_was_package = false;
      for (int step = 0; step < 60; ++step) {
        const double op = rng.NextDouble();
        if (last_was_package && op < 0.3) {
          ev.UndoPackage();
          ++undos;
          last_was_package = false;
        } else if (op < 0.6) {
          // A package: some unpinned slots of one server onto another.
          const int from =
              ev.assignment()[static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1))];
          std::vector<int> movers;
          for (int s = 0; s < ev.num_slots(); ++s) {
            if (ev.assignment()[s] == from && ev.PinOfSlot(s) < 0 &&
                (movers.empty() || rng.NextDouble() < 0.7)) {
              movers.push_back(s);
            }
          }
          if (movers.empty()) continue;
          int to = static_cast<int>(rng.UniformInt(0, in.cap - 2));
          if (to >= from) ++to;
          const double before = oracle::Objective(prob, ev.assignment());
          if (static_cast<int>(movers.size()) == ev.accountant().ServerCount(from)) {
            ++emptied;
          }
          const double delta = ev.ApplyPackage(movers, to);
          const double after = oracle::Objective(prob, ev.assignment());
          ASSERT_NEAR(delta, after - before, Tol(before, after))
              << "mixed " << mixed << " seed " << seed << " step " << step;
          ++packages;
          last_was_package = true;
        } else {
          const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
          ev.ApplyMove(slot, static_cast<int>(rng.UniformInt(0, in.cap - 1)));
          last_was_package = false;
        }

        const oracle::ReferenceScore ref = oracle::Score(prob, ev.assignment());
        ASSERT_NEAR(ev.current_cost(), ref.objective, Tol(ref.objective))
            << "mixed " << mixed << " seed " << seed << " step " << step;
        ASSERT_NEAR(ev.migration_cost(), ref.migration, Tol(ref.migration));
        for (int j = 0; j < in.cap; ++j) {
          const double want =
              j < static_cast<int>(ref.server_violation.size()) ? ref.server_violation[j] : 0.0;
          ASSERT_NEAR(ev.ServerViolation(j), want, Tol(want)) << "server " << j;
        }
        ASSERT_NEAR(ev.Evaluate(ev.assignment()), ref.objective, Tol(ref.objective));

        for (int slot = 0; slot < ev.num_slots(); ++slot) {
          if (ev.PinOfSlot(slot) >= 0) continue;
          ev.MoveDeltaBatch(slot, all_targets, &batch);
          for (int to = 0; to < in.cap; ++to) {
            double before = 0;
            const double want = RefDelta(prob, ev.assignment(), slot, to, &before);
            const double tol = Tol(before, before + want);
            ASSERT_NEAR(ev.MoveDelta(slot, to), want, tol)
                << "slot " << slot << " -> " << to;
            ASSERT_NEAR(batch[to], want, tol) << "slot " << slot << " -> " << to;
            const double floor = ev.MoveDeltaFloor(slot, to);
            ASSERT_LE(floor, want + tol) << "slot " << slot << " -> " << to;
            if (std::isfinite(floor) && to != ev.assignment()[slot]) ++floors_finite;
          }
        }
      }
    }
  }
  EXPECT_GT(packages, 200);
  EXPECT_GT(undos, 50);
  EXPECT_GT(emptied, 20);
  EXPECT_GT(floors_finite, 1000);
}

// Every swap of two unpinned slots on different servers is quoted as the
// checker prices it. The walk then commits one of those quotes, or applies
// a random relocation, and checks the cached state: the objective against
// the checker, and every server's cached cost and violation against a
// fresh pricing of the accountant's rows, exactly. The instances add a
// reversed duplicate of the pair (3, 4), so that pair counts twice.
TEST(OracleDifferentialTest, SwapQuotesMatchChecker) {
  int quotes = 0, replicas = 0, partners = 0, commits = 0;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Instance in = MakeInstance(seed, mixed);
      core::ConsolidationProblem& prob = in.problem;
      prob.anti_affinity.emplace_back(4, 3);
      core::Evaluator ev(prob, in.cap);
      util::Rng rng(seed * 389 + (mixed ? 7 : 0));
      ev.Load(RandomAssignment(&rng, ev.num_slots(), in.cap));
      const int slots = ev.num_slots();
      for (int step = 0; step < 40; ++step) {
        const double before = oracle::Objective(prob, ev.assignment());
        std::vector<std::pair<int, int>> swaps;
        for (int a = 0; a < slots; ++a) {
          for (int b = a + 1; b < slots; ++b) {
            if (ev.PinOfSlot(a) >= 0 || ev.PinOfSlot(b) >= 0) continue;
            if (ev.assignment()[a] == ev.assignment()[b]) continue;
            std::vector<int> swapped = ev.assignment();
            std::swap(swapped[a], swapped[b]);
            const double want = oracle::Objective(prob, swapped) - before;
            ASSERT_NEAR(ev.QuoteSwap(a, b).delta, want, Tol(before, before + want))
                << "mixed " << mixed << " seed " << seed << " step " << step
                << " swap " << a << " " << b;
            ++quotes;
            const int wa = ev.WorkloadOfSlot(a), wb = ev.WorkloadOfSlot(b);
            if (wa == wb) ++replicas;
            for (const auto& [x, y] : prob.anti_affinity) {
              if (x != y && ((x == wa && y == wb) || (x == wb && y == wa))) {
                ++partners;
              }
            }
            swaps.emplace_back(a, b);
          }
        }
        if (!swaps.empty() && rng.NextDouble() < 0.7) {
          const auto [a, b] = swaps[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(swaps.size()) - 1))];
          ev.ApplySwap(ev.QuoteSwap(a, b));
          ++commits;
        } else {
          const int slot = static_cast<int>(rng.UniformInt(0, slots - 1));
          ev.ApplyMove(slot, static_cast<int>(rng.UniformInt(0, in.cap - 1)));
        }
        const double want = oracle::Objective(prob, ev.assignment());
        ASSERT_NEAR(ev.current_cost(), want, Tol(want))
            << "mixed " << mixed << " seed " << seed << " step " << step;
        for (int j = 0; j < in.cap; ++j) {
          double violation = 0;
          const double cost = core::ServerCost(prob, ev.accountant(), j, &violation);
          ASSERT_EQ(ev.CachedServerCost(j), cost) << "server " << j << " step " << step;
          ASSERT_EQ(ev.ServerViolation(j), violation) << "server " << j;
        }
      }
    }
  }
  EXPECT_GT(quotes, 10000);
  EXPECT_GT(replicas, 500);
  EXPECT_GT(partners, 1000);
  EXPECT_GT(commits, 250);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// A relocation quote commits what ApplyMove(slot, to) computes. Twin
// evaluators take the same random relocations of unpinned slots, one as
// QuoteMove then ApplyMove(quote), the other as ApplyMove(slot, to). The
// quoted delta is MoveDelta's bit for bit and the checker's difference
// within rounding. After each commit the twins agree bit for bit on
// current_cost(), migration_cost(), feasibility and every server's cached
// cost and violation, and those equal a fresh ServerCost of the rows, which
// is priced after the row update where the quote was priced before it.
TEST(OracleDifferentialTest, MoveQuotesCommitLikeApplyMove) {
  int commits = 0, emptied = 0;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance in = MakeInstance(seed, mixed);
      const core::ConsolidationProblem& prob = in.problem;
      core::Evaluator quoted(prob, in.cap);
      core::Evaluator twin(prob, in.cap);
      util::Rng rng(seed * 613 + (mixed ? 11 : 0));
      const std::vector<int> start =
          RandomAssignment(&rng, quoted.num_slots(), in.cap);
      quoted.Load(start);
      twin.Load(start);
      for (int step = 0; step < 200; ++step) {
        const int slot =
            static_cast<int>(rng.UniformInt(0, quoted.num_slots() - 1));
        const int to = static_cast<int>(rng.UniformInt(0, in.cap - 1));
        const int from = quoted.assignment()[slot];
        if (quoted.PinOfSlot(slot) >= 0 || to == from) continue;
        const double before = oracle::Objective(prob, quoted.assignment());
        std::vector<int> moved = quoted.assignment();
        moved[slot] = to;
        const double want = oracle::Objective(prob, moved) - before;
        if (quoted.accountant().ServerCount(from) == 1) ++emptied;

        const core::MoveQuote quote = quoted.QuoteMove(slot, to);
        ASSERT_EQ(Bits(quote.delta), Bits(twin.MoveDelta(slot, to)))
            << "mixed " << mixed << " seed " << seed << " step " << step;
        ASSERT_NEAR(quote.delta, want, Tol(before, before + want));
        quoted.ApplyMove(quote);
        twin.ApplyMove(slot, to);
        ++commits;

        ASSERT_EQ(quoted.assignment(), twin.assignment());
        ASSERT_EQ(Bits(quoted.current_cost()), Bits(twin.current_cost()))
            << "mixed " << mixed << " seed " << seed << " step " << step;
        ASSERT_EQ(Bits(quoted.migration_cost()), Bits(twin.migration_cost()));
        ASSERT_EQ(quoted.IsFeasible(), twin.IsFeasible());
        for (int j = 0; j < in.cap; ++j) {
          ASSERT_EQ(Bits(quoted.CachedServerCost(j)),
                    Bits(twin.CachedServerCost(j)))
              << "server " << j;
          ASSERT_EQ(Bits(quoted.ServerViolation(j)),
                    Bits(twin.ServerViolation(j)))
              << "server " << j;
          double violation = 0;
          const double cost =
              core::ServerCost(prob, quoted.accountant(), j, &violation);
          ASSERT_EQ(Bits(quoted.CachedServerCost(j)), Bits(cost))
              << "server " << j;
          ASSERT_EQ(Bits(quoted.ServerViolation(j)), Bits(violation))
              << "server " << j;
        }
        const double after = oracle::Objective(prob, quoted.assignment());
        ASSERT_NEAR(quoted.current_cost(), after, Tol(after));
      }
    }
  }
  EXPECT_GT(commits, 1500);
  EXPECT_GT(emptied, 20);
}

// The exact search's partial-assignment state prices what the checker
// prices. BoundEngine places a random assignment slot by slot in random
// order, unplaces the last third in reverse order and places those slots
// on other servers: each full assignment's committed cost is the checker's
// objective, and every Place moves it by its PlaceDelta. The instances add
// a reversed duplicate pair and an out-of-range pair, and run once more
// with a move-cost list shorter than the workload list.
TEST(OracleDifferentialTest, BoundEnginePlacementsMatchChecker) {
  int placements = 0;
  for (bool short_move_costs : {false, true}) {
    for (bool mixed : {false, true}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        Instance in = MakeInstance(seed, mixed);
        core::ConsolidationProblem& prob = in.problem;
        prob.anti_affinity.emplace_back(1, 0);
        prob.anti_affinity.emplace_back(3, 99);
        if (short_move_costs) prob.migration_move_cost.resize(3);
        core::BoundEngine engine(prob, in.cap);
        util::Rng rng(seed * 131 + (mixed ? 5 : 0) + (short_move_costs ? 11 : 0));
        const int slots = engine.num_slots();
        std::vector<int> a = RandomAssignment(&rng, slots, in.cap);
        std::vector<int> order(slots);
        std::iota(order.begin(), order.end(), 0);
        for (int i = slots - 1; i > 0; --i) {
          std::swap(order[i], order[rng.UniformInt(0, i)]);
        }
        const auto place = [&](int slot, int server) {
          const double before = engine.committed_cost();
          const double delta = engine.PlaceDelta(slot, server);
          engine.Place(slot, server);
          const double after = engine.committed_cost();
          EXPECT_NEAR(after - before, delta, Tol(before, after))
              << "slot " << slot << " -> " << server;
          ++placements;
        };
        for (int s : order) place(s, a[s]);
        double want = oracle::Objective(prob, a);
        ASSERT_NEAR(engine.committed_cost(), want, Tol(want))
            << "mixed " << mixed << " seed " << seed << " placed";

        const int keep = slots - slots / 3;
        for (int i = slots - 1; i >= keep; --i) engine.Unplace(order[i], a[order[i]]);
        for (int i = keep; i < slots; ++i) {
          const int s = order[i];
          int to = static_cast<int>(rng.UniformInt(0, in.cap - 2));
          if (to >= a[s]) ++to;
          a[s] = to;
          place(s, to);
        }
        want = oracle::Objective(prob, a);
        ASSERT_NEAR(engine.committed_cost(), want, Tol(want))
            << "mixed " << mixed << " seed " << seed << " re-placed";
      }
    }
  }
  EXPECT_EQ(placements, 24 * (11 + 11 / 3));  // 11 slots per instance
}

// Every built-in solver's plan, re-scored by the checker, carries the
// objective and feasibility the solver reported.
TEST(OracleDifferentialTest, EverySolverPlanRescoresToItsObjective) {
  solve::SolveBudget budget;
  budget.max_iterations = 3000;
  budget.direct_evaluations = 300;
  budget.probe_direct_evaluations = 100;
  budget.local_search_max_sweeps = 10;
  budget.exact_max_nodes = 20000;
  const std::vector<std::string> names = solve::SolverNames();
  ASSERT_GE(names.size(), 8u);
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      const Instance in = MakeInstance(seed, mixed);
      for (const std::string& name : names) {
        auto solver = solve::CreateSolver(name, seed);
        ASSERT_NE(solver, nullptr) << name;
        const core::ConsolidationPlan plan = solver->Solve(in.problem, budget);
        const std::vector<int>& a = plan.assignment.server_of_slot;
        ASSERT_EQ(static_cast<int>(a.size()), in.problem.TotalSlots()) << name;
        const oracle::ReferenceScore ref = oracle::Score(in.problem, a);
        EXPECT_NEAR(plan.objective, ref.objective, Tol(ref.objective))
            << name << " mixed " << mixed << " seed " << seed;
        EXPECT_EQ(plan.feasible, ref.feasible()) << name;
        EXPECT_NEAR(plan.migration_cost, ref.migration, Tol(ref.migration)) << name;
      }
    }
  }
}

}  // namespace
}  // namespace kairos
