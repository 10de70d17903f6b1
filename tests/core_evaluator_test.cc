#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>

#include "core/bounds.h"
#include "model/analytic.h"
#include "sim/disk.h"
#include "sim/fleet.h"
#include "solve/solver.h"
#include "tests/oracle/reference_checker.h"
#include "util/rng.h"
#include "util/units.h"

namespace kairos::core {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, double rows = 0,
                                     int samples = 4) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, rows);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

ConsolidationProblem SmallProblem(int n, double cpu_each = 1.0, double ram_gb = 8.0) {
  ConsolidationProblem prob;
  for (int i = 0; i < n; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i), cpu_each, ram_gb));
  }
  return prob;
}

TEST(EvaluatorTest, FewerServersAlwaysCheaper) {
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  Evaluator ev(prob, 4);
  // All on one server (fits easily) vs spread across four.
  const double packed = ev.Evaluate({0, 0, 0, 0});
  const double spread = ev.Evaluate({0, 1, 2, 3});
  EXPECT_LT(packed, spread);
}

TEST(EvaluatorTest, BalancePreferredAtEqualServerCount) {
  ConsolidationProblem prob = SmallProblem(4, 2.0, 8.0);
  Evaluator ev(prob, 2);
  const double balanced = ev.Evaluate({0, 0, 1, 1});
  const double skewed = ev.Evaluate({0, 0, 0, 1});
  EXPECT_LT(balanced, skewed);
}

TEST(EvaluatorTest, CpuViolationPenalized) {
  // 12-core target: 8 workloads of 2 cores each = 16 cores on one server.
  ConsolidationProblem prob = SmallProblem(8, 2.0, 1.0);
  Evaluator ev(prob, 8);
  std::vector<int> packed(8, 0);
  std::vector<int> spread{0, 0, 0, 1, 1, 1, 0, 1};
  EXPECT_GT(ev.Evaluate(packed), ev.Evaluate(spread));
  ev.Load(packed);
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load(spread);
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, RamViolationPenalized) {
  // 96 GB target: two 60 GB workloads cannot share.
  ConsolidationProblem prob = SmallProblem(2, 0.1, 60.0);
  Evaluator ev(prob, 2);
  ev.Load({0, 0});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, ReplicasForcedApart) {
  ConsolidationProblem prob = SmallProblem(2, 0.5, 4.0);
  prob.workloads[0].replicas = 2;
  Evaluator ev(prob, 3);
  ASSERT_EQ(ev.num_slots(), 3);
  // Slots 0,1 are replicas of workload 0.
  ev.Load({0, 0, 1});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, AntiAffinityPairs) {
  ConsolidationProblem prob = SmallProblem(3, 0.5, 4.0);
  prob.anti_affinity.push_back({0, 1});
  Evaluator ev(prob, 2);
  ev.Load({0, 0, 1});
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1, 0});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorTest, SelfAntiAffinityPairIsTheReplicaRule) {
  // A pair naming one workload twice asks for its replicas apart, which the
  // replica rule already charges, so it scores every plan exactly as the
  // problem without it does, in every scorer.
  ConsolidationProblem plain = SmallProblem(3, 0.5, 4.0);
  plain.workloads[1].replicas = 2;  // slots 1 and 2
  ConsolidationProblem prob = plain;
  prob.anti_affinity = {{1, 1}};
  Evaluator ev(prob, 3);
  Evaluator plain_ev(plain, 3);
  const auto placed_cost = [&](const std::vector<int>& a) {
    BoundEngine bound(prob, 3);
    for (int s = 0; s < static_cast<int>(a.size()); ++s) bound.Place(s, a[s]);
    return bound.committed_cost();
  };

  const std::vector<int> apart{0, 0, 1, 1};
  ev.Load(apart);
  EXPECT_TRUE(ev.IsFeasible());
  EXPECT_EQ(ev.Evaluate(apart), ev.current_cost());
  EXPECT_EQ(ev.current_cost(), plain_ev.Evaluate(apart));
  const double tol = 1e-9 * std::abs(ev.current_cost());
  EXPECT_NEAR(oracle::Objective(prob, apart), ev.current_cost(), tol);
  EXPECT_NEAR(placed_cost(apart), ev.current_cost(), tol);

  // Replicas together: one replica-rule unit, which moving one off prices
  // exactly as the difference of the two full evaluations.
  const std::vector<int> together{0, 0, 0, 1};
  ev.Load(together);
  EXPECT_FALSE(ev.IsFeasible());
  EXPECT_EQ(ev.current_cost(), plain_ev.Evaluate(together));
  const double big = std::abs(ev.current_cost());
  EXPECT_NEAR(oracle::Objective(prob, together), ev.current_cost(), 1e-9 * big);
  EXPECT_NEAR(placed_cost(together), ev.current_cost(), 1e-9 * big);
  EXPECT_NEAR(ev.MoveDelta(2, 1), ev.Evaluate(apart) - ev.Evaluate(together),
              1e-9 * big);
}

TEST(EvaluatorTest, PinnedSlotPenalizedElsewhere) {
  ConsolidationProblem prob = SmallProblem(2, 0.5, 4.0);
  prob.workloads[1].pinned_server = 1;
  Evaluator ev(prob, 2);
  const double wrong = ev.Evaluate({0, 0});
  const double right = ev.Evaluate({0, 1});
  EXPECT_GT(wrong, right + 1e6);
}

TEST(EvaluatorTest, MoveDeltaMatchesFullRecompute) {
  ConsolidationProblem prob = SmallProblem(6, 1.3, 9.0);
  prob.workloads[2].replicas = 2;
  Evaluator ev(prob, 4);
  util::Rng rng(3);
  std::vector<int> assignment(ev.num_slots());
  for (auto& a : assignment) a = static_cast<int>(rng.UniformInt(0, 3));
  ev.Load(assignment);
  for (int trial = 0; trial < 200; ++trial) {
    const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    const int to = static_cast<int>(rng.UniformInt(0, 3));
    const double delta = ev.MoveDelta(slot, to);
    std::vector<int> moved = ev.assignment();
    const double before = ev.Evaluate(moved);
    moved[slot] = to;
    const double after = ev.Evaluate(moved);
    EXPECT_NEAR(delta, after - before, 1e-6 * std::max(1.0, std::abs(after)));
    // Occasionally apply the move to vary the cached state.
    if (trial % 3 == 0) ev.ApplyMove(slot, to);
  }
}

TEST(EvaluatorTest, ApplyMoveKeepsCostConsistent) {
  // Without pins, and with workload 1 pinned to server 1 so the random
  // walk moves its slot onto and off the pin: the cached cost and
  // feasibility must track a fresh evaluation after every move.
  for (const bool pinned : {false, true}) {
    SCOPED_TRACE(pinned ? "pinned" : "free");
    ConsolidationProblem prob = SmallProblem(5, 0.8, 6.0);
    if (pinned) prob.workloads[1].pinned_server = 1;
    Evaluator ev(prob, 3);
    util::Rng rng(4);
    std::vector<int> assignment(ev.num_slots(), 0);
    ev.Load(assignment);
    int onto_pin = 0, off_pin = 0;
    for (int i = 0; i < 100; ++i) {
      const int slot = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
      const int to = static_cast<int>(rng.UniformInt(0, 2));
      const int pin = ev.PinOfSlot(slot);
      const int from = ev.assignment()[slot];
      if (pin >= 0 && from != to) {
        if (to == pin) ++onto_pin;
        if (from == pin) ++off_pin;
      }
      ev.ApplyMove(slot, to);
      Evaluator fresh(prob, 3);
      fresh.Load(ev.assignment());
      ASSERT_NEAR(ev.current_cost(), fresh.current_cost(),
                  1e-6 * std::max(1.0, fresh.current_cost()))
          << "move " << i;
      ASSERT_EQ(ev.IsFeasible(), fresh.IsFeasible()) << "move " << i;
    }
    if (pinned) {
      EXPECT_GT(onto_pin, 0);
      EXPECT_GT(off_pin, 0);
    }
  }
}

TEST(EvaluatorTest, ApplyMoveMatchesMoveDeltaBitwise) {
  // Every delta term at once — a nonlinear disk axis, replicas, an
  // anti-affinity pair, a pin, and a weighted migration term. An applied
  // unpinned move must change the cached cost by exactly what MoveDelta
  // predicted (the property that keeps every solver trajectory fixed), and
  // a swap followed by its rollback must restore feasibility.
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  util::Rng rng(11);
  ConsolidationProblem prob;
  prob.disk_model = &disk_model;
  for (int i = 0; i < 10; ++i) {
    const int samples = 24;
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.1, 1.5);
      ram[t] = rng.Uniform(1e9, 12e9);
      rows[t] = rng.Uniform(10, 250);
    }
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = rng.Uniform(1e9, 12e9);
    prob.workloads.push_back(p);
  }
  prob.workloads[2].replicas = 2;
  prob.workloads[5].replicas = 3;
  prob.workloads[7].pinned_server = 3;
  prob.anti_affinity = {{0, 1}, {3, 4}};
  const int cap = 5;
  const int slots = prob.TotalSlots();
  for (const monitor::WorkloadProfile& w : prob.workloads) {
    for (int r = 0; r < w.replicas; ++r) {
      prob.current_assignment.push_back(
          w.pinned_server >= 0 ? w.pinned_server
                               : static_cast<int>(rng.UniformInt(0, cap - 1)));
    }
  }
  prob.migration_cost_weight = 25.0;
  for (int i = 0; i < 10; ++i) {
    prob.migration_move_cost.push_back(rng.Uniform(0.5, 2.0));
  }

  Evaluator ev(prob, cap);
  ev.Load(prob.current_assignment);
  int swaps = 0, feasible_seen = 0, infeasible_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int slot = static_cast<int>(rng.UniformInt(0, slots - 1));
    if (ev.PinOfSlot(slot) >= 0) continue;
    const int to = static_cast<int>(rng.UniformInt(0, cap - 1));
    const double before = ev.current_cost();
    const double delta = ev.MoveDelta(slot, to);
    ev.ApplyMove(slot, to);
    ASSERT_EQ(before + delta, ev.current_cost()) << "trial " << trial;
    ++(ev.IsFeasible() ? feasible_seen : infeasible_seen);

    const int a = static_cast<int>(rng.UniformInt(0, slots - 1));
    const int b = static_cast<int>(rng.UniformInt(0, slots - 1));
    if (ev.PinOfSlot(a) >= 0 || ev.PinOfSlot(b) >= 0) continue;
    const int sa = ev.assignment()[a];
    const int sb = ev.assignment()[b];
    if (a == b || sa == sb) continue;
    const bool feasible = ev.IsFeasible();
    const std::vector<int> placed = ev.assignment();
    ev.ApplyMove(a, sb);
    ev.ApplyMove(b, sa);
    ev.ApplyMove(b, sb);
    ev.ApplyMove(a, sa);
    ASSERT_EQ(ev.assignment(), placed);
    ASSERT_EQ(ev.IsFeasible(), feasible) << "trial " << trial;
    ++swaps;
  }
  EXPECT_GT(swaps, 50);
  // The walk crossed the constraint boundary, so violation terms moved.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(EvaluatorTest, ServerLoadSnapshot) {
  ConsolidationProblem prob = SmallProblem(3, 1.0, 8.0);
  Evaluator ev(prob, 2);
  ev.Load({0, 0, 1});
  const auto s0 = ev.GetServerLoad(0);
  const auto s1 = ev.GetServerLoad(1);
  EXPECT_TRUE(s0.used);
  EXPECT_EQ(s0.num_slots, 2);
  EXPECT_EQ(s1.num_slots, 1);
  // Two workloads' CPU plus one instance overhead.
  EXPECT_NEAR(s0.cpu_cores[0], 2.0 - prob.per_instance_cpu_overhead_cores, 1e-9);
  const auto unused = [&] {
    Evaluator e2(prob, 3);
    e2.Load({0, 0, 0});
    return e2.GetServerLoad(2);
  }();
  EXPECT_FALSE(unused.used);
}

TEST(EvaluatorTest, DiskConstraintViaModel) {
  // A fake disk model from synthetic points: max rate ~ 10000 regardless
  // of working set (flat frontier over the fitted range).
  std::vector<model::ProfilePoint> points;
  for (double ws : {1e9, 2e9, 3e9}) {
    for (double rate : {2000.0, 6000.0, 10000.0}) {
      model::ProfilePoint p;
      p.working_set_bytes = ws;
      p.target_rows_per_sec = rate;
      p.achieved_rows_per_sec = rate;
      p.write_bytes_per_sec = 150 * rate;
      points.push_back(p);
    }
  }
  const model::DiskModel m = model::DiskModel::Fit(points);
  ASSERT_TRUE(m.valid());

  ConsolidationProblem prob;
  prob.disk_model = &m;
  prob.workloads.push_back(MakeProfile("a", 0.2, 4.0, 7000));
  prob.workloads.push_back(MakeProfile("b", 0.2, 4.0, 7000));
  Evaluator ev(prob, 2);
  ev.Load({0, 0});  // 14000 rows/s > 0.9 * ~10000
  EXPECT_FALSE(ev.IsFeasible());
  ev.Load({0, 1});
  EXPECT_TRUE(ev.IsFeasible());
}

TEST(EvaluatorMigrationTest, ChargesMovedSlots) {
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  prob.current_assignment = {0, 0, 1, 1};
  prob.migration_cost_weight = 10.0;
  prob.migration_move_cost = {1.0, 2.0, 1.0, 1.0};
  Evaluator ev(prob, 2);

  ev.Load({0, 0, 1, 1});  // stay put: no penalty
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 0.0);
  EXPECT_EQ(ev.MovesFromCurrent(), 0);

  ev.Load({1, 0, 1, 0});  // w0 moves (cost 1), w3 moves (cost 1)
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 20.0);
  EXPECT_EQ(ev.MovesFromCurrent(), 2);

  ev.Load({0, 1, 1, 1});  // w1 moves at double cost
  EXPECT_DOUBLE_EQ(ev.migration_cost(), 20.0);

  // One-shot and incremental evaluation agree, including the penalty.
  EXPECT_DOUBLE_EQ(ev.Evaluate({1, 0, 1, 0}),
                   [&] { Evaluator e2(prob, 2); e2.Load({1, 0, 1, 0});
                         return e2.current_cost(); }());
}

TEST(EvaluatorMigrationTest, MoveDeltaMatchesReload) {
  ConsolidationProblem prob = SmallProblem(5, 0.8, 6.0);
  prob.current_assignment = {0, 0, 1, 1, 2};
  prob.migration_cost_weight = 25.0;
  Evaluator ev(prob, 3);
  ev.Load({0, 0, 1, 1, 2});

  for (int slot = 0; slot < 5; ++slot) {
    for (int to = 0; to < 3; ++to) {
      const double predicted = ev.current_cost() + ev.MoveDelta(slot, to);
      Evaluator fresh(prob, 3);
      std::vector<int> moved = ev.assignment();
      moved[slot] = to;
      fresh.Load(moved);
      EXPECT_NEAR(predicted, fresh.current_cost(), 1e-6)
          << "slot " << slot << " -> " << to;
    }
  }

  // ApplyMove keeps the incremental migration cost in sync with a reload.
  ev.ApplyMove(0, 2);
  ev.ApplyMove(4, 0);
  Evaluator fresh(prob, 3);
  fresh.Load(ev.assignment());
  EXPECT_NEAR(ev.current_cost(), fresh.current_cost(), 1e-6);
  EXPECT_DOUBLE_EQ(ev.migration_cost(), fresh.migration_cost());
  EXPECT_EQ(ev.MovesFromCurrent(), 2);
}

TEST(EvaluatorBatchTest, MoveDeltaBatchBitIdenticalToScalar) {
  // A problem exercising every delta term at once: pins, anti-affinity,
  // replicas, and a migration penalty. The batch path must reproduce the
  // scalar MoveDelta bit for bit (same FP association), not just closely.
  ConsolidationProblem prob = SmallProblem(8, 0.9, 6.0);
  prob.workloads[1].replicas = 2;
  prob.workloads[2].pinned_server = 1;
  prob.anti_affinity = {{3, 4}};
  prob.current_assignment = {0, 1, 1, 1, 2, 2, 0, 3, 3};
  prob.migration_cost_weight = 25.0;

  const int cap = 4;
  Evaluator ev(prob, cap);
  ev.Load({0, 1, 2, 1, 2, 3, 0, 1, 3});

  std::vector<int> targets(cap);
  for (int j = 0; j < cap; ++j) targets[j] = j;
  std::vector<double> deltas;
  for (int slot = 0; slot < ev.num_slots(); ++slot) {
    ev.MoveDeltaBatch(slot, targets, &deltas);
    ASSERT_EQ(deltas.size(), targets.size());
    for (int i = 0; i < cap; ++i) {
      EXPECT_EQ(deltas[i], ev.MoveDelta(slot, targets[i]))
          << "slot " << slot << " -> " << targets[i];
    }
  }

  // Still exact after incremental mutation (dirty-list scratch reuse).
  ev.ApplyMove(0, 3);
  ev.ApplyMove(5, 0);
  for (int slot = 0; slot < ev.num_slots(); ++slot) {
    ev.MoveDeltaBatch(slot, targets, &deltas);
    for (int i = 0; i < cap; ++i) {
      EXPECT_EQ(deltas[i], ev.MoveDelta(slot, targets[i]))
          << "post-move slot " << slot << " -> " << targets[i];
    }
  }
}

// A seeded random instance carrying every term MoveDelta composes, on a
// mixed fleet: a nonlinear disk model, two machine classes with cost
// weights != 1, a drained class, replicas, anti-affinity pairs, a pin and
// a weighted migration term. Servers 0-2 are class 0, 3-5 class 1, 6-7
// the drained class 2.
constexpr int kMixedCap = 8;

ConsolidationProblem MixedFleetProblem(uint64_t seed) {
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  util::Rng rng(seed);
  ConsolidationProblem prob;
  prob.disk_model = &disk_model;
  prob.fleet = sim::FleetSpec{};
  prob.fleet.AddClass(sim::MachineSpec::Server1(), 3, 0.6)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 3, 1.7)
      .AddClass(sim::MachineSpec::Server2(), 2, 1.3);
  prob.fleet.classes[2].drained = true;
  const int num_workloads = 9;
  for (int i = 0; i < num_workloads; ++i) {
    const int samples = 24;
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.05, 1.2);
      ram[t] = rng.Uniform(0.5e9, 9e9);
      rows[t] = rng.Uniform(10, 250);
    }
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = rng.Uniform(1e9, 12e9);
    prob.workloads.push_back(p);
  }
  prob.workloads[2].replicas = 2;
  prob.workloads[5].replicas = 3;
  prob.workloads[7].pinned_server = 1;
  prob.anti_affinity = {{0, 1}, {3, 4}, {2, 6}};
  for (const monitor::WorkloadProfile& w : prob.workloads) {
    for (int r = 0; r < w.replicas; ++r) {
      prob.current_assignment.push_back(
          static_cast<int>(rng.UniformInt(0, kMixedCap - 1)));
    }
  }
  prob.migration_cost_weight = 25.0;
  for (int i = 0; i < num_workloads; ++i) {
    prob.migration_move_cost.push_back(rng.Uniform(0.5, 2.0));
  }
  return prob;
}

// Slots spread over a few random servers, one slot alone on another, and
// at least two servers left empty.
std::vector<int> SparseAssignment(util::Rng* rng, int slots, int cap) {
  std::vector<int> servers(cap);
  std::iota(servers.begin(), servers.end(), 0);
  for (int i = cap - 1; i > 0; --i) {
    std::swap(servers[i], servers[static_cast<int>(rng->UniformInt(0, i))]);
  }
  const int used = static_cast<int>(rng->UniformInt(2, cap - 3));
  std::vector<int> a(slots);
  for (int& j : a) j = servers[static_cast<int>(rng->UniformInt(0, used - 1))];
  a[static_cast<int>(rng->UniformInt(0, slots - 1))] = servers[used];
  return a;
}

// A random unpinned relocation, applied.
void RandomApplyMove(util::Rng* rng, Evaluator* ev) {
  const int slot = static_cast<int>(rng->UniformInt(0, ev->num_slots() - 1));
  if (ev->PinOfSlot(slot) >= 0) return;
  ev->ApplyMove(slot, static_cast<int>(rng->UniformInt(0, ev->max_servers() - 1)));
}

TEST(EvaluatorFloorTest, FloorNeverExceedsMoveDelta) {
  int empty_targets = 0, lone_from = 0, strict = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const ConsolidationProblem prob = MixedFleetProblem(seed);
    Evaluator ev(prob, kMixedCap);
    util::Rng rng(seed * 7919);
    ev.Load(SparseAssignment(&rng, ev.num_slots(), kMixedCap));
    for (int step = 0; step < 12; ++step) {
      for (int slot = 0; slot < ev.num_slots(); ++slot) {
        const int from = ev.assignment()[slot];
        const int pin = ev.PinOfSlot(slot);
        for (int to = 0; to < kMixedCap; ++to) {
          const double floor = ev.MoveDeltaFloor(slot, to);
          const double exact = ev.MoveDelta(slot, to);
          ASSERT_LE(floor, exact) << "seed " << seed << " step " << step
                                  << " slot " << slot << " -> " << to;
          if (to == from) {
            EXPECT_EQ(floor, 0.0);
          } else if (pin >= 0 && to != pin) {
            EXPECT_EQ(floor, kPinPenalty);
          } else {
            const bool empty = ev.accountant().ServerCount(to) == 0;
            ASSERT_EQ(std::isfinite(floor), empty) << "slot " << slot << " -> " << to;
            if (empty) {
              ++empty_targets;
              if (ev.accountant().ServerCount(from) == 1) ++lone_from;
              if (floor < exact) ++strict;
            }
          }
        }
      }
      for (int m = 0; m < 3; ++m) RandomApplyMove(&rng, &ev);
    }
  }
  // The walk covered both from-side cases and floors that are real bounds.
  EXPECT_GT(empty_targets, 1000);
  EXPECT_GT(lone_from, 50);
  EXPECT_GT(strict, 1000);
}

TEST(EvaluatorFloorTest, BatchCutoffPricesExactlyOrFloors) {
  // Every entry a cutoff batch prices is MoveDelta bit for bit; every entry
  // it floors is an empty target's bound in [cutoff, MoveDelta]. The tally
  // still counts one move_delta op per target.
  const double inf = std::numeric_limits<double>::infinity();
  int64_t floored = 0, differing = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const ConsolidationProblem prob = MixedFleetProblem(seed);
    Evaluator ev(prob, kMixedCap);
    util::Rng rng(seed * 104729);
    ev.Load(SparseAssignment(&rng, ev.num_slots(), kMixedCap));
    std::vector<int> targets(kMixedCap);
    std::iota(targets.begin(), targets.end(), 0);
    std::vector<double> exact(kMixedCap), deltas;
    for (int step = 0; step < 10; ++step) {
      for (int slot = 0; slot < ev.num_slots(); ++slot) {
        for (int i = 0; i < kMixedCap; ++i) exact[i] = ev.MoveDelta(slot, i);
        std::vector<double> cutoffs = {-1e-9, 0.0, 600.0, 1000.0, inf, -inf};
        for (double d : exact) cutoffs.push_back(d);  // floors landing on it
        for (double cutoff : cutoffs) {
          const EvalOpCounts before = CurrentEvalOps();
          ev.MoveDeltaBatch(slot, targets, &deltas, cutoff);
          const EvalOpCounts after = CurrentEvalOps();
          ASSERT_EQ(deltas.size(), targets.size());
          EXPECT_EQ(after.move_delta_ops - before.move_delta_ops, kMixedCap);
          const int64_t skips = after.floor_skips - before.floor_skips;
          int64_t unequal = 0, eligible = 0;
          for (int i = 0; i < kMixedCap; ++i) {
            const int to = targets[i];
            const bool empty = ev.accountant().ServerCount(to) == 0 &&
                               to != ev.assignment()[slot] &&
                               !(ev.PinOfSlot(slot) >= 0 && to != ev.PinOfSlot(slot));
            if (empty && deltas[i] >= cutoff) ++eligible;
            if (deltas[i] == exact[i]) continue;
            ++unequal;
            ASSERT_TRUE(empty) << "slot " << slot << " -> " << to;
            ASSERT_GE(deltas[i], cutoff);
            ASSERT_LE(deltas[i], exact[i]);
          }
          EXPECT_GE(skips, unequal);
          EXPECT_LE(skips, eligible);
          if (cutoff == inf) {
            EXPECT_EQ(skips, 0);
          }
          floored += skips;
          differing += unequal;
        }
      }
      for (int m = 0; m < 3; ++m) RandomApplyMove(&rng, &ev);
    }
  }
  EXPECT_GT(floored, 1000);
  EXPECT_GT(differing, 1000);
}

TEST(EvaluatorFloorTest, CountFloorSkipTalliesOneScoredMove) {
  ResetEvalOps();
  CountFloorSkip();
  const EvalOpCounts ops = CurrentEvalOps();
  EXPECT_EQ(ops.move_delta_ops, 1);
  EXPECT_EQ(ops.floor_skips, 1);
  EXPECT_EQ(ops.evaluate_ops, 0);
  FlushEvalOps(nullptr);
  EXPECT_EQ(CurrentEvalOps().floor_skips, 0);
}

TEST(EvaluatorMemoTest, MemoEvaluateBitIdenticalAlongDirectWalk) {
  // A DIRECT-like walk: every assignment is one slot away from an earlier
  // one. Evaluate through the memo must reproduce the memo-less bits, and
  // the walk must put one slot set on servers of different classes (so a
  // key without the class would return the wrong class's cost).
  const ConsolidationProblem prob = MixedFleetProblem(5);
  Evaluator ev(prob, kMixedCap);
  util::Rng rng(99);
  ServerCostMemo memo;
  std::vector<std::vector<int>> seen = {
      SparseAssignment(&rng, ev.num_slots(), kMixedCap)};
  std::map<std::vector<int>, std::set<int>> classes_of_set;
  ResetEvalOps();
  const int steps = 2500;
  for (int step = 0; step <= steps; ++step) {
    std::vector<int> a = seen[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(seen.size()) - 1))];
    if (step > 0) {
      a[static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1))] =
          static_cast<int>(rng.UniformInt(0, kMixedCap - 1));
    }
    const double plain = ev.Evaluate(a);
    const double memoized = ev.Evaluate(a, &memo);
    ASSERT_EQ(plain, memoized) << "step " << step;
    for (int j = 0; j < kMixedCap; ++j) {
      std::vector<int> slots;
      for (int s = 0; s < ev.num_slots(); ++s) {
        if (a[s] == j) slots.push_back(s);
      }
      if (!slots.empty()) classes_of_set[slots].insert(ev.ClassOfServer(j));
    }
    seen.push_back(std::move(a));
  }
  int cross_class = 0;
  for (const auto& [slots, classes] : classes_of_set) {
    if (classes.size() > 1) ++cross_class;
  }
  EXPECT_GT(cross_class, 10);
  const EvalOpCounts ops = CurrentEvalOps();
  EXPECT_EQ(ops.evaluate_ops, 2 * (steps + 1));
  EXPECT_GT(ops.memo_hits, 5000);
  size_t keys = 0;
  for (const auto& [slots, classes] : classes_of_set) keys += classes.size();
  EXPECT_EQ(memo.size(), keys);  // one entry per distinct (class, slot set)
  FlushEvalOps(nullptr);
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Every observable bit of servers `a` and `b` plus the global state.
struct PackageView {
  std::vector<int> assignment;
  uint64_t cost, migration;
  bool feasible;
  uint64_t violation[2];
  Evaluator::ServerLoad load[2];
  std::vector<double> rate[2];  // the accountant's update-rate rows
};

PackageView ViewOf(const Evaluator& ev, int a, int b) {
  PackageView v;
  v.assignment = ev.assignment();
  v.cost = Bits(ev.current_cost());
  v.migration = Bits(ev.migration_cost());
  v.feasible = ev.IsFeasible();
  for (int k = 0; k < 2; ++k) {
    const int j = k == 0 ? a : b;
    v.violation[k] = Bits(ev.ServerViolation(j));
    v.load[k] = ev.GetServerLoad(j);
    const double* rate = ev.accountant().ServerSeries(Axis::kRate, j);
    v.rate[k].assign(rate, rate + ev.num_samples());
  }
  return v;
}

void ExpectSameBits(const PackageView& x, const PackageView& y) {
  EXPECT_EQ(x.assignment, y.assignment);
  EXPECT_EQ(x.cost, y.cost);
  EXPECT_EQ(x.migration, y.migration);
  EXPECT_EQ(x.feasible, y.feasible);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(x.violation[k], y.violation[k]) << "server " << k;
    const Evaluator::ServerLoad& p = x.load[k];
    const Evaluator::ServerLoad& q = y.load[k];
    EXPECT_EQ(p.used, q.used);
    EXPECT_EQ(p.num_slots, q.num_slots);
    EXPECT_EQ(Bits(p.working_set_bytes), Bits(q.working_set_bytes));
    EXPECT_EQ(Bits(p.violation), Bits(q.violation));
    ASSERT_EQ(p.cpu_cores.size(), q.cpu_cores.size());
    for (size_t t = 0; t < p.cpu_cores.size(); ++t) {
      ASSERT_EQ(Bits(p.cpu_cores[t]), Bits(q.cpu_cores[t])) << "t " << t;
      ASSERT_EQ(Bits(p.ram_bytes[t]), Bits(q.ram_bytes[t])) << "t " << t;
      ASSERT_EQ(Bits(x.rate[k][t]), Bits(y.rate[k][t])) << "t " << t;
    }
  }
}

TEST(EvaluatorPackageTest, UndoRestoresEveryObservableBit) {
  // MixedFleetProblem pins workload 7 (slot 10) to server 1. The first two
  // cases empty server 4; the third moves server 1's unpinned slots and
  // leaves the pinned one behind. Moves out of server 0 and back first
  // leave (r + a) - a residues in every row involved, which an undo that
  // re-applied or re-priced slots could not reproduce.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const ConsolidationProblem prob = MixedFleetProblem(seed);
    Evaluator ev(prob, kMixedCap);
    ASSERT_EQ(ev.PinOfSlot(10), 1);
    const std::vector<int> a = {4, 4, 0, 1, 4, 0, 1, 0, 4, 1, 1, 0};
    ASSERT_EQ(static_cast<int>(a.size()), ev.num_slots());
    ev.Load(a);
    for (int slot : {2, 5, 7, 11}) {
      for (int to : {1, 3, 4, 5}) {
        ev.ApplyMove(slot, to);
        ev.ApplyMove(slot, 0);
      }
    }
    struct Case {
      int from, to;
      bool empties;
    };
    for (const Case c : {Case{4, 5, true}, Case{4, 0, true}, Case{1, 3, false}}) {
      const std::vector<int> movers = solve::MovableSlotsOn(ev, c.from);
      ASSERT_FALSE(movers.empty());
      ASSERT_EQ(static_cast<int>(movers.size()) == ev.accountant().ServerCount(c.from),
                c.empties);
      const PackageView before = ViewOf(ev, c.from, c.to);
      ev.ApplyPackage(movers, c.to);
      EXPECT_EQ(ev.accountant().ServerCount(c.from) == 0, c.empties);
      for (int s : movers) EXPECT_EQ(ev.assignment()[s], c.to);
      ev.UndoPackage();
      SCOPED_TRACE("seed " + std::to_string(seed) + " from " +
                   std::to_string(c.from) + " to " + std::to_string(c.to));
      ExpectSameBits(ViewOf(ev, c.from, c.to), before);
    }
  }
}

TEST(EvaluatorPackageTest, MatchesSequentialApplyMoveLoop) {
  // ApplyPackage against a loop of ApplyMove on a twin evaluator: rows,
  // assignment and server violations bit-identical, the cost change and
  // migration within 1e-9 relative. Anti-affinity pairs (0,1), (3,4) and
  // (2,6) land both inside a package and across it.
  int inside = 0, across = 0, with_migration = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const ConsolidationProblem prob = MixedFleetProblem(seed);
    Evaluator pkg(prob, kMixedCap);
    Evaluator loop(prob, kMixedCap);
    util::Rng rng(seed * 6007);
    std::vector<int> a(pkg.num_slots());
    for (int& j : a) j = static_cast<int>(rng.UniformInt(0, 3));
    pkg.Load(a);
    loop.Load(a);
    for (int step = 0; step < 20; ++step) {
      const int from =
          pkg.assignment()[static_cast<int>(rng.UniformInt(0, pkg.num_slots() - 1))];
      std::vector<int> movers = solve::MovableSlotsOn(pkg, from);
      if (movers.empty()) continue;
      if (rng.NextDouble() < 0.5) movers.resize(1 + rng.UniformInt(0, movers.size() - 1));
      int to = static_cast<int>(rng.UniformInt(0, kMixedCap - 2));
      if (to >= from) ++to;

      const std::vector<int> on_to = solve::MovableSlotsOn(pkg, to);
      for (size_t i = 0; i < movers.size(); ++i) {
        const int wi = pkg.WorkloadOfSlot(movers[i]);
        for (const auto& [x, y] : prob.anti_affinity) {
          if (wi != x && wi != y) continue;
          const int partner = wi == x ? y : x;
          for (size_t k = 0; k < movers.size(); ++k) {
            if (pkg.WorkloadOfSlot(movers[k]) == partner) ++inside;
          }
          for (int s : on_to) {
            if (pkg.WorkloadOfSlot(s) == partner) ++across;
          }
        }
      }
      const double migration_before = loop.migration_cost();
      const EvalOpCounts ops_before = CurrentEvalOps();
      const double delta = pkg.ApplyPackage(movers, to);
      const EvalOpCounts ops_after = CurrentEvalOps();
      EXPECT_EQ(ops_after.package_moves - ops_before.package_moves, 1);
      EXPECT_EQ(ops_after.apply_move_ops, ops_before.apply_move_ops);

      const double before = loop.current_cost();
      for (int s : movers) loop.ApplyMove(s, to);
      const double loop_delta = loop.current_cost() - before;
      if (loop.migration_cost() != migration_before) ++with_migration;

      const double scale = std::max({1.0, std::abs(before), std::abs(loop.current_cost())});
      ASSERT_NEAR(delta, loop_delta, 1e-9 * scale) << "seed " << seed << " step " << step;
      ASSERT_NEAR(pkg.current_cost(), loop.current_cost(), 1e-9 * scale);
      ASSERT_NEAR(pkg.migration_cost(), loop.migration_cost(),
                  1e-9 * std::max(1.0, loop.migration_cost()));
      ASSERT_EQ(pkg.assignment(), loop.assignment());
      for (int j : {from, to}) {
        const Evaluator::ServerLoad p = pkg.GetServerLoad(j);
        const Evaluator::ServerLoad q = loop.GetServerLoad(j);
        ASSERT_EQ(p.num_slots, q.num_slots);
        ASSERT_EQ(Bits(p.working_set_bytes), Bits(q.working_set_bytes));
        ASSERT_EQ(Bits(pkg.ServerViolation(j)), Bits(loop.ServerViolation(j)));
        const double* p_rate = pkg.accountant().ServerSeries(Axis::kRate, j);
        const double* q_rate = loop.accountant().ServerSeries(Axis::kRate, j);
        for (size_t t = 0; t < p.cpu_cores.size(); ++t) {
          ASSERT_EQ(Bits(p.cpu_cores[t]), Bits(q.cpu_cores[t]));
          ASSERT_EQ(Bits(p.ram_bytes[t]), Bits(q.ram_bytes[t]));
          ASSERT_EQ(Bits(p_rate[t]), Bits(q_rate[t]));
        }
      }
    }
  }
  EXPECT_GT(inside, 20);
  EXPECT_GT(across, 20);
  EXPECT_GT(with_migration, 100);
}

TEST(EvaluatorMigrationTest, ServerSavingsStillDominateMoves) {
  // Consolidating 2 -> 1 servers saves kServerCost, which must beat moving
  // every slot at the default weight.
  ConsolidationProblem prob = SmallProblem(4, 0.5, 4.0);
  prob.current_assignment = {0, 0, 1, 1};
  prob.migration_cost_weight = 25.0;
  Evaluator ev(prob, 2);
  EXPECT_LT(ev.Evaluate({0, 0, 0, 0}), ev.Evaluate({0, 0, 1, 1}));
}

// Every term a swap quote prices: a nonlinear disk model, replicas
// (workloads 2 and 5), anti-affinity pairs with (3, 4) given twice, a pin
// (workload 7 on server 3, slot 10) and a weighted migration term.
ConsolidationProblem SwapProblem(uint64_t seed) {
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  util::Rng rng(seed);
  ConsolidationProblem prob;
  prob.disk_model = &disk_model;
  for (int i = 0; i < 10; ++i) {
    const int samples = 24;
    std::vector<double> cpu(samples), ram(samples), rows(samples);
    for (int t = 0; t < samples; ++t) {
      cpu[t] = rng.Uniform(0.1, 2.5);
      ram[t] = rng.Uniform(1e9, 20e9);
      rows[t] = rng.Uniform(10, 400);
    }
    monitor::WorkloadProfile p;
    p.name = "w" + std::to_string(i);
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = rng.Uniform(1e9, 24e9);
    prob.workloads.push_back(p);
  }
  prob.workloads[2].replicas = 2;
  prob.workloads[5].replicas = 3;
  prob.workloads[7].pinned_server = 3;
  prob.anti_affinity = {{0, 1}, {3, 4}, {4, 3}, {2, 6}};
  for (int s = 0; s < prob.TotalSlots(); ++s) {
    prob.current_assignment.push_back(static_cast<int>(rng.UniformInt(0, 4)));
  }
  prob.migration_cost_weight = 25.0;
  for (int i = 0; i < 10; ++i) {
    prob.migration_move_cost.push_back(rng.Uniform(0.5, 2.0));
  }
  return prob;
}

TEST(EvaluatorSwapTest, CommitMovesCostByTheQuoteBitwise) {
  // A walk of swaps, half of them between related slots: two replicas of
  // one workload, or two workloads of an anti-affinity pair (one pair
  // given twice). A quote changes nothing; its delta is the checker's
  // objective difference; a committed quote moves current_cost() by
  // exactly its delta, and leaves both servers' cached cost and violation
  // equal to a fresh ServerCost of the new rows, bit for bit. The pinned
  // slot starts off its pin, so the cached cost carries a pin penalty
  // throughout.
  constexpr int kCap = 5;
  int replica_swaps = 0, double_pair_swaps = 0, pair_swaps = 0, rejects = 0,
      commits = 0, migration_moved = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ConsolidationProblem prob = SwapProblem(seed);
    Evaluator ev(prob, kCap);
    const LoadAccountant& acct = ev.accountant();
    util::Rng rng(seed * 7919);
    std::vector<int> start = prob.current_assignment;
    ASSERT_EQ(ev.PinOfSlot(10), 3);
    start[10] = 0;
    ev.Load(start);
    const std::vector<std::pair<int, int>> related = {
        {acct.SlotBegin(2), acct.SlotBegin(2) + 1},  // replicas
        {acct.SlotBegin(5), acct.SlotBegin(5) + 2},  // replicas
        {acct.SlotBegin(3), acct.SlotBegin(4)},      // a pair given twice
        {acct.SlotBegin(0), acct.SlotBegin(1)},
        {acct.SlotBegin(2) + 1, acct.SlotBegin(6)}};
    for (int step = 0; step < 300; ++step) {
      int a, b;
      if (rng.NextDouble() < 0.5) {
        std::tie(a, b) = related[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(related.size()) - 1))];
      } else {
        a = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
        b = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
      }
      if (a == b || ev.PinOfSlot(a) >= 0 || ev.PinOfSlot(b) >= 0 ||
          ev.assignment()[a] == ev.assignment()[b]) {
        RandomApplyMove(&rng, &ev);  // vary the state instead
        continue;
      }
      const std::vector<int> placed = ev.assignment();
      const double before = ev.current_cost();
      const double migration_before = ev.migration_cost();
      const MoveQuote quote = ev.QuoteSwap(a, b);
      ASSERT_EQ(ev.assignment(), placed);
      ASSERT_EQ(Bits(ev.current_cost()), Bits(before));

      std::vector<int> swapped = placed;
      std::swap(swapped[a], swapped[b]);
      const double ref_before = oracle::Objective(prob, placed);
      const double want = oracle::Objective(prob, swapped) - ref_before;
      ASSERT_NEAR(quote.delta, want,
                  1e-9 * std::max({1.0, std::abs(ref_before), std::abs(want)}))
          << "seed " << seed << " step " << step << " swap " << a << " " << b;
      if (rng.NextDouble() < 0.3) {
        ++rejects;  // nothing to undo
        continue;
      }

      ev.ApplySwap(quote);
      ++commits;
      ASSERT_EQ(ev.assignment(), swapped);
      ASSERT_EQ(Bits(ev.current_cost()), Bits(before + quote.delta))
          << "seed " << seed << " step " << step;
      for (int k = 0; k < 2; ++k) {
        const int j = quote.server[k];
        double violation = -1;
        const double cost = ServerCost(prob, acct, j, &violation);
        ASSERT_EQ(Bits(ev.CachedServerCost(j)), Bits(cost)) << "server " << j;
        ASSERT_EQ(Bits(ev.ServerViolation(j)), Bits(violation)) << "server " << j;
      }
      Evaluator fresh(prob, kCap);
      fresh.Load(swapped);
      ASSERT_NEAR(ev.migration_cost(), fresh.migration_cost(),
                  1e-9 * std::max(1.0, fresh.migration_cost()));
      ASSERT_EQ(ev.IsFeasible(), fresh.IsFeasible()) << "step " << step;
      if (ev.migration_cost() != migration_before) ++migration_moved;
      const int wa = ev.WorkloadOfSlot(a), wb = ev.WorkloadOfSlot(b);
      if (wa == wb) ++replica_swaps;
      if (std::min(wa, wb) == 3 && std::max(wa, wb) == 4) ++double_pair_swaps;
      if ((std::min(wa, wb) == 0 && std::max(wa, wb) == 1) ||
          (std::min(wa, wb) == 2 && std::max(wa, wb) == 6)) {
        ++pair_swaps;
      }
    }
    ASSERT_NE(ev.assignment()[10], 3);  // the pin penalty stayed in
  }
  EXPECT_GT(commits, 300);
  EXPECT_GT(rejects, 100);
  EXPECT_GT(replica_swaps, 30);
  EXPECT_GT(double_pair_swaps, 15);
  EXPECT_GT(pair_swaps, 30);
  EXPECT_GT(migration_moved, 200);
}

TEST(EvaluatorSwapTest, QuoteAndCommitCountTheirOps) {
  const ConsolidationProblem prob = SwapProblem(1);
  Evaluator ev(prob, 5);
  ev.Load({0, 1, 0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 0});
  ResetEvalOps();
  const MoveQuote rejected = ev.QuoteSwap(0, 1);
  EXPECT_EQ(rejected.server[0], 0);
  EXPECT_EQ(rejected.server[1], 1);
  ev.ApplySwap(ev.QuoteSwap(0, 1));
  const EvalOpCounts ops = CurrentEvalOps();
  EXPECT_EQ(ops.swap_quotes, 2);
  EXPECT_EQ(ops.swap_moves, 1);
  EXPECT_EQ(ops.apply_move_ops, 0);
  EXPECT_EQ(ops.move_delta_ops, 0);
  FlushEvalOps(nullptr);
}

#ifndef NDEBUG
TEST(EvaluatorSwapDeathTest, StaleQuoteIsRefused) {
  const ConsolidationProblem prob = SwapProblem(1);
  Evaluator ev(prob, 5);
  ev.Load({0, 1, 0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 0});
  const MoveQuote quote = ev.QuoteSwap(0, 1);
  ev.ApplyMove(12, 1);  // server 1's rows change under the quote
  EXPECT_DEATH(ev.ApplySwap(quote), "quote");
}
#endif

TEST(EvaluatorMoveQuoteTest, QuoteAndCommitCountTheirOps) {
  // A quote counts as the MoveDelta it replaces and its commit as the
  // ApplyMove, so every op counter reads as before quotes.
  const ConsolidationProblem prob = SwapProblem(1);
  Evaluator ev(prob, 5);
  ev.Load({0, 1, 0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 0});
  ResetEvalOps();
  const MoveQuote rejected = ev.QuoteMove(0, 3);
  EXPECT_EQ(rejected.server[0], 0);
  EXPECT_EQ(rejected.server[1], 3);
  EXPECT_EQ(ev.assignment()[0], 0);
  ev.ApplyMove(ev.QuoteMove(0, 3));
  EXPECT_EQ(ev.assignment()[0], 3);
  const EvalOpCounts ops = CurrentEvalOps();
  EXPECT_EQ(ops.move_delta_ops, 2);
  EXPECT_EQ(ops.apply_move_ops, 1);
  EXPECT_EQ(ops.swap_quotes, 0);
  EXPECT_EQ(ops.swap_moves, 0);
  FlushEvalOps(nullptr);
}

#ifndef NDEBUG
TEST(EvaluatorMoveQuoteDeathTest, StaleQuoteIsRefused) {
  const ConsolidationProblem prob = SwapProblem(1);
  Evaluator ev(prob, 5);
  ev.Load({0, 1, 0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 0});
  const MoveQuote quote = ev.QuoteMove(0, 3);
  ev.ApplyMove(12, 3);  // server 3's rows change under the quote
  EXPECT_DEATH(ev.ApplyMove(quote), "quote");
}
#endif

TEST(ServerAggregateCostTest, ExcessTermsMatchTheClampedFormBitwise) {
  // ServerAggregateCost skips an excess term's division on a
  // within-capacity sample. Its violation must equal the clamped form
  // max(0, x / c - 1), summed in the same axis order, bit for bit: on
  // every combination of a CPU, RAM and disk sample below, one ulp below,
  // exactly at, one ulp above and above its capacity, and NaN.
  static const model::DiskModel disk_model = model::BuildAnalyticModel(
      sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 96e9, 2000);
  ConsolidationProblem prob;
  prob.workloads.push_back(MakeProfile("w", 1.0, 8.0, 100, /*samples=*/1));
  prob.disk_model = &disk_model;
  prob.per_instance_cpu_overhead_cores = 0.0;
  prob.instance_ram_overhead_bytes = 0;
  const LoadAccountant acct(prob, 1, /*track_server_load=*/false);
  ASSERT_EQ(acct.num_samples(), 1);
  const sim::EffectiveCapacity& cap = acct.CapacityOfClass(0);
  const model::DiskResource& disk = acct.Disk(0);
  ASSERT_TRUE(disk.active());
  const double ws = 8e9;
  const double disk_limit = disk.headroom() * disk.Capacity(ws);
  ASSERT_GT(disk_limit, 0.0);
  const auto samples_around = [](double c) {
    return std::vector<double>{0.0,
                               0.5 * c,
                               std::nextafter(c, 0.0),
                               c,
                               std::nextafter(c, 2.0 * c),
                               1.3 * c,
                               std::numeric_limits<double>::quiet_NaN()};
  };
  int over = 0;
  for (double cpu : samples_around(cap.cpu_cores)) {
    for (double ram : samples_around(cap.ram_bytes)) {
      for (double rate : samples_around(disk_limit)) {
        double got = -1.0;
        ServerAggregateCost(prob, acct, 0, ws, 1, {&cpu}, {&ram}, {&rate},
                            &got);
        double want = 0.0;
        want += std::max(0.0, cpu / cap.cpu_cores - 1.0);
        want += std::max(0.0, ram / cap.ram_bytes - 1.0);
        want += std::max(0.0, rate / disk_limit - 1.0);
        ASSERT_EQ(Bits(got), Bits(want))
            << "cpu " << cpu << " ram " << ram << " rate " << rate;
        if (want > 0.0) ++over;
      }
    }
  }
  EXPECT_GT(over, 200);  // most combinations carry some excess
}

}  // namespace
}  // namespace kairos::core
