#include "solve/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/engine.h"
#include "solve/solver.h"
#include "util/units.h"

namespace kairos::solve {
namespace {

monitor::WorkloadProfile MakeProfile(const std::string& name, double cpu_cores,
                                     double ram_gb, int samples = 6) {
  monitor::WorkloadProfile p;
  p.name = name;
  p.cpu_cores = util::TimeSeries::Constant(300, samples, cpu_cores);
  p.ram_bytes = util::TimeSeries::Constant(300, samples,
                                           ram_gb * static_cast<double>(util::kGiB));
  p.update_rows_per_sec = util::TimeSeries::Constant(300, samples, 0.0);
  p.working_set_bytes = ram_gb * 0.8 * static_cast<double>(util::kGiB);
  return p;
}

/// A two-class heterogeneous fleet (6 legacy + 4 target servers) with
/// enough varied workloads to spread across shards.
core::ConsolidationProblem TwoClassProblem(int n = 12) {
  core::ConsolidationProblem prob;
  for (int i = 0; i < n; ++i) {
    prob.workloads.push_back(MakeProfile("w" + std::to_string(i),
                                         0.4 + 0.15 * (i % 5),
                                         3.0 + 1.0 * (i % 4)));
  }
  prob.fleet = sim::FleetSpec();
  prob.fleet.AddClass(sim::MachineSpec::Server1(), 6, 1.0)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 4, 1.5);
  return prob;
}

// ---------------------------------------------------------------------------
// ShardSeed
// ---------------------------------------------------------------------------

TEST(ShardSeedTest, StableDistinctAndNonZero) {
  // Pure function of (master, id): stable across calls.
  for (uint64_t master : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    for (int id = 0; id < 16; ++id) {
      EXPECT_EQ(ShardSeed(master, id), ShardSeed(master, id));
      EXPECT_NE(ShardSeed(master, id), 0u);
    }
  }
  // Neighbouring shard ids and neighbouring masters land in distinct
  // streams (no collisions over a small grid).
  std::set<uint64_t> seen;
  for (uint64_t master : {1ULL, 2ULL, 3ULL}) {
    for (int id = 0; id < 32; ++id) seen.insert(ShardSeed(master, id));
  }
  EXPECT_EQ(seen.size(), 3u * 32u);
  // The seed of shard k does not depend on how many shards exist.
  EXPECT_EQ(ShardSeed(7, 3), ShardSeed(7, 3));
}

// ---------------------------------------------------------------------------
// ShardPartitioner
// ---------------------------------------------------------------------------

TEST(ShardPartitionerTest, EveryClassSpreadAcrossShardsDisjointly) {
  const core::ConsolidationProblem prob = TwoClassProblem();
  ShardOptions options;
  options.num_shards = 2;
  const ShardPartitioner partitioner(prob, options);
  ASSERT_EQ(partitioner.ResolvedShardCount(), 2);
  const std::vector<FleetShard> shards = partitioner.Partition(11);
  ASSERT_EQ(shards.size(), 2u);

  // 6+4 servers split 3+2 / 3+2: both shards see both machine classes.
  EXPECT_EQ(shards[0].servers, (std::vector<int>{0, 1, 2, 6, 7}));
  EXPECT_EQ(shards[1].servers, (std::vector<int>{3, 4, 5, 8, 9}));
  for (const FleetShard& shard : shards) {
    ASSERT_EQ(shard.problem.fleet.num_classes(), 2);
    EXPECT_EQ(shard.problem.fleet.TotalServers(), 5);  // fully bounded
    EXPECT_EQ(shard.seed, ShardSeed(11, shard.id));
  }

  // ShardOfServer inverts the dealing.
  for (const FleetShard& shard : shards) {
    for (int j : shard.servers) {
      EXPECT_EQ(partitioner.ShardOfServer(j), shard.id) << "server " << j;
    }
  }
  EXPECT_EQ(partitioner.ShardOfServer(-1), -1);
  EXPECT_EQ(partitioner.ShardOfServer(10), -1);

  // Workloads and slots: disjoint covers of the global index spaces.
  std::set<int> workloads, slots;
  for (const FleetShard& shard : shards) {
    EXPECT_TRUE(std::is_sorted(shard.workloads.begin(), shard.workloads.end()));
    for (int w : shard.workloads) EXPECT_TRUE(workloads.insert(w).second);
    for (int sl : shard.slots) EXPECT_TRUE(slots.insert(sl).second);
    EXPECT_EQ(shard.problem.TotalSlots(),
              static_cast<int>(shard.slots.size()));
  }
  EXPECT_EQ(workloads.size(), prob.workloads.size());
  EXPECT_EQ(static_cast<int>(slots.size()), prob.TotalSlots());
}

TEST(ShardPartitionerTest, PartitionIsDeterministic) {
  const core::ConsolidationProblem prob = TwoClassProblem();
  ShardOptions options;
  options.num_shards = 3;
  const ShardPartitioner partitioner(prob, options);
  const std::vector<FleetShard> a = partitioner.Partition(5);
  const std::vector<FleetShard> b = partitioner.Partition(5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].servers, b[i].servers);
    EXPECT_EQ(a[i].workloads, b[i].workloads);
    EXPECT_EQ(a[i].slots, b[i].slots);
  }
}

TEST(ShardPartitionerTest, PinnedGroupRoutesToThePinOwningShard) {
  core::ConsolidationProblem prob = TwoClassProblem();
  prob.workloads[0].pinned_server = 8;  // shard 1's range in class 1
  ShardOptions options;
  options.num_shards = 2;
  const ShardPartitioner partitioner(prob, options);
  const std::vector<FleetShard> shards = partitioner.Partition(11);
  ASSERT_EQ(partitioner.ShardOfServer(8), 1);
  const FleetShard& shard = shards[1];
  auto it = std::find(shard.workloads.begin(), shard.workloads.end(), 0);
  ASSERT_NE(it, shard.workloads.end());
  // The pin is remapped into the shard-local server index space.
  const int lw = static_cast<int>(it - shard.workloads.begin());
  const int lp = shard.problem.workloads[lw].pinned_server;
  ASSERT_GE(lp, 0);
  EXPECT_EQ(shard.servers[lp], 8);
}

TEST(ShardPartitionerTest, AntiAffinityGroupsNeverSpanShards) {
  core::ConsolidationProblem prob = TwoClassProblem();
  prob.anti_affinity = {{0, 7}, {7, 3}, {5, 11}};
  ShardOptions options;
  options.num_shards = 2;
  const ShardPartitioner partitioner(prob, options);
  const std::vector<FleetShard> shards = partitioner.Partition(11);

  auto shard_of_workload = [&](int w) {
    for (const FleetShard& shard : shards) {
      if (std::binary_search(shard.workloads.begin(), shard.workloads.end(), w))
        return shard.id;
    }
    return -1;
  };
  // The union-find chain {0,7,3} stays together, as does {5,11}.
  EXPECT_EQ(shard_of_workload(0), shard_of_workload(7));
  EXPECT_EQ(shard_of_workload(7), shard_of_workload(3));
  EXPECT_EQ(shard_of_workload(5), shard_of_workload(11));
  // Every explicit pair survives, remapped, inside exactly one shard.
  int pairs = 0;
  for (const FleetShard& shard : shards) {
    for (const auto& [a, b] : shard.problem.anti_affinity) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, static_cast<int>(shard.workloads.size()));
      EXPECT_GE(b, 0);
      EXPECT_LT(b, static_cast<int>(shard.workloads.size()));
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 3);
}

TEST(ShardPartitionerTest, MoreShardsThanWorkloadsLeavesEmptyShards) {
  core::ConsolidationProblem prob;
  prob.workloads.push_back(MakeProfile("only", 0.5, 4.0));
  prob.fleet = sim::FleetSpec();
  prob.fleet.AddClass(sim::MachineSpec::Server1(), 4, 1.0)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), 4, 1.5);
  ShardOptions options;
  options.num_shards = 4;
  const ShardPartitioner partitioner(prob, options);
  const std::vector<FleetShard> shards = partitioner.Partition(3);
  ASSERT_EQ(shards.size(), 4u);

  int populated = 0, empty = 0;
  for (const FleetShard& shard : shards) {
    EXPECT_FALSE(shard.servers.empty());  // servers are dealt regardless
    if (shard.slots.empty()) {
      EXPECT_TRUE(shard.workloads.empty());
      EXPECT_EQ(shard.problem.TotalSlots(), 0);
      ++empty;
    } else {
      ++populated;
    }
  }
  EXPECT_EQ(populated, 1);
  EXPECT_EQ(empty, 3);

  // The sharded solver still produces a valid single-workload plan.
  ShardedSolver solver(3, options);
  const core::ConsolidationPlan plan = solver.Solve(prob, SolveBudget{});
  ASSERT_EQ(plan.assignment.server_of_slot.size(), 1u);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.servers_used, 1);
}

TEST(ShardPartitionerTest, AutoShardCountClampsToServerCap) {
  core::ConsolidationProblem prob = TwoClassProblem(5200);
  ShardOptions options;
  options.num_shards = 0;  // 5,200 slots at 512 per shard would ask for 11
  const ShardPartitioner partitioner(prob, options);
  // Clamped to the 10-server cap.
  EXPECT_EQ(partitioner.ResolvedShardCount(), 10);

  options.num_shards = 64;
  EXPECT_EQ(ShardPartitioner(prob, options).ResolvedShardCount(), 10);
}

TEST(ShardPartitionerTest, IncumbentGroupsRouteToTheirCurrentServersShard) {
  core::ConsolidationProblem prob = TwoClassProblem();
  prob.workloads[2].replicas = 2;       // slots 2, 3: current in both shards
  prob.workloads[4].pinned_server = 1;  // the pin (shard 0) beats slot 5's current
  prob.workloads[6].replicas = 6;       // fits neither 5-server shard
  std::vector<int> slot_begin = {0};
  for (const auto& w : prob.workloads) {
    slot_begin.push_back(slot_begin.back() + w.replicas);
  }
  prob.current_assignment.resize(prob.TotalSlots());
  for (int sl = 0; sl < prob.TotalSlots(); ++sl) {
    prob.current_assignment[sl] = sl % prob.ServerCap();
  }

  ShardOptions options;
  options.num_shards = 2;
  const ShardPartitioner partitioner(prob, options);
  const std::vector<FleetShard> shards = partitioner.Partition(11);
  ASSERT_EQ(shards.size(), 2u);

  std::vector<int> shard_of_workload(prob.workloads.size(), -1);
  for (const FleetShard& shard : shards) {
    for (int w : shard.workloads) shard_of_workload[w] = shard.id;
  }
  // An unpinned group goes where its first slot currently runs, whenever
  // that shard has a server per replica.
  for (int w = 0; w < static_cast<int>(prob.workloads.size()); ++w) {
    if (prob.workloads[w].pinned_server >= 0) continue;
    const int home =
        partitioner.ShardOfServer(prob.current_assignment[slot_begin[w]]);
    if (static_cast<int>(shards[home].servers.size()) <
        prob.workloads[w].replicas) {
      continue;
    }
    EXPECT_EQ(shard_of_workload[w], home) << "workload " << w;
  }

  // Each shard keeps the current servers it owns (remapped to local
  // indices) and maps every foreign one to -1.
  int foreign = 0;
  for (const FleetShard& shard : shards) {
    ASSERT_EQ(shard.problem.current_assignment.size(), shard.slots.size());
    for (size_t ls = 0; ls < shard.slots.size(); ++ls) {
      const int current = prob.current_assignment[shard.slots[ls]];
      const int local = shard.problem.current_assignment[ls];
      if (std::binary_search(shard.servers.begin(), shard.servers.end(),
                             current)) {
        ASSERT_GE(local, 0);
        EXPECT_EQ(shard.servers[local], current);
      } else {
        EXPECT_EQ(local, -1) << "shard " << shard.id << " slot "
                             << shard.slots[ls];
        ++foreign;
      }
    }
  }
  EXPECT_GT(foreign, 0);
}

// ---------------------------------------------------------------------------
// ShardedSolver
// ---------------------------------------------------------------------------

TEST(ShardedSolverTest, ByteIdenticalPlansAtAnyThreadCount) {
  core::ConsolidationProblem prob = TwoClassProblem(16);
  prob.workloads[2].replicas = 2;
  prob.workloads[4].pinned_server = 7;
  prob.anti_affinity = {{0, 1}};

  auto solve = [&](int threads) {
    ShardOptions options;
    options.num_shards = 3;
    options.threads = threads;
    ShardedSolver solver(11, options);
    return solver.Solve(prob, SolveBudget{});
  };
  const core::ConsolidationPlan one = solve(1);
  for (int threads : {2, 4, 8}) {
    const core::ConsolidationPlan plan = solve(threads);
    EXPECT_EQ(plan.assignment.server_of_slot, one.assignment.server_of_slot)
        << threads << " threads";
    EXPECT_EQ(plan.objective, one.objective) << threads << " threads";
    EXPECT_EQ(plan.feasible, one.feasible) << threads << " threads";
  }
}

TEST(ShardedSolverTest, HonoursPinsReplicasAndAntiAffinity) {
  core::ConsolidationProblem prob = TwoClassProblem(16);
  prob.workloads[2].replicas = 2;
  prob.workloads[4].pinned_server = 7;
  prob.anti_affinity = {{0, 1}};

  ShardOptions options;
  options.num_shards = 3;
  ShardedSolver solver(11, options);
  const core::ConsolidationPlan plan = solver.Solve(prob, SolveBudget{});
  const std::vector<int>& a = plan.assignment.server_of_slot;
  ASSERT_EQ(static_cast<int>(a.size()), prob.TotalSlots());
  EXPECT_TRUE(plan.feasible);
  // Slot layout: w0->0, w1->1, w2->{2,3}, w3->4, w4->5, ...
  EXPECT_NE(a[0], a[1]);  // anti-affinity
  EXPECT_NE(a[2], a[3]);  // replica spread
  EXPECT_EQ(a[5], 7);     // pin
  for (int s : a) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, prob.ServerCap());
  }
}

TEST(ShardedSolverTest, SingleShardDegeneratesGracefully) {
  const core::ConsolidationProblem prob = TwoClassProblem(6);
  ShardOptions options;
  options.num_shards = 1;
  ShardedSolver solver(5, options);
  const core::ConsolidationPlan plan = solver.Solve(prob, SolveBudget{});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(static_cast<int>(plan.assignment.server_of_slot.size()),
            prob.TotalSlots());
}

TEST(ShardedSolverTest, EmptyProblemYieldsEmptyPlan) {
  core::ConsolidationProblem prob;
  ShardOptions options;
  ShardedSolver solver(1, options);
  const core::ConsolidationPlan plan = solver.Solve(prob, SolveBudget{});
  EXPECT_TRUE(plan.assignment.server_of_slot.empty());
  EXPECT_EQ(plan.servers_used, 0);
}

}  // namespace
}  // namespace kairos::solve
