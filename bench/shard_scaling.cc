// Sharded consolidation at fleet scale: partitions one mega-fleet
// consolidation problem into machine-class shards, solves them on the
// work-stealing pool, and reports placement throughput (slots consolidated
// per second) plus the thread-scaling curve at 1/2/4/8 workers. The
// determinism contract is asserted, not assumed: every thread count must
// produce a byte-identical plan, and the run fails hard when one does not.
//
//   build/bench_shard_scaling [--smoke] [--metrics-out=<path>]
//
// Full mode consolidates a 100,000-server / 1,000,000-slot fleet (the
// "datacenter-scale" configuration of the sharded-solve subsystem); --smoke
// shrinks it to 2,000 servers / 8,192 slots for CI. Speedup KPIs are
// reported for multicore hosts but not floor-gated: CI containers may have
// a single core, where the scaling curve is flat by construction.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/evaluator.h"
#include "core/problem.h"
#include "obs/sink.h"
#include "solve/shard.h"
#include "solve/solver.h"
#include "util/rng.h"
#include "util/table.h"

using namespace kairos;

namespace {

/// Synthesizes the mega-fleet problem: `workloads` tenants (a deterministic
/// mix of sizes, a slice of them 2-replica) over a two-class fleet. Few
/// samples per series — the bench stresses placement volume, not horizon.
core::ConsolidationProblem MakeFleetProblem(int workloads, int weak_servers,
                                            int strong_servers) {
  constexpr int kSamples = 4;
  core::ConsolidationProblem prob;
  util::Rng rng(bench::kSeed);
  prob.workloads.reserve(workloads);
  for (int i = 0; i < workloads; ++i) {
    monitor::WorkloadProfile p;
    p.name = "t" + std::to_string(i);
    std::vector<double> cpu(kSamples), ram(kSamples), rows(kSamples, 0.0);
    const double cpu_base = rng.Uniform(0.05, 0.8);
    const double ram_base = rng.Uniform(1e9, 6e9);
    for (int t = 0; t < kSamples; ++t) {
      cpu[t] = cpu_base * rng.Uniform(0.8, 1.2);
      ram[t] = ram_base * rng.Uniform(0.9, 1.1);
    }
    p.cpu_cores = util::TimeSeries(300, cpu);
    p.ram_bytes = util::TimeSeries(300, ram);
    p.update_rows_per_sec = util::TimeSeries(300, rows);
    p.working_set_bytes = ram_base * 0.8;
    if (i % 16 == 0) p.replicas = 2;  // a slice of HA tenants
    prob.workloads.push_back(std::move(p));
  }
  prob.fleet = sim::FleetSpec();
  prob.fleet.AddClass(sim::MachineSpec::Server1(), weak_servers, 1.0)
      .AddClass(sim::MachineSpec::ConsolidationTarget(), strong_servers, 2.5);
  return prob;
}

struct RunResult {
  core::ConsolidationPlan plan;
  double seconds = 0;
};

RunResult RunSharded(const core::ConsolidationProblem& prob,
                     const solve::SolveBudget& budget, int threads,
                     int num_shards) {
  solve::ShardOptions options;
  options.threads = threads;
  options.num_shards = num_shards;
  solve::ShardedSolver solver(bench::kSeed, options);
  bench::ScopedTimer timer;
  RunResult r;
  r.plan = solver.Solve(prob, budget);
  r.seconds = timer.Seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("shard_scaling", argc, argv);
  const bool smoke = reporter.smoke();

  // Full mode: >= 100k servers, >= 1M slots (1M = 937.5k tenants, every
  // 16th with a second replica). Smoke: ~2k servers, 8192 slots.
  const int workloads = smoke ? 7710 : 941177;
  const int weak_servers = smoke ? 1200 : 60000;
  const int strong_servers = smoke ? 800 : 40000;

  solve::SolveBudget budget;
  budget.sink = reporter.sink();

  bench::Banner("building the fleet problem");
  bench::ScopedTimer build_timer;
  const core::ConsolidationProblem prob =
      MakeFleetProblem(workloads, weak_servers, strong_servers);
  const int total_slots = prob.TotalSlots();
  const int cap = prob.ServerCap();
  std::printf("fleet %s, %d tenants, %d slots, built in %.2fs\n",
              prob.fleet.Render().c_str(), workloads, total_slots,
              build_timer.Seconds());
  reporter.Config("workloads", static_cast<int64_t>(workloads));
  reporter.Config("slots", static_cast<int64_t>(total_slots));
  reporter.Config("servers", static_cast<int64_t>(cap));

  const solve::ShardOptions probe_options;  // defaults: auto shard count
  const int num_shards =
      solve::ShardPartitioner(prob, probe_options).ResolvedShardCount();
  std::printf("partitioner: %d shards (~%d slots each)\n", num_shards,
              total_slots / num_shards);
  reporter.Config("shards", static_cast<int64_t>(num_shards));

  bench::Banner("sharded consolidation (auto threads)");
  const RunResult headline = RunSharded(prob, budget, /*threads=*/0, num_shards);
  reporter.DigestPlan(headline.plan);
  const double slots_per_sec =
      headline.seconds > 0 ? total_slots / headline.seconds : 0;
  std::printf(
      "%s: %d servers used, fleet cost %.1f, ratio %.1f:1 — %d slots in "
      "%.2fs (%.0f slots/sec)\n",
      headline.plan.feasible ? "feasible" : "INFEASIBLE",
      headline.plan.servers_used, headline.plan.fleet_cost,
      headline.plan.consolidation_ratio, total_slots, headline.seconds,
      slots_per_sec);
  reporter.Kpi("consolidate.slots_per_sec", slots_per_sec);
  reporter.Kpi("consolidate.servers_used", headline.plan.servers_used);
  reporter.Kpi("consolidate.fleet_cost", headline.plan.fleet_cost);
  reporter.Kpi("consolidate.feasible", headline.plan.feasible ? 1 : 0);

  bench::Banner("thread scaling (byte-identical plans required)");
  util::Table table({"threads", "seconds", "slots/sec", "speedup", "plan"});
  bool identical = true;
  double serial_seconds = 0;
  std::vector<double> rates;
  for (int threads : {1, 2, 4, 8}) {
    const RunResult r = RunSharded(prob, budget, threads, num_shards);
    reporter.DigestPlan(r.plan);
    if (threads == 1) serial_seconds = r.seconds;
    const bool same = r.plan.assignment.server_of_slot ==
                          headline.plan.assignment.server_of_slot &&
                      r.plan.objective == headline.plan.objective;
    identical = identical && same;
    const double rate = r.seconds > 0 ? total_slots / r.seconds : 0;
    rates.push_back(rate);
    const double speedup = r.seconds > 0 ? serial_seconds / r.seconds : 0;
    table.AddRow({std::to_string(threads),
                  util::FormatDouble(r.seconds, 2),
                  util::FormatDouble(rate, 0),
                  util::FormatDouble(speedup, 2),
                  same ? "identical" : "DIVERGED"});
    reporter.Kpi("scale.slots_per_sec_" + std::to_string(threads) + "t", rate);
    if (threads > 1) {
      reporter.Kpi("scale.speedup_" + std::to_string(threads) + "t", speedup);
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("plans across thread counts: %s\n",
              identical ? "byte-identical" : "DIVERGED (bug)");

  const int rc = reporter.WriteReport();
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: sharded plans diverged across thread counts\n");
    return 1;
  }
  return rc;
}
