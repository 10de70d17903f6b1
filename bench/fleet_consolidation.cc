// Heterogeneous-fleet consolidation sweep: solves the mixed-class scenarios
// over a sweep of class mixes (how many current-generation boxes are
// available next to the weakest class) and reports servers used per class,
// fleet cost, and consolidation ratio for each mix. Mix 0 is the "same
// workloads forced onto the weakest class" baseline; the headline is how
// much cheaper the class-aware placement gets as bigger boxes join the
// fleet. A second section streams the generation-upgrade scenario through
// the online controller and drains the legacy class mid-horizon. A third
// section sweeps the RAID-vs-spindle scenario — two classes with identical
// CPU/RAM but different *per-class disk models* — showing the update-heavy
// workloads landing on the RAID class, and demonstrates the disk-aware
// migration ledger flagging a staged plan that transiently overloads a
// spindle-bound box.
//
//   build/bench_fleet_consolidation [--smoke]
//
// --smoke shrinks horizons and solver budgets for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/sink.h"
#include "online/controller.h"
#include "online/migration.h"
#include "online/telemetry.h"
#include "solve/portfolio.h"
#include "trace/scenario.h"
#include "util/table.h"

using namespace kairos;

namespace {

/// Non-null when --metrics-out is set: every section's solves feed the one
/// sink (all output goes to the JSON file; stdout stays byte-identical).
obs::Sink* g_sink = nullptr;

struct MixResult {
  core::ConsolidationPlan plan;
  std::string winner;
};

/// One spec per built-in solver, seeds derived from `seed`.
std::vector<solve::PortfolioSolverSpec> MakeSpecs(uint64_t seed) {
  std::vector<solve::PortfolioSolverSpec> specs;
  for (const std::string& name : solve::SolverNames()) {
    specs.push_back({name, seed});
    seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  }
  return specs;
}

MixResult SolveMix(const trace::FleetScenario& scenario, int strong_count,
                   const solve::SolveBudget& budget) {
  core::ConsolidationProblem problem;
  problem.workloads = scenario.profiles;
  problem.fleet.classes = {scenario.fleet.classes[0]};
  if (strong_count > 0) {
    sim::MachineClass strong = scenario.fleet.classes[1];
    strong.count = strong_count;
    problem.fleet.classes.push_back(strong);
  }

  solve::PortfolioOptions options;
  options.budget = budget;
  options.budget.sink = g_sink;
  const solve::PortfolioResult result =
      solve::PortfolioRunner(options).Run(problem, MakeSpecs(bench::kSeed));
  return {result.best, result.winner};
}

void SweepScenario(trace::FleetScenarioKind kind, int steps,
                   const solve::SolveBudget& budget,
                   bench::BenchReporter* reporter) {
  trace::ScenarioConfig config;
  config.steps = steps;
  config.seed = bench::kSeed;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(kind, config);

  const sim::MachineClass& weak = scenario.fleet.classes[0];
  const sim::MachineClass& strong = scenario.fleet.classes[1];
  std::printf("scenario %s: %zu workloads, weak=%s w=%s, strong=%s w=%s\n",
              trace::FleetScenarioName(kind).c_str(), scenario.profiles.size(),
              weak.spec.name.c_str(),
              util::FormatDouble(weak.cost_weight, 2).c_str(),
              strong.spec.name.c_str(),
              util::FormatDouble(strong.cost_weight, 2).c_str());

  util::Table table({"strong boxes", "winner", "weak used", "strong used",
                     "fleet cost", "ratio", "feasible"});
  double weakest_only_cost = 0;
  double best_cost = 1e300;
  const int max_strong = strong.count;
  for (int m = 0; m <= max_strong; ++m) {
    const MixResult r = SolveMix(scenario, m, budget);
    reporter->DigestPlan(r.plan);
    const int weak_used =
        r.plan.class_servers_used.empty() ? 0 : r.plan.class_servers_used[0];
    const int strong_used = r.plan.class_servers_used.size() > 1
                                ? r.plan.class_servers_used[1]
                                : 0;
    table.AddRow({std::to_string(m), r.winner, std::to_string(weak_used),
                  std::to_string(strong_used),
                  util::FormatDouble(r.plan.fleet_cost, 2),
                  util::FormatDouble(r.plan.consolidation_ratio, 1),
                  r.plan.feasible ? "yes" : "NO"});
    if (m == 0) weakest_only_cost = r.plan.fleet_cost;
    if (r.plan.feasible && r.plan.fleet_cost < best_cost) {
      best_cost = r.plan.fleet_cost;
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("best mix fleet cost %s vs weakest-only %s (%s%% cheaper)\n\n",
              util::FormatDouble(best_cost, 2).c_str(),
              util::FormatDouble(weakest_only_cost, 2).c_str(),
              util::FormatDouble(
                  weakest_only_cost > 0
                      ? 100.0 * (weakest_only_cost - best_cost) / weakest_only_cost
                      : 0.0,
                  1)
                  .c_str());
}

/// RAID-vs-spindle: solve the mixed-disk fleet, report where the
/// update-heavy workloads landed, then ask the migration planner to stage
/// a plan that parks two update-heavy tenants on one spindle box — the
/// disk-aware ledger must flag it unsafe.
void RaidVsSpindle(int steps, const solve::SolveBudget& budget,
                   bench::BenchReporter* reporter) {
  trace::ScenarioConfig config;
  config.steps = steps;
  config.seed = bench::kSeed;
  const trace::FleetScenario scenario = trace::MakeFleetScenario(
      trace::FleetScenarioKind::kRaidVsSpindle, config);

  core::ConsolidationProblem problem;
  problem.workloads = scenario.profiles;
  problem.fleet = scenario.fleet;

  solve::PortfolioOptions options;
  options.budget = budget;
  options.budget.sink = g_sink;
  const solve::PortfolioResult result =
      solve::PortfolioRunner(options).Run(problem, MakeSpecs(bench::kSeed));
  reporter->DigestPlan(result.best);

  std::printf("fleet: %s\n", scenario.fleet.Render().c_str());
  int heavy_on_raid = 0, heavy_total = 0, light_on_raid = 0;
  std::vector<char> is_heavy(scenario.profiles.size(), 0);
  for (int w : scenario.update_heavy) is_heavy[w] = 1;
  const auto& plan = result.best.assignment.server_of_slot;
  for (int w = 0; w < static_cast<int>(plan.size()); ++w) {
    const bool on_raid =
        scenario.fleet.ClassOf(plan[w]) == scenario.raid_class;
    if (is_heavy[w]) {
      ++heavy_total;
      if (on_raid) ++heavy_on_raid;
    } else if (on_raid) {
      ++light_on_raid;
    }
  }
  std::printf(
      "winner %s: %s, fleet cost %s, update-heavy on raid %d/%d, "
      "light on raid %d\n",
      result.winner.c_str(), result.best.feasible ? "feasible" : "INFEASIBLE",
      util::FormatDouble(result.best.fleet_cost, 2).c_str(), heavy_on_raid,
      heavy_total, light_on_raid);

  // Ledger rejection demo: stage "two update-heavy tenants onto one
  // spindle box" from the solved placement. One fits; the second would
  // push the box past its sustainable update rate mid-migration.
  if (scenario.update_heavy.size() >= 2) {
    std::vector<int> from = plan;
    std::vector<int> to = plan;
    // A spindle server nobody uses in the incumbent placement.
    int spare_spindle = -1;
    for (int j = 0; j < scenario.fleet.classes[0].count; ++j) {
      bool used = false;
      for (int s : from) used = used || s == j;
      if (!used) {
        spare_spindle = j;
        break;
      }
    }
    if (spare_spindle >= 0) {
      to[scenario.update_heavy[0]] = spare_spindle;
      to[scenario.update_heavy[1]] = spare_spindle;
      const online::MigrationPlan bad =
          online::MigrationPlanner(/*max_stages=*/6).Plan(problem, from, to);
      std::printf(
          "staged co-location of 2 update-heavy tenants on spindle server "
          "%d: %s (%d moves, %zu stages)\n",
          spare_spindle, bad.safe ? "safe (BUG)" : "rejected as UNSAFE",
          bad.total_moves(), bad.stages.size());
    }
  }
  std::printf("\n");
}

void GenerationUpgradeDrain(int steps, bench::BenchReporter* reporter) {
  trace::ScenarioConfig config;
  config.steps = steps;
  config.seed = bench::kSeed;
  const trace::FleetScenario scenario =
      trace::MakeFleetScenario(trace::FleetScenarioKind::kGenerationUpgrade, config);

  online::ControllerConfig controller_config;
  controller_config.base.workloads = scenario.profiles;
  controller_config.base.fleet = scenario.fleet;
  controller_config.seed = bench::kSeed;
  controller_config.sink = g_sink;
  online::ConsolidationController controller(controller_config);

  online::ReplayFeed feed = online::ReplayFeed::FromProfiles(scenario.profiles);
  std::vector<online::TelemetrySample> samples;
  int step = 0;
  bool drained = false;
  while (feed.Next(&samples)) {
    if (step == scenario.drain_step) {
      drained = controller.DrainClass(scenario.drain_class);
    }
    controller.Ingest(samples);
    ++step;
  }

  reporter->DigestPlan(controller.assignment(),
                       controller.CurrentServiceObjective());
  int moves = controller.total_moves();
  bool all_safe = true;
  for (const auto& e : controller.history()) {
    all_safe = all_safe && e.migration_safe;
  }
  int on_legacy = 0;
  for (int s : controller.assignment()) {
    if (controller_config.base.fleet.ClassOf(s) == scenario.drain_class) ++on_legacy;
  }
  std::printf(
      "generation-upgrade: drain(%s)=%s at step %d, re-solves=%zu, moves=%d, "
      "staged-safe=%s, slots left on legacy=%d\n",
      scenario.fleet.classes[scenario.drain_class].spec.name.c_str(),
      drained ? "ok" : "REFUSED", scenario.drain_step,
      controller.history().size(), moves, all_safe ? "yes" : "NO", on_legacy);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReporter reporter("fleet_consolidation", argc, argv);
  const bool smoke = reporter.smoke();
  const int steps = smoke ? 24 : 96;
  g_sink = reporter.sink();
  reporter.Config("steps", static_cast<int64_t>(steps));

  solve::SolveBudget budget;
  budget.max_iterations = smoke ? 12000 : 30000;
  budget.direct_evaluations = smoke ? 800 : 4000;
  budget.probe_direct_evaluations = smoke ? 200 : 800;

  bench::Banner("heterogeneous fleet consolidation (class-mix sweep, " +
                std::to_string(steps) + " steps)");
  SweepScenario(trace::FleetScenarioKind::kMixedGeneration, steps, budget,
                &reporter);
  SweepScenario(trace::FleetScenarioKind::kScaleUpVsScaleOut, steps, budget,
                &reporter);

  bench::Banner("per-class disk models: RAID vs spindle");
  SweepScenario(trace::FleetScenarioKind::kRaidVsSpindle, steps, budget,
                &reporter);
  RaidVsSpindle(steps, budget, &reporter);

  bench::Banner("generation-upgrade drain (online controller)");
  GenerationUpgradeDrain(smoke ? 32 : 64, &reporter);

  return reporter.WriteReport();
}
