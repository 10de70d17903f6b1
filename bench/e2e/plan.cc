// plan-paper and plan-mixed-fleet: back-to-back solver-portfolio runs, one
// client. plan-paper is the paper's Section 6 path (four production
// datasets on the uniform 12-core / 96 GB RAID-10 target; the dimensioner
// is bypassed). plan-mixed-fleet is the heterogeneous path (the four
// mixed-class fleet scenarios; the cost-budget dimensioner and cross-class
// moves do the work).
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/common.h"
#include "core/dimensioner.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "model/analytic.h"
#include "obs/sink.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/dataset.h"
#include "trace/scenario.h"

namespace kairos::e2e {

namespace {

/// Seeds per workload in the input pool; a run that outlasts the pool
/// starts over at its first round.
constexpr int kPoolRounds = 10;
/// Rounds every run completes whatever the machine speed: quality values
/// and per-solve counts are taken over exactly these solves.
constexpr int kFixedRounds = 2;

struct PlanItem {
  std::string label;
  core::ConsolidationProblem problem;
  uint64_t portfolio_seed = 1;
};

struct PlanPool {
  /// The shared RAID-10 model plan-paper problems point at (null on mixed
  /// fleets, whose classes carry their own disk models where they have any).
  std::unique_ptr<model::DiskModel> disk;
  std::vector<PlanItem> items;  ///< Round-major, per_round items a round.
  int per_round = 0;
};

PlanPool MakePool(uint64_t seed, bool mixed_fleet) {
  PlanPool pool;
  if (!mixed_fleet) {
    pool.disk = std::make_unique<model::DiskModel>(model::BuildAnalyticModel(
        sim::DiskSpec::Raid10(), model::AnalyticConfig{}, 120e9, 2000.0));
  }
  for (int r = 0; r < kPoolRounds; ++r) {
    const uint64_t round_seed = DeriveSeed(seed, 1, r);
    if (mixed_fleet) {
      trace::ScenarioConfig config;
      config.workloads = 32;
      config.steps = 288;
      config.seed = round_seed;
      for (trace::FleetScenarioKind kind : trace::AllFleetScenarios()) {
        trace::FleetScenario scenario = trace::MakeFleetScenario(kind, config);
        PlanItem item;
        item.label = trace::FleetScenarioName(kind) + "/r" + std::to_string(r);
        item.problem.workloads = std::move(scenario.profiles);
        item.problem.fleet = std::move(scenario.fleet);
        pool.items.push_back(std::move(item));
      }
    } else {
      const trace::DatasetGenerator generator(round_seed);
      for (trace::DatasetKind kind : trace::AllDatasets()) {
        PlanItem item;
        item.label = trace::DatasetName(kind) + "/r" + std::to_string(r);
        item.problem.workloads = trace::ToProfiles(generator.Generate(kind));
        item.problem.disk_model = pool.disk.get();
        pool.items.push_back(std::move(item));
      }
    }
  }
  for (size_t i = 0; i < pool.items.size(); ++i) {
    pool.items[i].portfolio_seed = DeriveSeed(seed, 2, i);
  }
  pool.per_round = static_cast<int>(pool.items.size()) / kPoolRounds;
  return pool;
}

solve::PortfolioResult SolveItem(const PlanItem& item, int threads,
                                 obs::Sink* sink) {
  solve::PortfolioOptions options;
  options.threads = threads;
  options.budget.sink = sink;
  return solve::PortfolioRunner(options).Run(
      item.problem, solve::PortfolioRunner::DefaultSpecs(item.portfolio_seed));
}

struct SolveRecord {
  int item = 0;
  double wall_s = 0;  ///< Timed around PortfolioRunner::Run.
  solve::PortfolioResult result;
  /// Evaluator op counters of this run (traced pass only).
  int64_t move_delta_ops = 0, evaluate_ops = 0, apply_move_ops = 0;
};

/// The traced pass's span recorder: one top-level section per portfolio run.
struct PlanTrace {
  obs::Profiler profiler;
  uint32_t run_section = profiler.InternSection("solve.portfolio.run");
  int64_t dropped_events = 0;
};

/// Solves pool items round by round: exactly `rounds` rounds when `rounds`
/// > 0, else at least kFixedRounds and then up to the round boundary
/// nearest to `seconds`. A traced pass attaches a fresh sink per run, so no
/// per-thread ring can overflow.
std::vector<SolveRecord> RunLoop(const PlanPool& pool, double seconds,
                                 int rounds, PlanTrace* trace, double* wall_s) {
  std::vector<SolveRecord> solves;
  RoundClock clock(seconds, rounds, kFixedRounds);
  for (int r = 0; clock.Continue(r); ++r) {
    for (int k = 0; k < pool.per_round; ++k) {
      SolveRecord record;
      record.item = (r % kPoolRounds) * pool.per_round + k;
      std::unique_ptr<obs::Sink> sink;
      if (trace != nullptr) sink = std::make_unique<obs::Sink>();
      {
        obs::ProfileScope scope(trace ? &trace->profiler : nullptr,
                                trace ? trace->run_section : 0);
        const auto t0 = Clock::now();
        record.result = SolveItem(pool.items[record.item], kThreads, sink.get());
        record.wall_s = SecondsSince(t0);
      }
      if (sink != nullptr) {
        trace->dropped_events += sink->trace().dropped_events();
        record.move_delta_ops = CounterValue(*sink, "evaluator.move_delta_ops");
        record.evaluate_ops = CounterValue(*sink, "evaluator.evaluate_ops");
        record.apply_move_ops = CounterValue(*sink, "evaluator.apply_move_ops");
      }
      solves.push_back(std::move(record));
    }
  }
  *wall_s = clock.elapsed();
  return solves;
}

/// Output check of one portfolio run: the plan is within [0, HardCap),
/// honours pins, and core::FinalizePlan reproduces its feasibility and
/// objective. An infeasible plan counts as a failed operation.
void CheckSolve(const PlanItem& item, const SolveRecord& record,
                Report* report) {
  const core::ConsolidationProblem& problem = item.problem;
  const core::ConsolidationPlan& plan = record.result.best;
  const std::vector<int>& a = plan.assignment.server_of_slot;
  const int cap = solve::HardCap(problem);
  std::string error;
  if (record.result.winner_index < 0) {
    error = "no winner";
  } else if (static_cast<int>(a.size()) != problem.TotalSlots()) {
    error = "assignment size";
  } else {
    int slot = 0;
    for (const monitor::WorkloadProfile& w : problem.workloads) {
      for (int rep = 0; rep < w.replicas; ++rep, ++slot) {
        if (a[slot] < 0 || a[slot] >= cap) error = "server out of range";
        if (w.pinned_server >= 0 && a[slot] != w.pinned_server) error = "pin";
      }
    }
    const core::ConsolidationPlan again = core::FinalizePlan(problem, a, cap);
    if (again.feasible != plan.feasible) error = "feasibility not reproduced";
    if (std::abs(again.objective - plan.objective) >
        1e-9 * std::max(1.0, std::abs(plan.objective))) {
      error = "objective not reproduced";
    }
  }
  report->Check(error.empty(), item.label + ": " + error);
  if (!plan.feasible) ++report->failed;
}

/// Plan quality over the fixed first rounds: a pure function of the seed.
void ReportQuality(const PlanPool& pool, const std::vector<SolveRecord>& solves,
                   Report* report) {
  const size_t n = static_cast<size_t>(kFixedRounds * pool.per_round);
  double cost = 0, objective = 0, servers = 0, infeasible = 0;
  for (size_t i = 0; i < n; ++i) {
    const core::ConsolidationPlan& plan = solves[i].result.best;
    cost += plan.fleet_cost;
    objective += plan.objective;
    servers += plan.servers_used;
    infeasible += plan.feasible ? 0 : 1;
  }
  report->Quality("fleet_cost_mean", cost / n);
  report->Quality("objective_mean", objective / n);
  report->Quality("servers_mean", servers / n);
  report->Quality("infeasible_frac", infeasible / n);
  report->Set("solve.portfolio.fleet_cost_mean", cost / n);
  report->Set("solve.portfolio.infeasible_frac", infeasible / n);
}

/// One problem per run is re-solved single-threaded; the portfolio must
/// give a byte-identical assignment.
void CheckThreadDeterminism(const PlanPool& pool, uint64_t seed,
                            const std::vector<SolveRecord>& solves,
                            Report* report) {
  const int item = static_cast<int>(seed % pool.per_round);
  const solve::PortfolioResult serial =
      SolveItem(pool.items[item], /*threads=*/1, nullptr);
  report->Check(serial.best.assignment.server_of_slot ==
                    solves[item].result.best.assignment.server_of_slot,
                pool.items[item].label +
                    ": threads=1 assignment differs from threads=4");
}

/// Layer probes on the fixed-round problems, loaded with their adopted
/// plans: MoveDelta / Evaluate unit costs and a standalone dimensioner run
/// (heterogeneous fleets only; uniform fleets never reach it).
void RunLayerProbes(const PlanPool& pool, const std::vector<SolveRecord>& solves,
                    uint64_t seed, Report* report) {
  const size_t n = static_cast<size_t>(kFixedRounds * pool.per_round);
  EvaluatorCost evaluator;
  double dimensioner_s = 0, budget_sum = 0;
  int dimensioner_runs = 0;
  for (size_t i = 0; i < n; ++i) {
    const PlanItem& item = pool.items[solves[i].item];
    evaluator.Measure(item.problem, solves[i].result.best.assignment.server_of_slot,
                      DeriveSeed(seed, 3, i));
    if (!item.problem.fleet.Uniform()) {
      const solve::SolveBudget budget;
      core::EngineOptions options;
      options.seed = item.portfolio_seed;
      options.direct_evaluations = budget.direct_evaluations;
      options.probe_direct_evaluations = budget.probe_direct_evaluations;
      options.local_search_max_sweeps = budget.local_search_max_sweeps;
      core::ConsolidationEngine engine(item.problem, options);
      const core::GreedyResult greedy =
          core::GreedyBaseline(item.problem, item.problem.ServerCap());
      const auto start = Clock::now();
      const core::DimensioningResult dim =
          core::FleetDimensioner(item.problem, engine, options).Run(greedy);
      dimensioner_s += SecondsSince(start);
      budget_sum += dim.budget;
      ++dimensioner_runs;
    }
  }
  evaluator.SetMetrics(report);
  report->Set("core.dimensioner.run_ms_mean",
              dimensioner_runs > 0 ? 1e3 * dimensioner_s / dimensioner_runs : 0);
  report->Info("probe.dimensioner_budget_sum", budget_sum);
}

void ReportLayers(const PlanPool& pool, const std::vector<SolveRecord>& solves,
                  Report* report) {
  std::map<std::string, double> busy_s, wins;
  double wall_s = 0, member_busy_s = 0;
  std::vector<double> run_ms;
  for (const SolveRecord& s : solves) {
    run_ms.push_back(1e3 * s.result.wall_seconds);
    wall_s += s.result.wall_seconds;
    for (const solve::PortfolioMemberResult& m : s.result.members) {
      busy_s[m.solver] += m.solve_seconds;
      member_busy_s += m.solve_seconds;
    }
    wins[s.result.winner] += 1;
  }
  const double runs = static_cast<double>(solves.size());
  report->Set("solve.portfolio.run_ms_mean", Mean(run_ms));
  report->Set("solve.portfolio.parallel_efficiency",
              member_busy_s / (kThreads * wall_s));
  for (const std::string& m : PortfolioMembers()) {
    report->Set("solve." + m + ".busy_s", busy_s[m] / runs);
    report->Set("solve." + m + ".win_frac", wins[m] / runs);
  }

  // Counts per run over the fixed rounds: deterministic for a given seed.
  const size_t n = static_cast<size_t>(kFixedRounds * pool.per_round);
  double probes = 0, budget_probes = 0, direct = 0;
  double move_delta = 0, evaluate = 0, apply_move = 0;
  for (size_t i = 0; i < n; ++i) {
    const SolveRecord& s = solves[i];
    for (const solve::PortfolioMemberResult& m : s.result.members) {
      if (m.solver != "engine") continue;
      probes += m.plan.probe_attempts;
      budget_probes += m.plan.budget_probes;
      direct += m.plan.solver_evaluations;
    }
    move_delta += static_cast<double>(s.move_delta_ops);
    evaluate += static_cast<double>(s.evaluate_ops);
    apply_move += static_cast<double>(s.apply_move_ops);
  }
  report->Set("core.engine.probe_attempts", probes / n);
  report->Set("core.engine.budget_probes", budget_probes / n);
  report->Set("core.engine.direct_evals", direct / n);
  report->Set("core.evaluator.move_delta_ops", move_delta / n);
  report->Set("core.evaluator.evaluate_ops", evaluate / n);
  report->Set("core.evaluator.apply_move_ops", apply_move / n);
}

}  // namespace

Report RunPlan(const Args& args, bool mixed_fleet) {
  Report report;
  PlanPool pool;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
    pool = PlanPool();  // release the previous set-up first
    const auto t0 = Clock::now();
    pool = MakePool(args.seed, mixed_fleet);
    SolveItem(pool.items[0], kThreads, nullptr);  // warm-up
    setup_s.push_back(SecondsSince(t0));
  }

  double wall_s = 0;
  const std::vector<SolveRecord> solves =
      RunLoop(pool, args.trace ? args.seconds / 2 : args.seconds, 0, nullptr,
              &wall_s);
  for (const SolveRecord& s : solves) CheckSolve(pool.items[s.item], s, &report);
  report.attempted = static_cast<int64_t>(solves.size());
  ReportQuality(pool, solves, &report);
  CheckThreadDeterminism(pool, args.seed, solves, &report);
  report.Info("loop.solves", static_cast<double>(solves.size()));
  report.Info("loop.wall_s", wall_s);

  if (!args.trace) {
    std::vector<double> latency_ms;
    std::map<std::string, std::vector<double>> by_input;
    double busy_s = 0;
    for (const SolveRecord& s : solves) {
      latency_ms.push_back(1e3 * s.wall_s);
      const std::string& label = pool.items[s.item].label;
      by_input[label.substr(0, label.find('/'))].push_back(1e3 * s.wall_s);
      busy_s += s.wall_s;
    }
    for (const auto& [input, ms] : by_input) {
      report.Info("latency_ms_p50." + input, Quantile(ms, 0.5));
    }
    report.Set("setup_s", Quantile(setup_s, 0.5));
    report.Set("latency_ms_p50", Quantile(latency_ms, 0.5));
    report.Set("latency_ms_p90", Quantile(latency_ms, 0.9));
    report.Set("throughput_per_s", static_cast<double>(solves.size()) / busy_s);
    report.Set("peak_rss_mb", PeakRssMb());
    return report;
  }

  PlanTrace trace;
  double traced_wall_s = 0;
  const std::vector<SolveRecord> traced =
      RunLoop(pool, 0, static_cast<int>(solves.size()) / pool.per_round, &trace,
              &traced_wall_s);
  for (const SolveRecord& s : traced) CheckSolve(pool.items[s.item], s, &report);
  report.attempted += static_cast<int64_t>(traced.size());
  ReportLayers(pool, traced, &report);
  ReportTraceCoverage(&report, trace.profiler, wall_s, traced_wall_s,
                      trace.dropped_events);
  RunLayerProbes(pool, traced, args.seed, &report);
  return report;
}

}  // namespace kairos::e2e
