// Section 6 / 7.5: solver performance.
//
// Compares the bounded-K binary-search strategy (fractional lower bound,
// greedy upper bound, feasibility probes, then a polish at K') against a
// direct application of the solver to the full space. Expected shape
// (paper): the bounded search is dramatically faster (up to 45x on the
// Wikia statistics — over 33 min unbounded vs 44 s bounded) at equal or
// better solution quality, and all individual datasets solve within
// minutes.
// Also compares the solver portfolio (src/solve/) at 1/2/4 threads against
// the single engine on the same problems: the portfolio should match or
// beat the engine's objective, and adding threads should cut wall-clock
// versus running the same solvers sequentially.
// Finally, on exactly solvable sub-instances of each dataset, races the
// portfolio against the "exact" branch-and-bound solver and reports the
// certified optimality gap (KPI solver.gap_to_exact, exact-gated at 0 in
// the CI baseline: the portfolio must keep finding the proven optimum).
//
// --smoke shrinks traces, budgets, and the dataset sweep for CI.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "obs/sink.h"
#include "solve/portfolio.h"
#include "solve/solver.h"
#include "trace/dataset.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace kairos;
  bench::BenchReporter reporter("solver_performance", argc, argv);
  obs::Sink* const sink_ptr = reporter.sink();
  const bool smoke = reporter.smoke();

  bench::Banner("Solver performance: bounded-K binary search vs. full space");

  const model::DiskModel disk_model = bench::TargetDiskModel();
  trace::TraceConfig trace_config;
  if (smoke) trace_config.samples = 48;
  reporter.Config("samples", static_cast<int64_t>(trace_config.samples));
  trace::DatasetGenerator gen(bench::kSeed, trace_config);
  std::vector<trace::DatasetKind> datasets = trace::AllDatasets();
  if (smoke) datasets.resize(2);  // Internal + Wikia keep CI under a minute

  util::Table table({"dataset", "workloads", "bounded-K (s)", "servers",
                     "full-space (s)", "servers", "speedup"});
  for (auto kind : datasets) {
    const auto traces = gen.Generate(kind);
    core::ConsolidationProblem prob;
    prob.workloads = trace::ToProfiles(traces);
    prob.disk_model = &disk_model;

    core::EngineOptions bounded;
    bounded.sink = sink_ptr;
    bounded.obs_label = "bounded";
    if (smoke) {
      bounded.direct_evaluations = 800;
      bounded.local_search_max_sweeps = 40;
    }
    const bench::ScopedTimer bounded_timer;
    const auto plan_bounded = core::ConsolidationEngine(prob, bounded).Solve();
    const double bounded_s = bounded_timer.Seconds();

    core::EngineOptions full;
    full.use_bounded_k = false;
    // Give the unbounded solver a budget that reaches comparable quality;
    // its space is max_servers = N, so it needs far more work per step.
    full.direct_evaluations = smoke ? 2000 : 20000;
    full.local_search_max_sweeps = smoke ? 60 : 200;
    full.sink = sink_ptr;
    full.obs_label = "full-space";
    const bench::ScopedTimer full_timer;
    const auto plan_full = core::ConsolidationEngine(prob, full).Solve();
    const double full_s = full_timer.Seconds();
    reporter.DigestPlan(plan_bounded);
    reporter.DigestPlan(plan_full);

    table.AddRow({trace::DatasetName(kind), std::to_string(traces.size()),
                  util::FormatDouble(bounded_s, 2),
                  std::to_string(plan_bounded.servers_used) +
                      (plan_bounded.feasible ? "" : "!"),
                  util::FormatDouble(full_s, 2),
                  std::to_string(plan_full.servers_used) +
                      (plan_full.feasible ? "" : "!"),
                  util::FormatDouble(full_s / std::max(1e-3, bounded_s), 1) + "x"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\n'!' marks an infeasible result. Expected: bounded-K much "
              "faster at equal-or-fewer servers (paper: up to 45x; all "
              "individual datasets under 8 minutes).\n");

  bench::Banner("Solver portfolio {greedy, engine, anneal, tabu}: threads vs. "
                "single engine");

  util::Table portfolio_table({"dataset", "engine obj", "engine (s)",
                               "portfolio obj", "winner", "1-thr (s)",
                               "2-thr (s)", "4-thr (s)", "4-thr speedup"});
  for (auto kind : datasets) {
    const auto traces = gen.Generate(kind);
    core::ConsolidationProblem prob;
    prob.workloads = trace::ToProfiles(traces);
    prob.disk_model = &disk_model;

    core::EngineOptions engine_options;
    engine_options.sink = sink_ptr;
    if (smoke) {
      engine_options.direct_evaluations = 800;
      engine_options.local_search_max_sweeps = 40;
    }
    const bench::ScopedTimer engine_timer;
    const auto engine_plan =
        core::ConsolidationEngine(prob, engine_options).Solve();
    const double engine_s = engine_timer.Seconds();

    const auto specs = solve::PortfolioRunner::DefaultSpecs(bench::kSeed);
    double seconds[3] = {0, 0, 0};
    solve::PortfolioResult result;
    const int thread_counts[3] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      solve::PortfolioOptions options;
      options.threads = thread_counts[i];
      options.budget.sink = sink_ptr;
      if (smoke) {
        options.budget.max_iterations = 8000;
        options.budget.direct_evaluations = 800;
        options.budget.probe_direct_evaluations = 200;
      }
      const auto r = solve::PortfolioRunner(options).Run(prob, specs);
      seconds[i] = r.wall_seconds;
      result = r;  // same specs + seeds -> same plans at every thread count
    }
    reporter.DigestPlan(engine_plan);
    reporter.DigestPlan(result.best);

    portfolio_table.AddRow(
        {trace::DatasetName(kind), util::FormatDouble(engine_plan.objective, 1),
         util::FormatDouble(engine_s, 2),
         util::FormatDouble(result.best.objective, 1) +
             (result.best.feasible ? "" : "!"),
         result.winner, util::FormatDouble(seconds[0], 2),
         util::FormatDouble(seconds[1], 2), util::FormatDouble(seconds[2], 2),
         util::FormatDouble(seconds[0] / std::max(1e-3, seconds[2]), 1) + "x"});
  }
  std::printf("%s", portfolio_table.ToString().c_str());
  std::printf("\nExpected: portfolio objective <= engine objective on every "
              "dataset, and — on a multi-core host — 4 threads well under "
              "the 1-thread (sequential) wall-clock. Detected hardware "
              "threads: %u (speedups flatten to ~1x on a single core).\n",
              std::thread::hardware_concurrency());

  bench::Banner("Gap to exact: portfolio incumbent vs. certified optimum");

  // Sub-instances small enough for the branch-and-bound to *prove* the
  // optimum within its default node budget: the first few workloads of each
  // dataset on a tight server cap. The portfolio's gap to that certificate
  // is the quality KPI the CI baseline pins at zero.
  const int sub_workloads = 8;
  const int sub_cap = 5;
  reporter.Config("exact_sub_workloads", static_cast<int64_t>(sub_workloads));
  reporter.Config("exact_sub_cap", static_cast<int64_t>(sub_cap));

  util::Table gap_table({"dataset", "slots", "exact obj", "nodes", "proved",
                         "portfolio obj", "gap"});
  double worst_gap = 0;
  int64_t proved_instances = 0;
  for (auto kind : datasets) {
    const auto traces = gen.Generate(kind);
    core::ConsolidationProblem prob;
    prob.workloads = trace::ToProfiles(traces);
    prob.workloads.resize(
        std::min<size_t>(prob.workloads.size(), sub_workloads));
    prob.disk_model = &disk_model;
    prob.max_servers = sub_cap;

    solve::SolveBudget budget;
    budget.sink = sink_ptr;
    if (smoke) {
      budget.max_iterations = 8000;
      budget.direct_evaluations = 800;
      budget.probe_direct_evaluations = 200;
    }

    auto exact = solve::CreateSolver("exact", bench::kSeed);
    const auto exact_plan = exact->Solve(prob, budget);

    solve::PortfolioOptions options;
    options.threads = 2;
    options.budget = budget;
    const auto portfolio_result = solve::PortfolioRunner(options).Run(
        prob, solve::PortfolioRunner::DefaultSpecs(bench::kSeed));

    reporter.DigestPlan(exact_plan);
    reporter.DigestPlan(portfolio_result.best);

    // Gap relative to the certificate; only proved instances feed the KPI
    // (a truncated exact run bounds nothing the portfolio must answer for).
    const double gap =
        exact_plan.proved_optimal
            ? std::max(0.0, (portfolio_result.best.objective -
                             exact_plan.objective) /
                               std::max(1.0, std::abs(exact_plan.objective)))
            : -1.0;
    if (exact_plan.proved_optimal) {
      ++proved_instances;
      worst_gap = std::max(worst_gap, gap);
    }
    gap_table.AddRow(
        {trace::DatasetName(kind), std::to_string(prob.TotalSlots()),
         util::FormatDouble(exact_plan.objective, 1),
         std::to_string(exact_plan.exact_nodes),
         exact_plan.proved_optimal ? "yes" : "no",
         util::FormatDouble(portfolio_result.best.objective, 1),
         exact_plan.proved_optimal ? util::FormatDouble(gap, 6) : "n/a"});
  }
  std::printf("%s", gap_table.ToString().c_str());
  std::printf("\nExpected: every sub-instance proved optimal and the "
              "portfolio incumbent on the certificate (gap 0): the "
              "metaheuristics lose nothing to the exact search at this "
              "scale.\n");
  reporter.Kpi("solver.gap_to_exact", worst_gap);
  reporter.Kpi("solver.exact_proved_instances",
               static_cast<double>(proved_instances));

  return reporter.WriteReport();
}
