#include "solve/adapters.h"

#include <utility>

#include "core/greedy.h"

namespace kairos::solve {

namespace {

/// Evaluates + reports `assignment`, offering it to the incumbent. The
/// one-shot greedy solvers emit a single-point incumbent curve (iteration 0)
/// when a sink rides along, so every portfolio member exports a curve.
core::ConsolidationPlan Finish(const core::ConsolidationProblem& problem,
                               const std::vector<int>& assignment, int k,
                               const std::string& source, uint64_t seed,
                               const SolveBudget& budget,
                               SharedIncumbent* incumbent) {
  core::ConsolidationPlan plan = core::FinalizePlan(problem, assignment, k);
  if (budget.sink != nullptr) {
    obs::TraceSink& trace = budget.sink->trace();
    trace.Emit(trace.InternTrack(source + "/" + std::to_string(seed)),
               trace.InternName("incumbent"), obs::EventKind::kPoint,
               /*i0=*/0, /*i1=*/plan.feasible ? 1 : 0, /*d0=*/plan.objective);
  }
  if (incumbent) {
    incumbent->Offer(plan.assignment.server_of_slot, plan.objective,
                     plan.feasible, source);
  }
  return plan;
}

}  // namespace

core::ConsolidationPlan GreedyBaselineSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget,
    SharedIncumbent* incumbent) {
  const int cap = HardCap(problem);
  const core::GreedyResult g = core::GreedyBaseline(problem, cap);
  if (g.feasible) {
    return Finish(problem, g.assignment.server_of_slot, cap, name(),
                  /*seed=*/0, budget, incumbent);
  }
  // No single-resource packing survived the full constraint check: report
  // the multi-resource completion instead of an empty plan (marked
  // infeasible by FinalizePlan when it is).
  bool clean = false;
  const core::Assignment fallback =
      core::GreedyMultiResource(problem, cap, &clean);
  return Finish(problem, fallback.server_of_slot, cap, name(),
                /*seed=*/0, budget, incumbent);
}

core::ConsolidationPlan GreedyMultiSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget,
    SharedIncumbent* incumbent) {
  const int cap = HardCap(problem);
  bool clean = false;
  const core::Assignment a = core::GreedyMultiResource(problem, cap, &clean);
  return Finish(problem, a.server_of_slot, cap, name(),
                /*seed=*/0, budget, incumbent);
}

core::ConsolidationPlan EngineSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget,
    SharedIncumbent* incumbent) {
  core::EngineOptions options;
  options.seed = seed_;
  options.direct_evaluations = budget.direct_evaluations;
  options.probe_direct_evaluations = budget.probe_direct_evaluations;
  options.local_search_max_sweeps = budget.local_search_max_sweeps;
  options.sink = budget.sink;
  if (incumbent) {
    const std::string source = name();
    options.on_incumbent = [incumbent, source](const core::Assignment& a,
                                               double objective, bool feasible) {
      incumbent->Offer(a.server_of_slot, objective, feasible, source);
    };
    options.should_stop = [incumbent] { return incumbent->ShouldStop(); };
  }
  return core::ConsolidationEngine(problem, options).Solve();
}

core::ConsolidationPlan WarmStartPolishSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget,
    SharedIncumbent* incumbent) {
  const int cap = HardCap(problem);
  const core::Assignment start = StartAssignment(problem, cap, budget);

  core::EngineOptions options;
  options.seed = seed_;
  options.direct_evaluations = budget.direct_evaluations;
  options.local_search_max_sweeps = budget.local_search_max_sweeps;
  options.sink = budget.sink;
  options.obs_label = "polish";
  if (incumbent) {
    const std::string source = name();
    options.on_incumbent = [incumbent, source](const core::Assignment& a,
                                               double objective, bool feasible) {
      incumbent->Offer(a.server_of_slot, objective, feasible, source);
    };
    options.should_stop = [incumbent] { return incumbent->ShouldStop(); };
  }
  return core::ConsolidationEngine(problem, options).PolishPlan(start, cap);
}

}  // namespace kairos::solve
