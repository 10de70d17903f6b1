#include "solve/adapters.h"

#include "core/greedy.h"

namespace kairos::solve {

namespace {

/// Evaluates + reports `assignment`. The one-shot greedy solvers emit a
/// single-point incumbent curve (iteration 0) when a sink rides along, so
/// every portfolio member exports a curve.
core::ConsolidationPlan Finish(const core::ConsolidationProblem& problem,
                               const std::vector<int>& assignment, int k,
                               const std::string& source, uint64_t seed,
                               const SolveBudget& budget) {
  core::ConsolidationPlan plan = core::FinalizePlan(problem, assignment, k);
  if (budget.sink != nullptr) {
    obs::TraceSink& trace = budget.sink->trace();
    trace.Emit(trace.InternTrack(source + "/" + std::to_string(seed)),
               trace.InternName("incumbent"), obs::EventKind::kPoint,
               /*i0=*/0, /*i1=*/plan.feasible ? 1 : 0, /*d0=*/plan.objective);
  }
  return plan;
}

}  // namespace

core::ConsolidationPlan GreedyBaselineSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  const core::GreedyResult g = core::GreedyBaseline(problem, cap);
  if (g.feasible) {
    return Finish(problem, g.assignment.server_of_slot, cap, name(),
                  /*seed=*/0, budget);
  }
  // No single-resource packing survived the full constraint check: report
  // the multi-resource completion instead of an empty plan (marked
  // infeasible by FinalizePlan when it is).
  const core::Assignment fallback = core::GreedyMultiResource(problem, cap);
  return Finish(problem, fallback.server_of_slot, cap, name(),
                /*seed=*/0, budget);
}

core::ConsolidationPlan GreedyMultiSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  const core::Assignment a = core::GreedyMultiResource(problem, cap);
  return Finish(problem, a.server_of_slot, cap, name(),
                /*seed=*/0, budget);
}

core::ConsolidationPlan EngineSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  core::EngineOptions options;
  options.seed = seed_;
  options.direct_evaluations = budget.direct_evaluations;
  options.probe_direct_evaluations = budget.probe_direct_evaluations;
  options.local_search_max_sweeps = budget.local_search_max_sweeps;
  options.sink = budget.sink;
  return core::ConsolidationEngine(problem, options).Solve();
}

core::ConsolidationPlan WarmStartPolishSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  const core::Assignment start = StartAssignment(problem, cap, budget);

  core::EngineOptions options;
  options.seed = seed_;
  options.direct_evaluations = budget.direct_evaluations;
  options.local_search_max_sweeps = budget.local_search_max_sweeps;
  options.sink = budget.sink;
  options.obs_label = "polish";
  return core::ConsolidationEngine(problem, options).PolishPlan(start, cap);
}

}  // namespace kairos::solve
