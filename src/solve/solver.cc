#include "solve/solver.h"

#include "core/dimensioner.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "solve/adapters.h"
#include "solve/annealing.h"
#include "solve/branch_bound.h"
#include "solve/shard.h"
#include "solve/tabu.h"

namespace kairos::solve {

int HardCap(const core::ConsolidationProblem& problem) {
  return problem.ServerCap();
}

std::vector<int> MovableSlotsOn(const core::Evaluator& ev, int server) {
  std::vector<int> slots;
  for (int s = 0; s < ev.num_slots(); ++s) {
    if (ev.assignment()[s] == server && ev.PinOfSlot(s) < 0) slots.push_back(s);
  }
  return slots;
}

std::vector<int> EmptyCrossClassServers(const core::ConsolidationProblem& problem,
                                        const core::Evaluator& ev, int from) {
  const int cap = ev.max_servers();
  std::vector<char> used(cap, 0);
  for (int s = 0; s < ev.num_slots(); ++s) used[ev.assignment()[s]] = 1;
  const int from_class = problem.fleet.ClassOf(from);
  std::vector<int> out;
  for (int j = 0; j < cap; ++j) {
    if (used[j] || j == from) continue;
    const int klass = problem.fleet.ClassOf(j);
    if (klass == from_class) continue;
    if (problem.fleet.classes[klass].drained) continue;
    out.push_back(j);
  }
  return out;
}

bool ValidSeedAssignment(const core::ConsolidationProblem& problem, int cap,
                         const std::vector<int>& seed) {
  if (static_cast<int>(seed.size()) != problem.TotalSlots()) return false;
  for (int s : seed) {
    if (s < 0 || s >= cap) return false;
  }
  return true;
}

core::Assignment StartAssignment(const core::ConsolidationProblem& problem,
                                 int cap, const SolveBudget& budget) {
  core::Assignment start = core::GreedyMultiResource(problem, cap);
  const bool dim_seed = !problem.fleet.Uniform();
  const bool warm = ValidSeedAssignment(problem, cap, budget.seed_assignment);
  if (!dim_seed && !warm) return start;
  core::Evaluator ev(problem, cap);
  double start_cost = ev.Evaluate(start.server_of_slot);
  if (dim_seed) {
    // Cost-based dimensioning's cheap seed: the coverage-prefix packing
    // over the dense purchase order. Warm-starts the metaheuristics toward
    // cheap-dense class mixes they otherwise only reach via cross-class
    // moves. Uniform fleets skip it, keeping the classic stream untouched.
    const core::Assignment dense_seed =
        core::FleetDimensioner::GreedySeed(problem, cap);
    const double dense_cost = ev.Evaluate(dense_seed.server_of_slot);
    if (dense_cost < start_cost) {
      start = dense_seed;
      start_cost = dense_cost;
    }
  }
  if (warm && ev.Evaluate(budget.seed_assignment) <= start_cost) {
    start.server_of_slot = budget.seed_assignment;
  }
  return start;
}

BestSoFar::BestSoFar(const core::Evaluator& ev, const std::string& name,
                     uint64_t seed, obs::Sink* sink)
    : assignment_(ev.assignment()),
      cost_(ev.current_cost()),
      feasible_(ev.IsFeasible()),
      sink_(sink) {
  if (sink_ == nullptr) return;
  track_ = sink_->trace().InternTrack(name + "/" + std::to_string(seed));
  incumbent_ = sink_->trace().InternName("incumbent");
  improvements_ = sink_->metrics().counter(name + ".improvements");
  sink_->trace().Emit(track_, incumbent_, obs::EventKind::kPoint, /*i0=*/0,
                      /*i1=*/feasible_ ? 1 : 0, /*d0=*/cost_);
}

void BestSoFar::Record(const core::Evaluator& ev, int iteration) {
  const bool feasible = ev.IsFeasible();
  if (!((feasible && !feasible_) ||
        (feasible == feasible_ && ev.current_cost() < cost_))) {
    return;
  }
  assignment_ = ev.assignment();
  cost_ = ev.current_cost();
  feasible_ = feasible;
  if (sink_ != nullptr) {
    sink_->trace().Emit(track_, incumbent_, obs::EventKind::kPoint,
                        /*i0=*/iteration, /*i1=*/feasible_ ? 1 : 0,
                        /*d0=*/cost_);
    improvements_->Add(1);
  }
}

std::unique_ptr<Solver> CreateSolver(const std::string& name, uint64_t seed) {
  if (name == "anneal") return std::make_unique<AnnealingSolver>(seed);
  if (name == "engine") return std::make_unique<EngineSolver>(seed);
  if (name == "exact") return std::make_unique<BranchAndBoundSolver>(seed);
  if (name == "greedy") return std::make_unique<GreedyBaselineSolver>();
  if (name == "greedy-multi") return std::make_unique<GreedyMultiSolver>();
  if (name == "polish") return std::make_unique<WarmStartPolishSolver>(seed);
  if (name == "sharded") return std::make_unique<ShardedSolver>(seed);
  if (name == "tabu") return std::make_unique<TabuSolver>(seed);
  return nullptr;
}

const std::vector<std::string>& SolverNames() {
  static const std::vector<std::string> names = {
      "anneal", "engine", "exact", "greedy", "greedy-multi",
      "polish", "sharded", "tabu"};
  return names;
}

}  // namespace kairos::solve
