#include "solve/solver.h"

#include <algorithm>

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
  bool clean = false;
  core::Assignment start = core::GreedyMultiResource(problem, cap, &clean);
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

SolverRegistry& SolverRegistry::Global() {
  // Built-ins are registered here, not via static self-registration objects:
  // those get dead-stripped out of static libraries.
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    r->Register("greedy", [](uint64_t) {
      return std::make_unique<GreedyBaselineSolver>();
    });
    r->Register("greedy-multi", [](uint64_t) {
      return std::make_unique<GreedyMultiSolver>();
    });
    r->Register("engine", [](uint64_t seed) {
      return std::make_unique<EngineSolver>(seed);
    });
    r->Register("anneal", [](uint64_t seed) {
      return std::make_unique<AnnealingSolver>(seed);
    });
    r->Register("tabu", [](uint64_t seed) {
      return std::make_unique<TabuSolver>(seed);
    });
    r->Register("polish", [](uint64_t seed) {
      return std::make_unique<WarmStartPolishSolver>(seed);
    });
    r->Register("sharded", [](uint64_t seed) {
      return std::make_unique<ShardedSolver>(seed);
    });
    r->Register("exact", [](uint64_t seed) {
      return std::make_unique<BranchAndBoundSolver>(seed);
    });
    return r;
  }();
  return *registry;
}

bool SolverRegistry::Register(const std::string& name, SolverFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ContainsLocked(name)) return false;
  entries_.emplace_back(name, std::move(factory));
  return true;
}

std::unique_ptr<Solver> SolverRegistry::Create(const std::string& name,
                                               uint64_t seed) const {
  SolverFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, f] : entries_) {
      if (key == name) {
        factory = f;
        break;
      }
    }
  }
  return factory ? factory(seed) : nullptr;
}

bool SolverRegistry::ContainsLocked(const std::string& name) const {
  for (const auto& [key, factory] : entries_) {
    if (key == name) return true;
  }
  return false;
}

bool SolverRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ContainsLocked(name);
}

std::vector<std::string> SolverRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, factory] : entries_) names.push_back(key);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> RegisteredSolverNames() {
  return SolverRegistry::Global().Names();
}

}  // namespace kairos::solve
