// Cost-based fleet dimensioning: the budget-constrained-optimization
// framing of the engine's bounded search, built for heterogeneous fleets.
// The legacy Section-6 search binary-searches on the server *count* K and
// probes the declaration-order prefix [0, K) of the index space — which can
// never open a cheaper class declared late (the ROADMAP's RAID-vs-spindle
// miss). The dimensioner instead binary-searches on the total fleet-cost
// *budget*: it orders the placable fleet by disk-aware capacity per cost
// (core::DenseServerOrder), buys the cheapest-dense-first multiset of
// per-class servers within each candidate budget, and asks the engine for a
// feasible assignment restricted to exactly that multiset
// (ConsolidationEngine::ProbeServers). Budgets are nested (each is a prefix
// of one purchase order), so feasibility is monotone in the budget and the
// binary search is as sound as the legacy count search.
#ifndef KAIROS_CORE_DIMENSIONER_H_
#define KAIROS_CORE_DIMENSIONER_H_

#include <functional>
#include <vector>

#include "core/engine.h"
#include "core/greedy.h"
#include "core/problem.h"

namespace kairos::core {

/// Outcome of one budget search.
struct DimensioningResult {
  bool found = false;      ///< Some subset probe produced a feasible plan.
  Assignment assignment;   ///< The best feasible assignment (when found).
  /// The chosen multiset of server indices, ascending — the mask the final
  /// polish is restricted to.
  std::vector<int> servers;
  /// Per-class counts of `servers`, indexed like the problem fleet.
  std::vector<int> class_counts;
  /// Fleet cost of the chosen multiset (sum of class cost weights).
  double budget = 0;
  /// Subset probes run (the cost-budget analogue of binary-search steps).
  int budget_probes = 0;
};

/// Dimensions a heterogeneous fleet by fleet-cost budget for one engine
/// solve. Deterministic: a pure function of (problem, engine options).
class FleetDimensioner {
 public:
  FleetDimensioner(const ConsolidationProblem& problem,
                   ConsolidationEngine& engine, const EngineOptions& options);

  /// Runs the budget search. `greedy_upper` is the engine's class-aware
  /// greedy baseline (may be infeasible/empty): when feasible, its fleet
  /// cost seeds the upper budget the way the greedy server count seeds the
  /// legacy upper K. `on_improve` (may be empty) fires on every improving
  /// feasible probe, so the engine can draw it on its incumbent curve.
  DimensioningResult Run(const GreedyResult& greedy_upper,
                         const std::function<void(const Assignment&)>&
                             on_improve = nullptr);

  /// The dimensioner's cheap warm-start seed, no DIRECT probes: the
  /// multi-resource greedy packing restricted to the fractional *coverage
  /// prefix* of the dense purchase order (the cheapest multiset whose
  /// idealized aggregate capacity covers peak demand). Used by the solve/
  /// layer to warm-start anneal/tabu toward cheap-dense mixes on
  /// heterogeneous fleets.
  static Assignment GreedySeed(const ConsolidationProblem& problem, int cap);

 private:
  const ConsolidationProblem& problem_;
  ConsolidationEngine& engine_;
  EngineOptions options_;
};

}  // namespace kairos::core

#endif  // KAIROS_CORE_DIMENSIONER_H_
