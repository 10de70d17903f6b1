// The unified incremental-bound layer: every lower bound, feasibility
// threshold, and cost-propagation rule the consolidation stack prunes with,
// computed over core::LoadAccountant in one place (ROADMAP: the exact
// backend's "ILP Modulo Data" decomposition — a master search over
// counts/assignments propagating against the load/capacity data).
//
// Three kinds of consumers share this layer:
//  * direct callers of the stateless bounds — the engine and the exact
//    solver (the fractional server bound), the engine's probe feasibility
//    thresholds, and the dimensioner's coverage prefix;
//  * solve::BranchAndBoundSolver, which drives the incremental
//    partial-assignment state (Place/Unplace + CompletionBound) as its
//    node-pruning engine;
//  * the dimensioner's per-budget knapsack over class counts
//    (CheapestCoverMixes), whose admissible completion costs come from the
//    same fractional-cover arithmetic.
//
// The objective constants and the per-server pricings live here too
// (ServerAggregateCost, and over it ServerCost, WhatIfServerCost and
// SwapServerCost), so the evaluator's cached state, its what-if move and
// swap compositions, and the exact search's partial aggregates all price a
// server with literally the same code. The affinity and migration terms
// come from the accountant's constraint index; BoundEngine keeps only the
// partial-assignment state.
#ifndef KAIROS_CORE_BOUNDS_H_
#define KAIROS_CORE_BOUNDS_H_

#include <vector>

#include "core/load_accountant.h"
#include "core/pricing_kernel.h"
#include "core/problem.h"

namespace kairos::core {

/// Weight of one used server in the objective: dominates any balance
/// improvement, so minimizing the objective minimizes server count first
/// (the paper's signum term). Scaled by the server's machine-class
/// cost_weight in heterogeneous fleets.
inline constexpr double kServerCost = 1e3;
/// Fixed penalty for a server with any constraint violation.
inline constexpr double kViolationBase = 2e3;
/// Proportional penalty per unit of relative constraint excess.
inline constexpr double kViolationScale = 1e7;
/// Affinity violations are counted in units of this many "relative excess"
/// points, so they share the violation penalty scale.
inline constexpr double kAffinityUnit = 0.1;
/// Objective points per affinity unit.
inline constexpr double kAffinityPenalty =
    kViolationBase + kViolationScale * kAffinityUnit;
/// Penalty per slot placed away from its pinned server.
inline constexpr double kPinPenalty = 1e9;
/// Relative-excess units charged per slot left on a drained machine class,
/// so an evacuation always pays for itself but a pin still dominates.
inline constexpr double kDrainedUnit = 0.25;

/// Cost + constraint excess of one server aggregate — the objective's
/// per-server term. The axis series give the aggregate at each sample
/// (core/pricing_kernel.h), so the same arithmetic serves the evaluator's
/// cached state, the what-if move and swap compositions, the one-shot
/// scratch, and the exact search's partial aggregates without
/// materializing copies. The per-sample sums come from the pricing kernel.
double ServerAggregateCost(const ConsolidationProblem& problem,
                           const LoadAccountant& acct, int klass, double ws,
                           int count, const AxisSeries& cpu,
                           const AxisSeries& ram, const AxisSeries& rate,
                           double* violation_out);

/// Cost + constraint excess of server `j`'s aggregate as `acct` holds it.
double ServerCost(const ConsolidationProblem& problem,
                  const LoadAccountant& acct, int j, double* violation_out);

/// Cost + constraint excess of server `j`'s aggregate with `slot` added
/// (sign +1) or removed (-1), the aggregate itself untouched: the what-if
/// pricing of a move. Each sample is `server + slot` or `server - slot`,
/// what LoadAccountant::Apply's `server + sign * slot` computes, so pricing
/// after an Apply gives the same bits.
double WhatIfServerCost(const ConsolidationProblem& problem,
                        const LoadAccountant& acct, int j, int slot,
                        double sign, double* violation_out);

/// Cost + constraint excess of server `j`'s aggregate with `out_slot`
/// removed and `in_slot` added, the aggregate itself untouched: one side
/// of a swap. Each sample is `(server - out) + in` and the working set
/// `(ws - ws_out) + ws_in`, what LoadAccountant::Apply(j, out_slot, -1)
/// followed by Apply(j, in_slot, +1) computes, so pricing after those two
/// Applies gives the same bits. The slot count does not change.
double SwapServerCost(const ConsolidationProblem& problem,
                      const LoadAccountant& acct, int j, int out_slot,
                      int in_slot, double* violation_out);

/// A per-class server-count vector (indexed like the problem fleet) plus
/// its fleet cost — one candidate purchase of the dimensioner's knapsack.
struct ClassMix {
  std::vector<int> counts;
  double cost = 0;
  int total = 0;
};

/// The bound/propagation engine. The static members are the stateless
/// bounds the legacy call sites now delegate to; an instance carries the
/// incremental partial-assignment state the exact branch-and-bound search
/// prunes with (committed cost, per-server violations, open-capacity
/// propagation).
class BoundEngine {
 public:
  // --- Stateless bounds ---

  /// Idealized fractional lower bound on the server count: workloads are
  /// divisible and resources independent.
  static int FractionalServerBound(const ConsolidationProblem& problem);

  /// Cost any feasible plan on the placable prefix [0, k) undercuts: the
  /// sum of those servers' weighted server costs plus a balance tail of e
  /// each — the engine's count-prefix DIRECT early-stop threshold. `acct`
  /// must cover servers [0, k) (its placable list IS the placable prefix).
  static double PrefixFeasibleThreshold(const ConsolidationProblem& problem,
                                        const LoadAccountant& acct, int k);

  /// The subset analogue: cost any feasible plan restricted to `servers`
  /// undercuts (the cost-budget probe's early-stop threshold).
  static double SubsetFeasibleThreshold(const LoadAccountant& acct,
                                        const std::vector<int>& servers);

  /// Shortest prefix of `order` whose idealized (fractional) aggregate
  /// capacity covers the peak demand on every axis — the cheapest prefix
  /// that could possibly host the load (the dimensioner's per-order lower
  /// bound).
  static int CoveragePrefix(const LoadAccountant& acct,
                            const LoadAccountant::AggregateDemand& demand,
                            int min_servers, const std::vector<int>& order);

  /// The cheapest class-count vectors whose fractional aggregate capacity
  /// covers `demand` — the dimensioner's bounded knapsack over class
  /// counts. Best-first over (partial cost + admissible fractional
  /// completion), so mixes come back cost-ascending (ties: fewer servers,
  /// then lexicographic counts). `min_counts` forces per-class floors
  /// (pinned servers), `avail` caps them (bounded classes, drains);
  /// `max_cost` (<= 0 = unbounded) prunes mixes no cheaper than a known
  /// anchor. Returns at most `max_mixes` covers; the expansion budget
  /// bounds worst-case work on huge fleets.
  static std::vector<ClassMix> CheapestCoverMixes(
      const LoadAccountant& acct, const LoadAccountant::AggregateDemand& demand,
      int min_servers, const std::vector<int>& min_counts,
      const std::vector<int>& avail, double max_cost, int max_mixes);

  // --- Incremental partial-assignment state (the exact search) ---

  /// Builds the tracker for assignments over servers [0, cap). All slots
  /// start unassigned; committed cost/violation are zero.
  BoundEngine(const ConsolidationProblem& problem, int cap);

  const LoadAccountant& accountant() const { return acct_; }
  int num_slots() const { return acct_.num_slots(); }
  /// Objective mass of the placed slots: server terms + affinity + pin +
  /// migration. A valid lower bound on any completion's objective — every
  /// term of the objective is monotone in added load.
  double committed_cost() const { return committed_cost_; }
  bool ServerOpen(int j) const { return acct_.ServerCount(j) > 0; }
  int ServerOf(int slot) const { return assignment_[slot]; }

  /// Objective delta of placing `slot` on `server` given the current
  /// partial assignment (pure — no state change). The candidate-ordering
  /// score of the exact search.
  double PlaceDelta(int slot, int server) const;
  /// Applies the placement (committed cost grows by PlaceDelta).
  void Place(int slot, int server);
  /// Reverts it (the search unwinds placements LIFO).
  void Unplace(int slot, int server);

  /// Admissible lower bound on the cost any completion of the current
  /// partial assignment must still add: if the fleet-wide peak demand
  /// exceeds the open servers' usable capacity on a linear axis, the
  /// completion either opens enough extra servers (each costing at least
  /// kServerCost * w_min + 1) or drives some server into violation (at
  /// least kViolationBase) — unless a placed server already violates, in
  /// which case no extra charge can be promised and the bound is 0.
  double CompletionBound() const;

 private:
  void RecomputeServer(int j) {
    server_cost_[j] = ServerCost(problem_, acct_, j, &server_violation_[j]);
  }

  const ConsolidationProblem& problem_;
  int cap_;
  LoadAccountant acct_;

  std::vector<int> assignment_;  // -1 = unassigned
  std::vector<double> server_cost_;
  std::vector<double> server_violation_;
  double committed_cost_ = 0;
  double committed_violation_ = 0;

  // Open-capacity propagation for CompletionBound: headroomed linear
  // capacity opened so far, fleet-wide peak demand, best-class reference
  // capacities, and the cheapest placable class weight.
  double open_cpu_cap_ = 0;
  double open_ram_cap_ = 0;
  double peak_cpu_demand_ = 0;
  double peak_ram_demand_ = 0;
  double best_cpu_cap_ = 0;
  double best_ram_cap_ = 0;
  double min_placable_weight_ = 0;
};

}  // namespace kairos::core

#endif  // KAIROS_CORE_BOUNDS_H_
