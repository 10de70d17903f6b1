// Baseline packers (Sections 6 and 7.3):
//  * single-resource greedy bin packing — the paper's comparison baseline:
//    considers one resource, places each workload on the most-loaded server
//    where it fits, discards solutions violating the other resources;
//  * a multi-resource greedy used to seed the solver / upper-bound K.
// The fractional lower bound on the server count lives in core/bounds.h
// (BoundEngine::FractionalServerBound).
#ifndef KAIROS_CORE_GREEDY_H_
#define KAIROS_CORE_GREEDY_H_

#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/problem.h"

namespace kairos::core {

class LoadAccountant;

/// The resource a single-resource packer considers.
enum class Resource { kCpu, kRam, kDisk };

/// Result of a greedy packing attempt.
struct GreedyResult {
  bool feasible = false;      ///< Satisfies ALL constraints (checked post hoc).
  Assignment assignment;      ///< Valid packing by the packed resource only.
  int servers_used = 0;
};

/// Packs considering only resource `r` (most-loaded-that-fits, decreasing
/// peak order), then checks the full constraint set. `max_servers` bounds
/// the packing (0 = one server per slot allowed).
GreedyResult GreedySingleResource(const ConsolidationProblem& problem, Resource r,
                                  int max_servers = 0);

/// The paper's greedy baseline: try each resource, return the feasible
/// solution with the fewest servers (feasible=false if none).
GreedyResult GreedyBaseline(const ConsolidationProblem& problem, int max_servers = 0);

/// Multi-resource greedy: places each slot on the most-loaded server that
/// fits ALL resources; opens servers as needed up to `max_servers`, then
/// falls back to the least-loaded server (possibly violating). Always
/// returns a complete assignment; score it with an Evaluator to learn
/// whether it is feasible. A non-null `allowed_servers` restricts the
/// packing to that subset of the index space (the cost-based dimensioner's
/// budget-selected multiset); null keeps the classic whole-fleet packing.
Assignment GreedyMultiResource(const ConsolidationProblem& problem, int max_servers,
                               const std::vector<int>* allowed_servers = nullptr);

/// The accountant's placable servers, cheapest class first; stable, so a
/// uniform fleet keeps the classic ascending-index open order. The greedy
/// packers' open order and one of core::FleetDimensioner's purchase
/// orders.
std::vector<int> CheapFirstOrder(const LoadAccountant& acct);

/// Capacity-per-cost ("dense") open order over the accountant's placable
/// servers: most combined normalized capacity per unit of cost weight
/// first. When any class carries an active disk axis, the per-class
/// headroomed sustainable update rate at zero working set joins the
/// CPU/RAM terms (so a RAID class ranks as dense as its disk actually is;
/// a class with no disk limit counts as matching the best disk); fleets
/// with no disk models score bit-identically to the CPU/RAM-only order.
/// Shared by the greedy packers and core::FleetDimensioner's purchase
/// order.
std::vector<int> DenseServerOrder(const LoadAccountant& acct);

}  // namespace kairos::core

#endif  // KAIROS_CORE_GREEDY_H_
