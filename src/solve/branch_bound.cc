#include "solve/branch_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "core/bounds.h"
#include "obs/sink.h"

namespace kairos::solve {

namespace {

/// Slots in branching order: pinned slots first (forced placements — they
/// open their pin servers before any free slot branches), then free slots
/// hardest-first by normalized peak demand, so tight slots fail high in the
/// tree and the bound prunes early.
std::vector<int> BranchSlotOrder(const core::LoadAccountant& acct, int cap) {
  const int num_slots = acct.num_slots();
  std::vector<int> pinned, free_slots;
  for (int s = 0; s < num_slots; ++s) {
    const int pin = acct.PinOfSlot(s);
    (pin >= 0 && pin < cap ? pinned : free_slots).push_back(s);
  }
  std::vector<double> difficulty(num_slots, 0.0);
  for (int s : free_slots) difficulty[s] = acct.SlotPeakScore(s);
  std::stable_sort(free_slots.begin(), free_slots.end(),
                   [&](int a, int b) { return difficulty[a] > difficulty[b]; });
  pinned.insert(pinned.end(), free_slots.begin(), free_slots.end());
  return pinned;
}

}  // namespace

core::ConsolidationPlan BranchAndBoundSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const auto start_time = std::chrono::steady_clock::now();
  const int cap = HardCap(problem);
  const int num_slots = problem.TotalSlots();

  // Warm start: the portfolio's shared start assignment (warm seed or
  // greedy packing), rescored exactly — the initial incumbent every subtree
  // must beat.
  const core::Assignment start = StartAssignment(problem, cap, budget);
  core::Evaluator ev(problem, cap);
  std::vector<int> best_assignment = start.server_of_slot;
  double best_cost = ev.Evaluate(best_assignment);

  core::BoundEngine engine(problem, cap);
  const core::LoadAccountant& acct = engine.accountant();

  // The encoding's target set: the fleet placement mask when it bites,
  // else the full index space (as the engine's DIRECT decoder uses).
  const sim::FleetSpec::PlacementMask mask = problem.fleet.PlacementTargets(cap);
  std::vector<int> targets;
  if (mask.masked) {
    targets = mask.targets;
  } else {
    targets.resize(cap);
    for (int j = 0; j < cap; ++j) targets[j] = j;
  }

  // Servers a pin or the migration term makes distinguishable even while
  // closed: interchangeability (the symmetry break below) only holds for
  // servers whose identity no objective term observes.
  std::vector<char> distinguished(cap, 0);
  for (int s = 0; s < num_slots; ++s) {
    const int pin = acct.PinOfSlot(s);
    if (pin >= 0 && pin < cap) distinguished[pin] = 1;
    const int cur = acct.PricesMigration() ? acct.CurrentServer(s) : -1;
    if (cur >= 0 && cur < cap) distinguished[cur] = 1;
  }

  const std::vector<int> slot_order = BranchSlotOrder(acct, cap);
  const int num_classes = acct.num_classes();

  // Candidate servers for `slot` under the current partial assignment:
  // pins are forced; otherwise every open target, every closed
  // distinguished target, and the first closed undistinguished target of
  // each class (its closed siblings are symmetric), ordered cheapest
  // placement delta first.
  std::vector<char> class_taken(num_classes, 0);
  std::vector<std::pair<double, int>> scored;
  const auto candidates_for = [&](int slot) {
    std::vector<int> cands;
    const int pin = acct.PinOfSlot(slot);
    if (pin >= 0 && pin < cap) {
      cands.push_back(pin);
      return cands;
    }
    std::fill(class_taken.begin(), class_taken.end(), 0);
    scored.clear();
    for (int j : targets) {
      if (!engine.ServerOpen(j) && !distinguished[j]) {
        const int klass = acct.ClassOfServer(j);
        if (class_taken[klass]) continue;
        class_taken[klass] = 1;
      }
      scored.emplace_back(engine.PlaceDelta(slot, j), j);
    }
    std::sort(scored.begin(), scored.end());
    cands.reserve(scored.size());
    for (const auto& [delta, j] : scored) cands.push_back(j);
    return cands;
  };

  struct Frame {
    int slot = -1;
    std::vector<int> cands;
    size_t next = 0;
    int placed = -1;  // currently placed candidate server (-1 = none)
    double committed_at_entry = 0;
  };

  const int64_t max_nodes = std::max<int64_t>(1, budget.exact_max_nodes);
  int64_t nodes = 0;
  bool truncated = false;
  // Tightest known lower bound on what the abandoned subtrees could still
  // contain (min over their roots' committed costs) — the gap certificate
  // on truncation.
  double lb_abandoned = std::numeric_limits<double>::infinity();

  const auto slack = [&] { return 1e-7 * std::max(1.0, std::fabs(best_cost)); };

  if (num_slots > 0) {
    std::vector<Frame> stack;
    stack.reserve(std::min<size_t>(num_slots, 4096));
    Frame root;
    root.slot = slot_order[0];
    root.cands = candidates_for(root.slot);
    stack.push_back(std::move(root));

    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.placed >= 0) {
        engine.Unplace(f.slot, f.placed);
        f.placed = -1;
      }
      if (truncated || f.next >= f.cands.size()) {
        if (truncated && f.next < f.cands.size()) {
          lb_abandoned = std::min(lb_abandoned, f.committed_at_entry);
        }
        stack.pop_back();
        continue;
      }
      if (nodes >= max_nodes) {
        truncated = true;
        continue;
      }
      const int server = f.cands[f.next++];
      ++nodes;
      engine.Place(f.slot, server);
      f.placed = server;
      const int depth = static_cast<int>(stack.size());
      const double lb = engine.committed_cost() + engine.CompletionBound();
      if (lb >= best_cost - slack()) continue;  // prune; unplaced at loop top
      if (depth == num_slots) {
        // Complete assignment: rescore with the evaluator (the incremental
        // tracker's FP drift never decides an incumbent).
        std::vector<int> assignment(num_slots, -1);
        for (int s = 0; s < num_slots; ++s) assignment[s] = engine.ServerOf(s);
        ev.Load(assignment);
        const double exact_cost = ev.current_cost();
        if (exact_cost < best_cost) {
          best_cost = exact_cost;
          best_assignment = std::move(assignment);
        }
        continue;
      }
      Frame child;
      child.slot = slot_order[depth];
      child.cands = candidates_for(child.slot);
      child.committed_at_entry = engine.committed_cost();
      stack.push_back(std::move(child));
    }
  }

  core::ConsolidationPlan plan =
      core::FinalizePlan(problem, best_assignment, cap);
  plan.fractional_lower_bound =
      core::BoundEngine::FractionalServerBound(problem);
  plan.exact_search = true;
  plan.exact_nodes = nodes;
  plan.proved_optimal = !truncated;
  plan.optimality_gap =
      truncated ? std::max(0.0, best_cost - std::min(lb_abandoned, best_cost))
                : 0.0;
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  if (budget.sink != nullptr) {
    obs::TraceSink& trace = budget.sink->trace();
    trace.Emit(trace.InternTrack(name() + "/" + std::to_string(seed_)),
               trace.InternName("incumbent"), obs::EventKind::kPoint,
               /*i0=*/static_cast<int64_t>(nodes),
               /*i1=*/plan.feasible ? 1 : 0, /*d0=*/plan.objective);
    budget.sink->metrics().counter("exact.nodes")->Add(nodes);
    budget.sink->metrics()
        .counter(plan.proved_optimal ? "exact.proved_optimal"
                                     : "exact.truncated")
        ->Add(1);
  }
  return plan;
}

}  // namespace kairos::solve
