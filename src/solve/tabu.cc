#include "solve/tabu.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "util/rng.h"

namespace kairos::solve {

namespace {

/// Base tabu tenure, in iterations; the effective tenure adds a seeded
/// jitter in [0, kTenureJitter] so cycles of any fixed length break.
constexpr int kTenure = 12;
constexpr int kTenureJitter = 6;
/// Every kKickInterval non-improving iterations, apply a random swap kick
/// to escape the current basin.
constexpr int kKickInterval = 40;
/// Heterogeneous fleets only: every kReclassInterval non-improving
/// iterations, kick one server's whole unpinned payload onto an empty
/// server of a different machine class as one Evaluator::ApplyPackage (at
/// most 2 pricings; the budget counts one evaluation per moved slot).
/// Never fires on uniform fleets, keeping the homogeneous search
/// bit-identical.
constexpr int kReclassInterval = 25;

}  // namespace

core::ConsolidationPlan TabuSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  util::Rng rng(seed_);

  const core::Assignment seed_assignment = StartAssignment(problem, cap, budget);

  core::Evaluator ev(problem, cap);
  ev.Load(seed_assignment.server_of_slot);
  const int slots = ev.num_slots();
  BestSoFar best(ev, name(), seed_, budget.sink);

  if (slots < 1 || cap < 2) {
    return core::FinalizePlan(problem, best.assignment(), cap);
  }

  // tabu_until[slot * cap + server] > iteration forbids moving `slot` back
  // onto `server` (set when the slot leaves it).
  std::vector<int> tabu_until(static_cast<size_t>(slots) * cap, -1);
  int iteration = 0;

  // Cross-class moves only exist on non-uniform fleets; the gate also keeps
  // the RNG stream (and thus every result) bit-identical on uniform ones.
  const bool fleet_moves = !problem.fleet.Uniform();

  // Hard drain mask: the best-improvement scan only considers placable
  // servers as relocation targets, so drained classes shrink the
  // neighborhood (slots*targets instead of slots*cap move evaluations per
  // scan) instead of being explored and penalized. Identical to the classic
  // [0, cap) scan when nothing is drained.
  const sim::FleetSpec::PlacementMask mask = problem.fleet.PlacementTargets(cap);

  // budget.max_iterations counts move evaluations (one MoveDelta each), so
  // the tabu budget is comparable to SA's regardless of problem size.
  long evals = 0;
  const long max_evals = budget.max_iterations;
  int since_improvement = 0;

  // Per-slot scan scratch, reused across iterations.
  std::vector<int> scan_targets;
  std::vector<double> scan_deltas;
  scan_targets.reserve(mask.targets.size());

  while (evals < max_evals) {
    ++iteration;

    // Best-improvement scan over all (unpinned slot, server) relocations.
    // The budget is checked per slot: one scan costs ~slots*cap
    // evaluations, which can dwarf the whole budget on large problems.
    // Each slot scores its whole target row in one MoveDeltaBatch call
    // (bit-identical to per-target MoveDelta), so the from-side what-if is
    // priced once per slot. The running best delta is the cutoff: a target
    // whose floor is not below it cannot win (the pick is strict <, and
    // aspiration only filters), so empty targets floored there need no
    // pricing.
    double best_delta = std::numeric_limits<double>::infinity();
    int best_slot = -1, best_to = -1;
    for (int slot = 0; slot < slots && evals < max_evals; ++slot) {
      if (ev.PinOfSlot(slot) >= 0) continue;
      const int from = ev.assignment()[slot];
      scan_targets.clear();
      for (int to : mask.targets) {
        if (to != from) scan_targets.push_back(to);
      }
      ev.MoveDeltaBatch(slot, scan_targets, &scan_deltas, best_delta);
      evals += static_cast<long>(scan_targets.size());
      for (size_t i = 0; i < scan_targets.size(); ++i) {
        const int to = scan_targets[i];
        const double d = scan_deltas[i];
        const bool is_tabu = tabu_until[slot * cap + to] > iteration;
        // Aspiration: a tabu move is allowed when it beats the best-ever.
        if (is_tabu && ev.current_cost() + d >= best.cost()) continue;
        if (d < best_delta) {
          best_delta = d;
          best_slot = slot;
          best_to = to;
        }
      }
    }
    if (best_slot < 0) break;  // everything tabu and nothing aspirates

    const int from = ev.assignment()[best_slot];
    ev.ApplyMove(best_slot, best_to);
    const int tenure =
        kTenure + static_cast<int>(rng.UniformInt(0, kTenureJitter));
    tabu_until[best_slot * cap + from] = iteration + tenure;

    if (best_delta < -1e-12) {
      best.Record(ev, iteration);
      since_improvement = 0;
    } else {
      ++since_improvement;
      // Periodic swap kick to leave the current basin.
      if (since_improvement % kKickInterval == 0) {
        const int a = static_cast<int>(rng.UniformInt(0, slots - 1));
        const int b = static_cast<int>(rng.UniformInt(0, slots - 1));
        if (a != b && ev.PinOfSlot(a) < 0 && ev.PinOfSlot(b) < 0 &&
            ev.assignment()[a] != ev.assignment()[b]) {
          const int sa = ev.assignment()[a];
          const int sb = ev.assignment()[b];
          if (!mask.masked || (!problem.fleet.DrainedServer(sa) &&
                               !problem.fleet.DrainedServer(sb))) {
            ev.ApplySwap(ev.QuoteSwap(a, b));
            evals += 2;
            best.Record(ev, iteration);
          }
        }
      }
      // Heterogeneous fleets: periodic re-class kick — one server's whole
      // unpinned payload onto an empty server of a different class, the
      // package move that crosses the "open a bigger box" cost barrier. It
      // prices its two servers once; the budget still counts one
      // evaluation per moved slot.
      if (fleet_moves && since_improvement % kReclassInterval == 0) {
        const int slot = static_cast<int>(rng.UniformInt(0, slots - 1));
        const int from = ev.assignment()[slot];
        const std::vector<int> targets = EmptyCrossClassServers(problem, ev, from);
        const std::vector<int> movers = MovableSlotsOn(ev, from);
        if (!targets.empty() && !movers.empty()) {
          const int to = targets[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
          ev.ApplyPackage(movers, to);
          evals += static_cast<long>(movers.size());
          best.Record(ev, iteration);
        }
      }
    }
  }

  return core::FinalizePlan(problem, best.assignment(), cap);
}

}  // namespace kairos::solve
