#include "solve/annealing.h"

#include <algorithm>
#include <cmath>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "util/rng.h"

namespace kairos::solve {

namespace {

/// Initial acceptance temperature as a fraction of the start cost.
constexpr double kInitialTempFraction = 0.02;
/// Geometric cooling rate applied once per epoch.
constexpr double kCooling = 0.95;
/// Moves per epoch, as a multiple of the slot count.
constexpr int kEpochSlotsFactor = 8;
/// Probability of proposing a swap instead of a relocation.
constexpr double kSwapProbability = 0.25;
/// Heterogeneous fleets only: probability of proposing a cross-class
/// "re-class" move — one server's whole unpinned payload migrates onto an
/// empty server of a different machine class, as one
/// Evaluator::ApplyPackage (at most 2 pricings) that a reject undoes from
/// its snapshot (0 pricings). Never drawn on uniform fleets, so the
/// homogeneous move stream is untouched.
constexpr double kReclassProbability = 0.08;

}  // namespace

bool AnnealFloorRejects(double floor, double u, double temperature) {
  return u > 0 && u >= std::exp(-floor / temperature) * (1 + 0x1p-40);
}

core::ConsolidationPlan AnnealingSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  util::Rng rng(seed_);

  const core::Assignment seed_assignment = StartAssignment(problem, cap, budget);

  core::Evaluator ev(problem, cap);
  ev.Load(seed_assignment.server_of_slot);
  const int slots = ev.num_slots();
  BestSoFar best(ev, name(), seed_, budget.sink);

  if (slots < 2 || cap < 2) {
    return core::FinalizePlan(problem, best.assignment(), cap);
  }

  // Temperature scaled to the seed cost so acceptance behaves consistently
  // across problem sizes (the objective spans orders of magnitude between
  // feasible and penalized regions).
  double temperature =
      std::max(1.0, kInitialTempFraction * std::abs(ev.current_cost()));
  const int epoch = std::max(1, kEpochSlotsFactor * slots);

  // Cross-class moves only exist on non-uniform fleets; the gate also keeps
  // the RNG stream (and thus every result) bit-identical on uniform ones.
  const bool fleet_moves = !problem.fleet.Uniform();

  // Hard drain mask: with drained classes present, relocation targets are
  // drawn from the placable servers only and swaps never land on a drained
  // server. Unmasked fleets keep the classic RNG stream bit-for-bit.
  const sim::FleetSpec::PlacementMask mask = problem.fleet.PlacementTargets(cap);

  for (int it = 0; it < budget.max_iterations; ++it) {
    if (it > 0 && it % epoch == 0) temperature *= kCooling;

    if (fleet_moves && rng.NextDouble() < kReclassProbability) {
      // Re-class: migrate one server's whole unpinned payload onto an empty
      // server of a different machine class (e.g. two legacy boxes folding
      // onto one big target) — a package move single relocations only reach
      // through an uphill barrier. The package prices its two servers once
      // and a reject restores its snapshot without a pricing.
      const int slot = static_cast<int>(rng.UniformInt(0, slots - 1));
      const int from = ev.assignment()[slot];
      const std::vector<int> targets = EmptyCrossClassServers(problem, ev, from);
      const std::vector<int> movers = MovableSlotsOn(ev, from);
      if (targets.empty() || movers.empty()) continue;
      const int to = targets[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))];
      const double delta = ev.ApplyPackage(movers, to);
      if (delta <= 0) {
        best.Record(ev, it);
      } else if (rng.NextDouble() >= std::exp(-delta / temperature)) {
        ev.UndoPackage();
      }
      continue;
    }

    if (rng.NextDouble() < kSwapProbability) {
      // Swap the servers of two unpinned slots: quoted with one pricing
      // per server, committed without another, and a reject changes
      // nothing.
      const int a = static_cast<int>(rng.UniformInt(0, slots - 1));
      const int b = static_cast<int>(rng.UniformInt(0, slots - 1));
      if (a == b) continue;
      if (ev.PinOfSlot(a) >= 0 || ev.PinOfSlot(b) >= 0) continue;
      const int sa = ev.assignment()[a];
      const int sb = ev.assignment()[b];
      if (sa == sb) continue;
      if (mask.masked && (problem.fleet.DrainedServer(sa) ||
                          problem.fleet.DrainedServer(sb))) {
        continue;
      }
      const core::MoveQuote quote = ev.QuoteSwap(a, b);
      if (quote.delta <= 0) {
        ev.ApplySwap(quote);
        best.Record(ev, it);
      } else if (rng.NextDouble() < std::exp(-quote.delta / temperature)) {
        ev.ApplySwap(quote);
      }
    } else {
      // Relocate one unpinned slot to a random other server (a random
      // other *placable* server under the drain mask).
      const int slot = static_cast<int>(rng.UniformInt(0, slots - 1));
      if (ev.PinOfSlot(slot) >= 0) continue;
      const int from = ev.assignment()[slot];
      int to;
      if (mask.masked) {
        // Uniform over placable servers != from; when `from` itself is
        // drained (an evacuation move) every target is valid.
        const auto pos = std::lower_bound(mask.targets.begin(),
                                          mask.targets.end(), from);
        const int n = static_cast<int>(mask.targets.size());
        if (pos != mask.targets.end() && *pos == from) {
          if (n < 2) continue;
          int idx = static_cast<int>(rng.UniformInt(0, n - 2));
          if (idx >= static_cast<int>(pos - mask.targets.begin())) ++idx;
          to = mask.targets[idx];
        } else {
          to = mask.targets[static_cast<size_t>(rng.UniformInt(0, n - 1))];
        }
      } else {
        to = static_cast<int>(rng.UniformInt(0, cap - 2));
        if (to >= from) ++to;  // uniform over servers != from
      }
      const double floor = ev.MoveDeltaFloor(slot, to);
      if (floor > 0) {
        // delta >= floor > 0, so the exact rule below would draw `u` at
        // this point of the stream too; most such moves (onto an empty
        // server) are rejected on the floor without a pricing.
        const double u = rng.NextDouble();
        if (AnnealFloorRejects(floor, u, temperature)) {
          core::CountFloorSkip();
        } else {
          const core::MoveQuote quote = ev.QuoteMove(slot, to);
          if (u < std::exp(-quote.delta / temperature)) ev.ApplyMove(quote);
        }
        continue;
      }
      // Quoted with one pricing per server and committed without another.
      const core::MoveQuote quote = ev.QuoteMove(slot, to);
      const double delta = quote.delta;
      if (delta <= 0 || rng.NextDouble() < std::exp(-delta / temperature)) {
        ev.ApplyMove(quote);
        if (delta <= 0) best.Record(ev, it);
      }
    }
  }

  return core::FinalizePlan(problem, best.assignment(), cap);
}

}  // namespace kairos::solve
