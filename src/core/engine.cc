#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/bounds.h"
#include "core/dimensioner.h"
#include "opt/direct.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace kairos::core {

namespace {

/// DIRECT's local/global balance (Jones' epsilon) for every engine run.
constexpr double kDirectEpsilon = 1e-3;

/// Scope guard flushing the thread's evaluator op tallies to the sink on
/// every exit path of an instrumented solve (no-op on a null sink).
struct EvalOpsFlusher {
  obs::Sink* sink;
  ~EvalOpsFlusher() {
    if (sink != nullptr) FlushEvalOps(sink);
  }
};

/// Decodes a DIRECT point over servers [0, k): pinned slots sit on their
/// pin, the rest scale their coordinate onto the index range. With drained
/// classes a non-empty `targets` restricts the encoding to the placable
/// servers (the hard drain mask), so the search space shrinks instead of
/// the optimizer wading through penalized regions; null or empty means no
/// mask — the classic [0, k) encoding, bit-for-bit.
Assignment DecodePoint(const LoadAccountant& acct, const std::vector<double>& x,
                       int k, const std::vector<int>* targets) {
  const int m = targets != nullptr ? static_cast<int>(targets->size()) : 0;
  Assignment a;
  a.server_of_slot.resize(x.size());
  for (int slot = 0; slot < static_cast<int>(x.size()); ++slot) {
    const int pin = acct.PinOfSlot(slot);
    if (pin >= 0 && pin < k) {
      a.server_of_slot[slot] = pin;
    } else if (m > 0) {
      int idx = static_cast<int>(x[slot] * m);
      a.server_of_slot[slot] = (*targets)[std::clamp(idx, 0, m - 1)];
    } else {
      int j = static_cast<int>(x[slot] * k);
      a.server_of_slot[slot] = std::clamp(j, 0, k - 1);
    }
  }
  return a;
}

}  // namespace

ConsolidationEngine::ConsolidationEngine(const ConsolidationProblem& problem,
                                         const EngineOptions& options)
    : problem_(problem), options_(options) {}

uint32_t ConsolidationEngine::ObsTrack() {
  if (obs_track_ == kNoObsTrack) {
    obs_track_ = options_.sink->trace().InternTrack(
        options_.obs_label + "/" + std::to_string(options_.seed));
  }
  return obs_track_;
}

void ConsolidationEngine::EmitIncumbent(double objective, bool feasible) {
  if (options_.sink == nullptr) return;
  obs::TraceSink& trace = options_.sink->trace();
  trace.Emit(ObsTrack(), trace.InternName("incumbent"), obs::EventKind::kPoint,
             /*i0=*/evaluations_, /*i1=*/feasible ? 1 : 0, /*d0=*/objective);
}

bool ConsolidationEngine::ProbeK(int k, int direct_budget, Assignment* out) {
  const int evals_before = evaluations_;
  const bool feasible = ProbeImpl(k, nullptr, direct_budget, out);
  RecordProbe(k, feasible, evals_before);
  return feasible;
}

bool ConsolidationEngine::ProbeServers(const std::vector<int>& servers,
                                       int direct_budget, Assignment* out) {
  const int evals_before = evaluations_;
  const bool feasible =
      ProbeImpl(problem_.ServerCap(), &servers, direct_budget, out);
  RecordProbe(static_cast<int64_t>(servers.size()), feasible, evals_before);
  return feasible;
}

void ConsolidationEngine::RecordProbe(int64_t size, bool feasible,
                                      int evals_before) {
  ++probe_attempts_;
  if (options_.sink == nullptr) return;
  obs::TraceSink& trace = options_.sink->trace();
  trace.Emit(ObsTrack(), trace.InternName("probe"), obs::EventKind::kPoint,
             /*i0=*/size, /*i1=*/feasible ? 1 : 0,
             /*d0=*/static_cast<double>(evaluations_ - evals_before));
  options_.sink->metrics().counter("engine.probes")->Add(1);
  if (feasible) {
    options_.sink->metrics().counter("engine.probes_feasible")->Add(1);
  }
}

Assignment ConsolidationEngine::RunDirect(Evaluator* ev, int budget,
                                          double target_value, int* evals_out,
                                          const std::vector<int>* targets_override) {
  const int k = ev->max_servers();
  const sim::FleetSpec::PlacementMask mask = problem_.fleet.PlacementTargets(k);
  const std::vector<int>* targets =
      targets_override != nullptr ? targets_override
                                  : (mask.masked ? &mask.targets : nullptr);
  const int dims = ev->num_slots();
  opt::DirectOptimizer direct;
  opt::DirectOptions opts;
  opts.max_evaluations = budget;
  opts.epsilon = kDirectEpsilon;
  opts.target_value = target_value;
  // Each DIRECT point moves one coordinate of an evaluated centre, so most
  // of its servers hold a slot set the run has already priced.
  ServerCostMemo memo;
  const auto objective = [&](const std::vector<double>& x) {
    return ev->Evaluate(
        DecodePoint(ev->accountant(), x, k, targets).server_of_slot, &memo);
  };
  // A `direct` span on the engine's track, and counters whose ratio shows
  // the division rounds each run's budget paid for.
  obs::Sink* const sink = options_.sink;
  opt::DirectResult res;
  {
    obs::ScopedSpan span(
        sink, sink != nullptr ? ObsTrack() : 0,
        sink != nullptr ? sink->trace().InternName("direct") : 0);
    res = direct.Minimize(objective, dims, opts);
  }
  if (sink != nullptr) {
    obs::Registry& metrics = sink->metrics();
    metrics.counter("engine.direct_runs")->Add(1);
    metrics.counter("engine.direct_evaluations")->Add(res.evaluations);
    metrics.counter("engine.direct_iterations")->Add(res.iterations);
  }
  if (evals_out) *evals_out = res.evaluations;
  return DecodePoint(ev->accountant(), res.x, k, targets);
}

void ConsolidationEngine::LocalSearch(Evaluator* ev, int max_sweeps, util::Rng* rng,
                                      const std::vector<int>* targets) {
  const int slots = ev->num_slots();
  std::vector<int> order(slots);
  std::iota(order.begin(), order.end(), 0);
  // Relocation targets: placable servers only (the hard drain mask), or the
  // caller's explicit subset (cost-budget dimensioning). With nothing
  // drained and no subset this is exactly [0, k) — the classic scan. A
  // fully drained fleet degenerates back to the full scan.
  const LoadAccountant& acct = ev->accountant();
  const sim::FleetSpec::PlacementMask mask =
      targets != nullptr ? sim::FleetSpec::PlacementMask{*targets, true}
                         : problem_.fleet.PlacementTargets(ev->max_servers());
  // Swap guard: with an explicit subset, both endpoints must be members
  // (a seed may still sit on un-bought servers); under the drain mask the
  // guard is exactly "not drained", as before.
  std::vector<char> swap_ok;
  if (targets != nullptr) {
    swap_ok.assign(ev->max_servers(), 0);
    for (int j : *targets) {
      if (j >= 0 && j < ev->max_servers()) swap_ok[j] = 1;
    }
  }
  const auto drained_server = [&](int j) {
    if (targets != nullptr) return swap_ok[j] == 0;
    return mask.masked && acct.ClassDrained(acct.ClassOfServer(j));
  };

  // Relocation scratch, reused across sweeps. The batched evaluation
  // shares the from-side what-if cost across a slot's whole target scan
  // (the evaluator state is constant during the scan — moves apply after
  // it), with deltas bit-identical to the scalar loop; the first-in-order
  // strict-< winner is therefore the same move the scalar scan picked.
  std::vector<int> batch_targets;
  std::vector<double> batch_deltas;
  batch_targets.reserve(mask.targets.size());

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool improved = false;
    // Relocation pass (best-improvement per slot, batched deltas).
    for (int i = slots - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<int>(rng->UniformInt(0, i))]);
    }
    for (int slot : order) {
      if (ev->PinOfSlot(slot) >= 0) continue;
      const int cur = ev->assignment()[slot];
      batch_targets.clear();
      for (int j : mask.targets) {
        if (j != cur) batch_targets.push_back(j);
      }
      if (batch_targets.empty()) continue;
      // Only a delta below -1e-9 can win, so an empty target whose floor
      // is already at or above that needs no pricing.
      ev->MoveDeltaBatch(slot, batch_targets, &batch_deltas, -1e-9);
      double best_delta = -1e-9;
      int best_to = -1;
      for (size_t i = 0; i < batch_targets.size(); ++i) {
        if (batch_deltas[i] < best_delta) {
          best_delta = batch_deltas[i];
          best_to = batch_targets[i];
        }
      }
      if (best_to >= 0) {
        ev->ApplyMove(slot, best_to);
        improved = true;
      }
    }
    // Swap pass: random pairs; keep improving swaps, each quoted with one
    // pricing per server and committed without another. Never swap a slot
    // *onto* a drained server (the mask again; no-op without drain).
    const int swap_tries = slots * 2;
    for (int i = 0; i < swap_tries; ++i) {
      const int a = static_cast<int>(rng->UniformInt(0, slots - 1));
      const int b = static_cast<int>(rng->UniformInt(0, slots - 1));
      if (a == b) continue;
      if (ev->PinOfSlot(a) >= 0 || ev->PinOfSlot(b) >= 0) continue;
      const int sa = ev->assignment()[a];
      const int sb = ev->assignment()[b];
      if (sa == sb) continue;
      if (drained_server(sa) || drained_server(sb)) continue;
      const MoveQuote quote = ev->QuoteSwap(a, b);
      if (quote.delta <= -1e-9) {
        ev->ApplySwap(quote);
        improved = true;
      }
    }
    if (!improved) break;
  }
}

bool ConsolidationEngine::ProbeImpl(int k, const std::vector<int>* servers,
                                    int direct_budget, Assignment* out) {
  if (servers != nullptr ? servers->empty() : k < 1) return false;
  util::Rng rng(options_.seed ^
                (servers != nullptr
                     ? 0xB06DULL * (static_cast<uint64_t>(servers->size()) + 1)
                     : 0x9E37ULL * static_cast<uint64_t>(k)));

  // 1. Multi-resource greedy restricted to the k servers (or the subset),
  //    then local search over the same servers.
  Assignment seed = GreedyMultiResource(problem_, k, servers);
  Evaluator ev(problem_, k);
  ev.Load(seed.server_of_slot);
  if (!ev.IsFeasible()) {
    LocalSearch(&ev, options_.local_search_max_sweeps, &rng, servers);
  }
  if (ev.IsFeasible()) {
    if (out) out->server_of_slot = ev.assignment();
    return true;
  }

  // 2. DIRECT global probe with early stop at the first feasible value,
  //    then a final repair pass. Any feasible plan costs at most the sum of
  //    the probed servers' weighted server costs plus a balance tail of e
  //    each. The count probe encodes the *placable* servers of the
  //    fleet-order prefix [0, k): a looser bound (e.g. fleet-wide max
  //    weight) would let an infeasible all-cheap-class plan pass as
  //    "feasible" and stop DIRECT early. The subset probe sums its members.
  const double feasible_threshold =
      servers != nullptr
          ? BoundEngine::SubsetFeasibleThreshold(ev.accountant(), *servers)
          : BoundEngine::PrefixFeasibleThreshold(problem_, ev.accountant(), k);
  int evals = 0;
  Assignment candidate =
      RunDirect(&ev, direct_budget, feasible_threshold, &evals, servers);
  evaluations_ += evals;
  ev.Load(candidate.server_of_slot);
  if (!ev.IsFeasible()) {
    LocalSearch(&ev, options_.local_search_max_sweeps, &rng, servers);
  }
  if (ev.IsFeasible()) {
    if (out) out->server_of_slot = ev.assignment();
    return true;
  }
  return false;
}

ConsolidationPlan ConsolidationEngine::Solve() {
  const auto start = std::chrono::steady_clock::now();
  ConsolidationPlan plan;
  evaluations_ = 0;
  probe_attempts_ = 0;
  obs::ScopedSpan solve_span(options_.sink,
                             options_.obs_label + "/" +
                                 std::to_string(options_.seed),
                             "solve");
  // Credit the evaluator ops of this solve to the sink on every return
  // path. Standalone runs start the tallies clean; under the portfolio the
  // worker brackets each member anyway, so the flush here just lands the
  // same ops earlier.
  if (options_.sink != nullptr) ResetEvalOps();
  EvalOpsFlusher ops_flusher{options_.sink};

  const int num_slots = problem_.TotalSlots();
  if (num_slots == 0) return plan;
  const int hard_cap = problem_.ServerCap();

  plan.fractional_lower_bound = BoundEngine::FractionalServerBound(problem_);

  // Greedy baseline & upper bound.
  const GreedyResult greedy = GreedyBaseline(problem_, hard_cap);
  plan.greedy_servers = greedy.feasible ? greedy.servers_used : -1;
  int upper = greedy.feasible ? greedy.servers_used : hard_cap;
  upper = std::min(upper, hard_cap);
  int lower = std::max(1, plan.fractional_lower_bound);
  if (lower > upper) lower = upper;

  Assignment best;
  int best_k = -1;
  int budget_probes = 0;
  std::vector<int> chosen_class_counts;
  std::vector<int> chosen_servers;
  bool polished_multi_greedy_fallback = false;

  // Draws each improving probe on the incumbent curve.
  const auto broadcast = [this](const Assignment& a, int k) {
    if (options_.sink == nullptr) return;
    Evaluator ev(problem_, k);
    ev.Load(a.server_of_slot);
    EmitIncumbent(ev.current_cost(), ev.IsFeasible());
  };

  // Cost-based dimensioning replaces the count-prefix binary search on
  // heterogeneous fleets: the prefix [0, K) of the declaration order can
  // never open a cheaper class declared late, while the budget search buys
  // dense-first class mixes. Uniform fleets keep the count path — prefix
  // order is immaterial there.
  const bool cost_budget = options_.use_bounded_k && !problem_.fleet.Uniform();

  if (cost_budget) {
    FleetDimensioner dimensioner(problem_, *this, options_);
    const DimensioningResult dim = dimensioner.Run(
        greedy, [&](const Assignment& a) { broadcast(a, hard_cap); });
    budget_probes = dim.budget_probes;
    if (dim.found) {
      best = dim.assignment;
      best_k = hard_cap;
      chosen_class_counts = dim.class_counts;
      chosen_servers = dim.servers;
    }
  } else if (options_.use_bounded_k) {
    // Binary search for the smallest feasible K' (Section 6).
    // First make sure the upper bound actually works.
    Assignment a;
    if (ProbeK(upper, options_.probe_direct_evaluations, &a)) {
      best = a;
      best_k = upper;
      broadcast(best, best_k);
      int lo = lower, hi = upper;
      while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        Assignment mid_a;
        if (ProbeK(mid, options_.probe_direct_evaluations, &mid_a)) {
          best = mid_a;
          best_k = mid;
          broadcast(best, best_k);
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
    } else {
      // Relax upward until something fits.
      for (int k = upper + 1; k <= hard_cap; ++k) {
        Assignment a2;
        if (ProbeK(k, options_.probe_direct_evaluations, &a2)) {
          best = a2;
          best_k = k;
          broadcast(best, best_k);
          break;
        }
      }
    }
  } else {
    // Ablation: one full-space solve (no bounding of K).
    int evals = 0;
    Evaluator ev(problem_, hard_cap);
    const Assignment direct_a =
        RunDirect(&ev, options_.direct_evaluations, -1e300, &evals);
    evaluations_ += evals;
    util::Rng rng(options_.seed);
    ev.Load(direct_a.server_of_slot);
    LocalSearch(&ev, options_.local_search_max_sweeps, &rng);
    best.server_of_slot = ev.assignment();
    best_k = hard_cap;
  }

  if (best_k < 0) {
    // Nothing feasible at all: report the greedy/fallback assignment.
    best = GreedyMultiResource(problem_, hard_cap);
    best_k = hard_cap;
    polished_multi_greedy_fallback = true;
  }

  // Final polish at K' with the full budget (restricted to the dimensioner's
  // chosen multiset when there is one). PolishPlan reports from scratch, so
  // carry over the bound fields computed above.
  ConsolidationPlan polished = PolishPlan(
      best, best_k, chosen_servers.empty() ? nullptr : &chosen_servers);
  polished.fractional_lower_bound = plan.fractional_lower_bound;
  polished.greedy_servers = plan.greedy_servers;
  polished.budget_probes = budget_probes;
  polished.chosen_class_counts = chosen_class_counts;
  plan = std::move(polished);

  if (!problem_.fleet.Uniform()) {
    // Safety net on heterogeneous fleets: the class-aware greedy baseline
    // sees the whole fleet, so never return a plan worse than what it
    // reaches — compare PolishPlan outcomes (feasible beats infeasible,
    // then objective) even when the greedy packing itself was flagged
    // infeasible, since its polish can still be *less* infeasible than the
    // probed plan. (Uniform fleets skip this: the classic path stays
    // bit-identical.)
    Assignment rescue_seed;
    bool have_rescue = false;
    if (greedy.feasible) {
      rescue_seed = greedy.assignment;
      have_rescue = true;
    } else if (!polished_multi_greedy_fallback) {
      // GreedyBaseline found nothing clean; its multi-resource completion is
      // still a whole-fleet seed worth polishing (skipped when the plan
      // above already IS that polish).
      rescue_seed = GreedyMultiResource(problem_, hard_cap);
      have_rescue = true;
    }
    if (have_rescue) {
      ConsolidationPlan from_greedy = PolishPlan(rescue_seed, hard_cap);
      if ((from_greedy.feasible && !plan.feasible) ||
          (from_greedy.feasible == plan.feasible &&
           from_greedy.objective < plan.objective)) {
        from_greedy.fractional_lower_bound = plan.fractional_lower_bound;
        from_greedy.greedy_servers = plan.greedy_servers;
        from_greedy.budget_probes = budget_probes;
        plan = std::move(from_greedy);
      }
    }
  }

  plan.solver_evaluations = evaluations_;
  plan.probe_attempts = probe_attempts_;
  plan.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return plan;
}

ConsolidationPlan ConsolidationEngine::PolishPlan(const Assignment& incumbent, int k,
                                                  const std::vector<int>* targets) {
  // Standalone polish runs (warm-started re-solves) credit their evaluator
  // ops too; under the portfolio the worker's bracket subsumes this.
  EvalOpsFlusher ops_flusher{options_.sink};

  // DIRECT for global moves, then local search, keeping the best feasible
  // incumbent. One evaluator serves both phases: everything the first
  // phase decides on is copied out before the second re-Loads it.
  util::Rng rng(options_.seed + 17);
  Evaluator ev(problem_, k);
  ev.Load(incumbent.server_of_slot);
  LocalSearch(&ev, options_.local_search_max_sweeps * 2, &rng, targets);
  double best_cost = ev.current_cost();
  std::vector<int> best_assign = ev.assignment();
  const bool best_feasible = ev.IsFeasible();

  if (options_.use_bounded_k) {
    int evals = 0;
    Assignment polished =
        RunDirect(&ev, options_.direct_evaluations, -1e300, &evals, targets);
    evaluations_ += evals;
    ev.Load(polished.server_of_slot);
    LocalSearch(&ev, options_.local_search_max_sweeps, &rng, targets);
    if (ev.current_cost() < best_cost && (ev.IsFeasible() || !best_feasible)) {
      best_cost = ev.current_cost();
      best_assign = ev.assignment();
    }
  }

  ConsolidationPlan plan = FinalizePlan(problem_, best_assign, k);
  plan.probe_attempts = probe_attempts_;
  EmitIncumbent(plan.objective, plan.feasible);
  return plan;
}

ConsolidationPlan FinalizePlan(const ConsolidationProblem& problem,
                               const std::vector<int>& assignment, int k) {
  ConsolidationPlan plan;
  Evaluator final_ev(problem, k);
  final_ev.Load(assignment);
  plan.assignment.server_of_slot = assignment;
  plan.feasible = final_ev.IsFeasible();
  plan.objective = final_ev.current_cost();
  plan.migration_cost = final_ev.migration_cost();
  plan.moves_from_current = final_ev.MovesFromCurrent();
  plan.servers_used = plan.assignment.ServersUsed();
  const int num_slots = problem.TotalSlots();
  plan.consolidation_ratio =
      plan.servers_used > 0
          ? static_cast<double>(num_slots) / static_cast<double>(plan.servers_used)
          : 0.0;
  plan.class_servers_used.assign(problem.fleet.num_classes(), 0);
  for (const auto& c : problem.fleet.classes) plan.class_names.push_back(c.spec.name);
  std::vector<char> used(k, 0);
  for (int s : assignment) {
    if (s >= 0 && s < k) used[s] = 1;
  }
  for (int j = 0; j < k; ++j) {
    if (!used[j]) continue;
    const int klass = problem.fleet.ClassOf(j);
    plan.fleet_cost += problem.fleet.classes[klass].cost_weight;
    ++plan.class_servers_used[klass];
  }
  for (int j = 0; j < k; ++j) {
    Evaluator::ServerLoad load = final_ev.GetServerLoad(j);
    if (!load.used) continue;
    ServerSummary summary;
    summary.num_slots = load.num_slots;
    util::Accumulator cpu;
    for (double v : load.cpu_cores) cpu.Add(v);
    summary.peak_cpu_cores = cpu.Max();
    summary.mean_cpu_cores = cpu.Mean();
    summary.p95_cpu_cores = util::Percentile(std::move(load.cpu_cores), 95.0);
    if (!load.ram_bytes.empty()) {
      summary.peak_ram_bytes =
          *std::max_element(load.ram_bytes.begin(), load.ram_bytes.end());
    }
    plan.server_summaries.push_back(summary);
  }
  return plan;
}

std::string ConsolidationPlan::Render() const {
  std::ostringstream out;
  out << "consolidation plan: " << (feasible ? "FEASIBLE" : "INFEASIBLE")
      << ", servers=" << servers_used << " (ratio " << util::FormatDouble(
             consolidation_ratio, 1)
      << ":1, fractional bound " << fractional_lower_bound << ", greedy "
      << (greedy_servers >= 0 ? std::to_string(greedy_servers) : std::string("n/a"))
      << "), solve " << util::FormatDouble(solve_seconds, 2) << "s";
  if (probe_attempts > 0) {
    out << ", probes " << probe_attempts;
    if (solve_seconds > 0) {
      out << " ("
          << util::FormatDouble(static_cast<double>(probe_attempts) /
                                    solve_seconds,
                                1)
          << "/s)";
    }
  }
  out << "\n";
  if (exact_search) {
    // Only the exact solver sets exact_search, so existing heuristic
    // transcripts stay byte-identical.
    out << "exact: " << exact_nodes << " nodes, ";
    if (proved_optimal) {
      out << "proved optimal";
    } else {
      out << "budget-truncated, gap <= " << util::FormatDouble(optimality_gap, 3);
    }
    out << "\n";
  }
  if (class_servers_used.size() > 1) {
    out << "fleet cost " << util::FormatDouble(fleet_cost, 2) << ":";
    for (size_t c = 0; c < class_servers_used.size(); ++c) {
      out << " " << (c < class_names.size() ? class_names[c] : "class") << "="
          << class_servers_used[c];
    }
    out << "\n";
  }
  if (!chosen_class_counts.empty()) {
    out << "dimensioning: cost-budget (" << budget_probes
        << " budget probes), chosen mix:";
    for (size_t c = 0; c < chosen_class_counts.size(); ++c) {
      out << " " << (c < class_names.size() ? class_names[c] : "class") << "="
          << chosen_class_counts[c];
    }
    out << "\n";
  }
  util::Table table({"server", "slots", "peak cpu (cores)", "peak ram (GB)",
                     "mean cpu", "p95 cpu"});
  for (size_t j = 0; j < server_summaries.size(); ++j) {
    const ServerSummary& s = server_summaries[j];
    table.AddRow(
        {std::to_string(j), std::to_string(s.num_slots),
         util::FormatDouble(s.peak_cpu_cores, 2),
         util::FormatDouble(s.peak_ram_bytes / static_cast<double>(util::kGiB),
                            1),
         util::FormatDouble(s.mean_cpu_cores, 2),
         util::FormatDouble(s.p95_cpu_cores, 2)});
  }
  out << table.ToString();
  return out.str();
}

}  // namespace kairos::core
