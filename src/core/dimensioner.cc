#include "core/dimensioner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/bounds.h"
#include "core/load_accountant.h"

namespace kairos::core {

namespace {

/// Widest replica set of the problem: replicas never co-locate, so no
/// subset smaller than this can host the load.
int MinServersOf(const ConsolidationProblem& problem) {
  int min_servers = 1;
  for (const auto& w : problem.workloads) {
    min_servers = std::max(min_servers, w.replicas);
  }
  return min_servers;
}

/// The distinct servers in [0, acct.num_servers()) some slot is pinned to,
/// ascending: DecodePoint forces pins onto their servers, so every probed
/// subset must contain them.
std::vector<int> PinnedServers(const LoadAccountant& acct) {
  std::vector<char> pinned(acct.num_servers(), 0);
  for (int s = 0; s < acct.num_slots(); ++s) {
    const int pin = acct.PinOfSlot(s);
    if (pin >= 0 && pin < acct.num_servers()) pinned[pin] = 1;
  }
  std::vector<int> pins;
  for (int j = 0; j < acct.num_servers(); ++j) {
    if (pinned[j]) pins.push_back(j);
  }
  return pins;
}

/// The candidate purchase orders the budget search buys prefixes of. One
/// density scalar cannot express "buy the dear disk class only for the
/// update-heavy payload", so alongside the disk-aware dense order the
/// search also tries cheapest-class-first and, per class, that class's
/// servers first (dense within and after) — the "all on class c, then
/// spill dense" mixes. Deduplicated, deterministic order.
std::vector<std::vector<int>> CandidateOrders(const LoadAccountant& acct) {
  const std::vector<int> pins = PinnedServers(acct);
  std::vector<std::vector<int>> orders;
  const auto push = [&](const std::vector<int>& candidate) {
    // Pinned servers lead every order, also those a candidate lacks (e.g.
    // on a drained class).
    std::vector<int> order = pins;
    for (int j : candidate) {
      if (!std::binary_search(pins.begin(), pins.end(), j)) order.push_back(j);
    }
    if (order.empty()) return;
    if (std::find(orders.begin(), orders.end(), order) == orders.end()) {
      orders.push_back(std::move(order));
    }
  };

  const std::vector<int> dense = DenseServerOrder(acct);
  push(dense);

  // Cheapest class first — the order the legacy prefix approximates when
  // cheap classes lead the declaration.
  push(CheapFirstOrder(acct));

  for (int c = 0; c < acct.num_classes(); ++c) {
    if (acct.ClassDrained(c)) continue;
    std::vector<int> first = dense;
    std::stable_partition(first.begin(), first.end(), [&](int j) {
      return acct.ClassOfServer(j) == c;
    });
    push(first);
  }
  return orders;
}

/// First m of the purchase order, as an ascending server-index subset.
std::vector<int> SubsetOf(const std::vector<int>& order, int m) {
  std::vector<int> subset(order.begin(), order.begin() + m);
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace

FleetDimensioner::FleetDimensioner(const ConsolidationProblem& problem,
                                   ConsolidationEngine& engine,
                                   const EngineOptions& options)
    : problem_(problem), engine_(engine), options_(options) {}

DimensioningResult FleetDimensioner::Run(
    const GreedyResult& greedy_upper,
    const std::function<void(const Assignment&)>& on_improve) {
  DimensioningResult result;
  const int cap = problem_.ServerCap();
  if (cap < 1 || problem_.TotalSlots() == 0) return result;
  const LoadAccountant acct(problem_, cap, /*track_server_load=*/false);
  const LoadAccountant::AggregateDemand demand = acct.TotalDemand();
  const int min_servers = MinServersOf(problem_);
  const int num_classes = problem_.fleet.num_classes();

  // Fleet cost of the class-aware greedy baseline: the known-feasible
  // anchor bounding the knapsack (legacy anchored its upper K on the
  // greedy server count the same way).
  double greedy_cost = -1.0;
  if (greedy_upper.feasible) {
    std::vector<char> used(cap, 0);
    for (int s : greedy_upper.assignment.server_of_slot) {
      if (s >= 0 && s < cap) used[s] = 1;
    }
    std::vector<int> greedy_servers;
    for (int j = 0; j < cap; ++j) {
      if (used[j]) greedy_servers.push_back(j);
    }
    greedy_cost = problem_.fleet.CostOfServers(greedy_servers);
  }

  // Pins must ride in every probed subset (DecodePoint forces them), so
  // they floor their class counts; drained classes offer nothing beyond
  // their pins.
  std::vector<std::vector<int>> pins_of_class(num_classes);
  std::vector<char> is_pin(cap, 0);
  for (int pin : PinnedServers(acct)) {
    is_pin[pin] = 1;
    pins_of_class[acct.ClassOfServer(pin)].push_back(pin);
  }
  const std::vector<int> class_counts = problem_.fleet.ClassCounts(cap);
  std::vector<int> min_counts(num_classes, 0), avail(num_classes, 0);
  for (int c = 0; c < num_classes; ++c) {
    min_counts[c] = static_cast<int>(pins_of_class[c].size());
    avail[c] = acct.ClassDrained(c) ? min_counts[c] : class_counts[c];
  }

  // The bounded knapsack over class counts: cheapest fractional covers in
  // ascending fleet cost. Unlike the retired prefix enumeration, this
  // reaches mixes that interleave two bounded classes mid-order without
  // any greedy rescue. The greedy anchor prunes mixes that cannot improve
  // on a known-feasible fleet.
  constexpr int kMaxMixProbes = 48;
  const std::vector<ClassMix> mixes = BoundEngine::CheapestCoverMixes(
      acct, demand, min_servers, min_counts, avail,
      /*max_cost=*/greedy_cost >= 0.0 ? greedy_cost : 0.0,
      /*max_mixes=*/kMaxMixProbes);

  // Trace ids for the budget probes (one branch when no sink attached).
  uint32_t obs_track = 0, obs_probe = 0, obs_improve = 0;
  if (options_.sink != nullptr) {
    obs::TraceSink& trace = options_.sink->trace();
    obs_track = trace.InternTrack("dimensioner/" +
                                  std::to_string(options_.seed));
    obs_probe = trace.InternName("budget_probe");
    obs_improve = trace.InternName("dim_improve");
  }

  // Ascending server-index subset realizing a class-count mix: each
  // class's pinned servers, then its lowest non-pinned indices.
  const auto subset_for = [&](const std::vector<int>& counts) {
    std::vector<int> subset;
    for (int c = 0; c < num_classes; ++c) {
      int taken = 0;
      for (int j : pins_of_class[c]) {
        if (taken >= counts[c]) break;
        subset.push_back(j);
        ++taken;
      }
      const int begin = problem_.fleet.ClassBegin(c);
      for (int j = begin; j < begin + class_counts[c] && taken < counts[c];
           ++j) {
        if (!is_pin[j]) {
          subset.push_back(j);
          ++taken;
        }
      }
    }
    std::sort(subset.begin(), subset.end());
    return subset;
  };

  const auto probe = [&](const std::vector<int>& servers, double mix_cost,
                         Assignment* out) {
    ++result.budget_probes;
    const bool ok = engine_.ProbeServers(
        servers, options_.probe_direct_evaluations, out);
    if (options_.sink != nullptr) {
      options_.sink->trace().Emit(
          obs_track, obs_probe, obs::EventKind::kPoint,
          /*i0=*/static_cast<int64_t>(servers.size()),
          /*i1=*/ok ? 1 : 0, /*d0=*/mix_cost);
      options_.sink->metrics().counter("dimensioner.budget_probes")->Add(1);
    }
    return ok;
  };
  const auto improve = [&](Assignment a, std::vector<int> servers) {
    result.found = true;
    result.assignment = std::move(a);
    result.servers = std::move(servers);
    result.class_counts.assign(num_classes, 0);
    for (int j : result.servers) {
      ++result.class_counts[problem_.fleet.ClassOf(j)];
    }
    result.budget = problem_.fleet.CostOfServers(result.servers);
    if (options_.sink != nullptr) {
      options_.sink->trace().Emit(
          obs_track, obs_improve, obs::EventKind::kPoint,
          /*i0=*/static_cast<int64_t>(result.servers.size()),
          /*i1=*/1, /*d0=*/result.budget);
    }
    if (on_improve) on_improve(result.assignment);
  };

  // Mixes arrive cost-ascending, so the first probe-feasible one is the
  // cheapest reachable — nothing cheaper remains to try.
  for (const ClassMix& mix : mixes) {
    Assignment a;
    const std::vector<int> servers = subset_for(mix.counts);
    if (servers.empty()) continue;
    if (probe(servers, mix.cost, &a)) {
      improve(std::move(a), servers);
      break;
    }
  }

  if (!result.found) {
    // No bounded-budget mix held the load (or the knapsack was anchored
    // out): relax to the whole placable fleet plus pins once, the
    // full-order fallback of the retired prefix search. The engine's
    // greedy rescue remains the backstop past this.
    std::vector<int> full = acct.PlacableServers();
    for (int j = 0; j < cap; ++j) {
      if (is_pin[j] &&
          std::find(full.begin(), full.end(), j) == full.end()) {
        full.push_back(j);
      }
    }
    std::sort(full.begin(), full.end());
    if (!full.empty()) {
      Assignment a;
      if (probe(full, problem_.fleet.CostOfServers(full), &a)) {
        improve(std::move(a), std::move(full));
      }
    }
  }
  return result;
}

Assignment FleetDimensioner::GreedySeed(const ConsolidationProblem& problem,
                                        int cap) {
  if (cap < 1 || problem.TotalSlots() == 0) {
    return GreedyMultiResource(problem, cap);
  }
  const LoadAccountant acct(problem, cap, /*track_server_load=*/false);
  const LoadAccountant::AggregateDemand demand = acct.TotalDemand();
  const int min_servers = MinServersOf(problem);
  const std::vector<std::vector<int>> orders = CandidateOrders(acct);

  // No probes here: pick the candidate coverage prefix with the cheapest
  // fractional-cover cost and pack restricted to it. Deterministic, and
  // cheap enough to run per metaheuristic warm start.
  const std::vector<int>* seed_order = nullptr;
  int seed_m = 0;
  double seed_cost = std::numeric_limits<double>::infinity();
  for (const std::vector<int>& order : orders) {
    const int m = BoundEngine::CoveragePrefix(acct, demand, min_servers, order);
    if (m <= 0) continue;
    double cost = 0;
    for (int i = 0; i < m; ++i) {
      cost += problem.fleet.classes[problem.fleet.ClassOf(order[i])].cost_weight;
    }
    if (cost < seed_cost) {
      seed_cost = cost;
      seed_order = &order;
      seed_m = m;
    }
  }
  if (seed_order == nullptr) return GreedyMultiResource(problem, cap);
  const std::vector<int> subset = SubsetOf(*seed_order, seed_m);
  return GreedyMultiResource(problem, cap, &subset);
}

}  // namespace kairos::core
