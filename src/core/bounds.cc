#include "core/bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

namespace kairos::core {

double ServerAggregateCost(const ConsolidationProblem& problem,
                           const LoadAccountant& acct, int klass, double ws,
                           int count, const AxisSeries& cpu,
                           const AxisSeries& ram, const AxisSeries& rate,
                           double* violation_out) {
  if (count <= 0) {
    if (violation_out) *violation_out = 0.0;
    return 0.0;
  }
  const sim::EffectiveCapacity& cap = acct.CapacityOfClass(klass);
  const model::DiskResource& disk = acct.Disk(klass);
  PricingConstants k;
  k.cpu_overhead = problem.per_instance_cpu_overhead_cores;
  k.ram_overhead = static_cast<double>(problem.instance_ram_overhead_bytes);
  k.cpu_full = cap.cpu_full_cores;
  k.ram_full = cap.ram_full_bytes;
  k.cpu_limit = cap.cpu_cores;
  k.ram_limit = cap.ram_bytes;
  if (disk.active()) {
    const double disk_cap = disk.Capacity(ws);
    if (disk_cap > 0) {
      k.disk_full = disk_cap;
      k.disk_limit = disk.headroom() * disk_cap;
    }
  }
  k.cpu_weight = problem.cpu_weight;
  k.ram_weight = problem.ram_weight;
  k.disk_weight = problem.disk_weight;
  k.weight_sum = problem.cpu_weight + problem.ram_weight + problem.disk_weight;

  const int samples = acct.num_samples();
  const PricingSums sums = PriceSamples(k, cpu, ram, rate, samples);
  double violation = sums.excess_sum / static_cast<double>(samples);
  if (acct.ClassDrained(klass)) violation += count * kDrainedUnit;

  double cost = kServerCost * acct.ClassWeight(klass) +
                sums.exp_sum / static_cast<double>(samples);
  if (violation > 1e-12) cost += kViolationBase + kViolationScale * violation;
  if (violation_out) *violation_out = violation;
  return cost;
}

double ServerCost(const ConsolidationProblem& problem,
                  const LoadAccountant& acct, int j, double* violation_out) {
  return ServerAggregateCost(problem, acct, acct.ClassOfServer(j),
                             acct.ServerWs(j), acct.ServerCount(j),
                             {acct.ServerSeries(Axis::kCpu, j)},
                             {acct.ServerSeries(Axis::kRam, j)},
                             {acct.ServerSeries(Axis::kRate, j)},
                             violation_out);
}

double WhatIfServerCost(const ConsolidationProblem& problem,
                        const LoadAccountant& acct, int j, int slot,
                        double sign, double* violation_out) {
  // Apply adds sign * slot, and server + (-slot) is server - slot.
  const auto axis = [&](Axis a) {
    AxisSeries s;
    s.base = acct.ServerSeries(a, j);
    (sign > 0 ? s.plus : s.minus) = acct.SlotSeries(a, slot);
    return s;
  };
  return ServerAggregateCost(
      problem, acct, acct.ClassOfServer(j),
      acct.ServerWs(j) + sign * acct.SlotWs(slot),
      acct.ServerCount(j) + (sign > 0 ? 1 : -1), axis(Axis::kCpu),
      axis(Axis::kRam), axis(Axis::kRate), violation_out);
}

double SwapServerCost(const ConsolidationProblem& problem,
                      const LoadAccountant& acct, int j, int out_slot,
                      int in_slot, double* violation_out) {
  const auto axis = [&](Axis a) {
    return AxisSeries{acct.ServerSeries(a, j), acct.SlotSeries(a, out_slot),
                      acct.SlotSeries(a, in_slot)};
  };
  return ServerAggregateCost(
      problem, acct, acct.ClassOfServer(j),
      (acct.ServerWs(j) - acct.SlotWs(out_slot)) + acct.SlotWs(in_slot),
      acct.ServerCount(j), axis(Axis::kCpu), axis(Axis::kRam),
      axis(Axis::kRate), violation_out);
}

int BoundEngine::FractionalServerBound(const ConsolidationProblem& problem) {
  const LoadAccountant acct(problem, 1, /*track_server_load=*/false);
  const int num_slots = acct.num_slots();
  if (num_slots == 0) return 0;

  const LoadAccountant::AggregateDemand demand = acct.TotalDemand();
  if (problem.fleet.UniformMachines()) {
    // One machine type: every server IS the best class, so the classic
    // idealized arithmetic applies directly (and stays bit-identical).
    const sim::EffectiveCapacity best = acct.BestClass();
    int k = 1;
    k = std::max(k,
                 static_cast<int>(std::ceil(demand.peak_cpu / best.cpu_cores)));
    k = std::max(k,
                 static_cast<int>(std::ceil(demand.peak_ram / best.ram_bytes)));
    if (acct.AnyDiskActive()) {
      while (k < num_slots) {
        const double cap_per_server =
            acct.BestUsableDiskCapacity(demand.ws / static_cast<double>(k));
        if (demand.peak_rate <= cap_per_server * static_cast<double>(k)) break;
        ++k;
      }
    }
    return k;
  }

  // Mixed fleet: pretending every server matches the best class reports
  // unreachable bounds when that class has a small bounded count. Fill each
  // axis's demand best-class-first up to each class's available count before
  // spilling to the next class — still fractional (workloads divisible,
  // axes independent), so still a valid lower bound.
  const int cap = problem.ServerCap();
  std::vector<int> counts = problem.fleet.ClassCounts(cap);
  const int num_classes = acct.num_classes();
  bool any_placable = false;
  for (int c = 0; c < num_classes; ++c) {
    any_placable = any_placable || (counts[c] > 0 && !acct.ClassDrained(c));
  }
  if (any_placable) {
    // Drained classes host nothing; a degenerate all-drained fleet keeps
    // every class, matching the packers' fallback.
    for (int c = 0; c < num_classes; ++c) {
      if (acct.ClassDrained(c)) counts[c] = 0;
    }
  }
  int total_count = 0;
  for (int c = 0; c < num_classes; ++c) total_count += counts[c];
  if (total_count == 0) return 1;

  // Servers needed to cover `demand` on one linear axis, biggest class
  // first (the greedy fill is exact for a single axis).
  const auto fill_linear = [&](double demand,
                               const std::vector<double>& class_cap) {
    std::vector<int> order(num_classes);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return class_cap[a] > class_cap[b];
    });
    int k = 0;
    for (int c : order) {
      if (demand <= 0.0) break;
      if (counts[c] <= 0 || class_cap[c] <= 0.0) continue;
      const int need =
          static_cast<int>(std::ceil(demand / class_cap[c]));
      const int take = std::min(counts[c], need);
      k += take;
      demand -= static_cast<double>(take) * class_cap[c];
    }
    // Demand beyond the whole fleet: the bound degenerates to "use
    // everything" (the plan is infeasible regardless).
    return demand > 0.0 ? total_count : k;
  };

  std::vector<double> cpu_cap(num_classes), ram_cap(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    cpu_cap[c] = acct.CapacityOfClass(c).cpu_cores;
    ram_cap[c] = acct.CapacityOfClass(c).ram_bytes;
  }
  int k = std::max(1, std::max(fill_linear(demand.peak_cpu, cpu_cap),
                               fill_linear(demand.peak_ram, ram_cap)));
  if (acct.AnyDiskActive()) {
    while (k < std::min(num_slots, total_count)) {
      // Best total sustainable rate k servers offer with the working set
      // spread evenly, best disk classes first (an inactive axis sustains
      // any rate, so one such server settles the axis).
      const double ws_per = demand.ws / static_cast<double>(k);
      std::vector<double> disk_cap(num_classes);
      for (int c = 0; c < num_classes; ++c) {
        disk_cap[c] = acct.Disk(c).UsableCapacity(ws_per);
      }
      std::vector<int> order(num_classes);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return disk_cap[a] > disk_cap[b];
      });
      double remaining = demand.peak_rate;
      int left = k;
      for (int c : order) {
        if (left <= 0 || remaining <= 0.0) break;
        if (counts[c] <= 0) continue;
        const int take = std::min(left, counts[c]);
        remaining -= disk_cap[c] * static_cast<double>(take);
        left -= take;
      }
      if (remaining <= 0.0) break;
      ++k;
    }
  }
  return k;
}

double BoundEngine::PrefixFeasibleThreshold(const ConsolidationProblem& problem,
                                            const LoadAccountant& acct, int k) {
  if (problem.fleet.UniformMachines() && !problem.fleet.AnyDrained()) {
    return static_cast<double>(k) *
           (kServerCost * problem.fleet.classes.front().cost_weight +
            std::exp(1.0));
  }
  // The accountant covers servers [0, k), so its placable list *is* the
  // placable prefix.
  const double placable_prefix =
      static_cast<double>(acct.PlacableServers().size());
  return kServerCost * acct.PrefixWeight(k) + placable_prefix * std::exp(1.0);
}

double BoundEngine::SubsetFeasibleThreshold(const LoadAccountant& acct,
                                            const std::vector<int>& servers) {
  return kServerCost * acct.SubsetWeight(servers) +
         static_cast<double>(servers.size()) * std::exp(1.0);
}

int BoundEngine::CoveragePrefix(const LoadAccountant& acct,
                                const LoadAccountant::AggregateDemand& demand,
                                int min_servers,
                                const std::vector<int>& order) {
  const int n = static_cast<int>(order.size());
  const bool disk = acct.AnyDiskActive();
  // Per-class membership of the prefix, maintained incrementally: the disk
  // check below is then O(num_classes) per candidate m (capacity depends
  // only on the class and the evenly spread working set).
  std::vector<int> prefix_classes(acct.num_classes(), 0);
  double cpu_sum = 0, ram_sum = 0;
  for (int m = 1; m <= n; ++m) {
    const int klass = acct.ClassOfServer(order[m - 1]);
    ++prefix_classes[klass];
    cpu_sum += acct.CapacityOfClass(klass).cpu_cores;
    ram_sum += acct.CapacityOfClass(klass).ram_bytes;
    if (m < min_servers || cpu_sum < demand.peak_cpu ||
        ram_sum < demand.peak_ram) {
      continue;
    }
    if (disk) {
      // Working set spread evenly over the prefix; an inactive disk axis
      // sustains any rate (unbounded capacity), settling the check.
      const double ws_per = demand.ws / static_cast<double>(m);
      double rate_sum = 0;
      for (int c = 0; c < acct.num_classes(); ++c) {
        if (prefix_classes[c] > 0) {
          rate_sum += acct.Disk(c).UsableCapacity(ws_per) *
                      static_cast<double>(prefix_classes[c]);
        }
      }
      if (rate_sum < demand.peak_rate) continue;
    }
    return m;
  }
  return n;
}

namespace {

/// True when the class-count vector's fractional aggregate capacity covers
/// the peak demand on every axis (the knapsack's goal test — the count
/// analogue of CoveragePrefix's per-prefix check).
bool MixCovers(const LoadAccountant& acct,
               const LoadAccountant::AggregateDemand& demand, int min_servers,
               const std::vector<int>& counts, int total, double cpu_sum,
               double ram_sum) {
  if (total < std::max(1, min_servers)) return false;
  if (cpu_sum < demand.peak_cpu || ram_sum < demand.peak_ram) return false;
  if (acct.AnyDiskActive()) {
    const double ws_per = demand.ws / static_cast<double>(total);
    double rate_sum = 0;
    for (int c = 0; c < acct.num_classes(); ++c) {
      if (counts[c] > 0) {
        rate_sum += acct.Disk(c).UsableCapacity(ws_per) *
                    static_cast<double>(counts[c]);
      }
    }
    if (rate_sum < demand.peak_rate) return false;
  }
  return true;
}

}  // namespace

std::vector<ClassMix> BoundEngine::CheapestCoverMixes(
    const LoadAccountant& acct, const LoadAccountant::AggregateDemand& demand,
    int min_servers, const std::vector<int>& min_counts,
    const std::vector<int>& avail, double max_cost, int max_mixes) {
  const int num_classes = acct.num_classes();
  std::vector<ClassMix> out;
  if (num_classes == 0 || max_mixes <= 0) return out;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Worst-case work cap: node expansion is O(num_classes), so this bounds
  // the knapsack to a few hundred thousand class-ops on any fleet size.
  constexpr int kMaxExpansions = 200000;

  struct Node {
    double priority = 0;  // cost + admissible completion bound
    double cost = 0;
    double cpu_sum = 0;
    double ram_sum = 0;
    int total = 0;
    int klass = 0;  // class whose count is still growable
    std::vector<int> counts;
  };
  // Deterministic strict-weak order: cheapest priority first, then cheapest
  // cost, then fewest servers, then lexicographic counts, then class cursor.
  const auto after = [](const Node& a, const Node& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.total != b.total) return a.total > b.total;
    if (a.counts != b.counts) return a.counts > b.counts;
    return a.klass > b.klass;
  };

  // Admissible completion: remaining residual demand on each linear axis
  // filled fractionally by the cheapest cost-per-capacity among the classes
  // the node can still add (its cursor class and everything after). A
  // server covers both axes at once, so the max of the per-axis fills is
  // still a lower bound; +inf when residual demand remains but no class
  // can take it.
  const auto completion = [&](const Node& n) {
    const double res_cpu = std::max(0.0, demand.peak_cpu - n.cpu_sum);
    const double res_ram = std::max(0.0, demand.peak_ram - n.ram_sum);
    if (res_cpu <= 0.0 && res_ram <= 0.0) return 0.0;
    double rate_cpu = kInf, rate_ram = kInf;
    for (int c = n.klass; c < num_classes; ++c) {
      if (n.counts[c] >= avail[c]) continue;
      const double w = acct.ClassWeight(c);
      const sim::EffectiveCapacity& cap = acct.CapacityOfClass(c);
      if (cap.cpu_cores > 0) rate_cpu = std::min(rate_cpu, w / cap.cpu_cores);
      if (cap.ram_bytes > 0) rate_ram = std::min(rate_ram, w / cap.ram_bytes);
    }
    double h = 0;
    if (res_cpu > 0.0) h = std::max(h, res_cpu * rate_cpu);
    if (res_ram > 0.0) h = std::max(h, res_ram * rate_ram);
    return h;
  };

  Node start;
  start.counts.assign(num_classes, 0);
  for (int c = 0; c < num_classes; ++c) {
    const int floor = std::min(std::max(0, min_counts[c]), avail[c]);
    start.counts[c] = floor;
    start.total += floor;
    start.cost += acct.ClassWeight(c) * static_cast<double>(floor);
    start.cpu_sum +=
        acct.CapacityOfClass(c).cpu_cores * static_cast<double>(floor);
    start.ram_sum +=
        acct.CapacityOfClass(c).ram_bytes * static_cast<double>(floor);
  }
  start.priority = start.cost + completion(start);
  if (std::isinf(start.priority)) return out;

  std::priority_queue<Node, std::vector<Node>, decltype(after)> queue(after);
  queue.push(std::move(start));
  int expansions = 0;
  while (!queue.empty() && static_cast<int>(out.size()) < max_mixes &&
         expansions < kMaxExpansions) {
    Node node = queue.top();
    queue.pop();
    ++expansions;
    if (max_cost > 0 && node.priority >= max_cost - 1e-9) break;
    if (MixCovers(acct, demand, min_servers, node.counts, node.total,
                  node.cpu_sum, node.ram_sum)) {
      // A cover's supersets are never cheaper: record, don't expand.
      ClassMix mix;
      mix.counts = node.counts;
      mix.cost = node.cost;
      mix.total = node.total;
      out.push_back(std::move(mix));
      continue;
    }
    // Child 1: freeze this class's count, move the cursor on (every count
    // vector is reached by exactly one freeze/add path — no dedup needed).
    if (node.klass + 1 < num_classes) {
      Node advance = node;
      ++advance.klass;
      advance.priority = advance.cost + completion(advance);
      if (!std::isinf(advance.priority) &&
          (max_cost <= 0 || advance.priority < max_cost - 1e-9)) {
        queue.push(std::move(advance));
      }
    }
    // Child 2: buy one more server of the cursor class.
    if (node.counts[node.klass] < avail[node.klass]) {
      Node add = std::move(node);
      const int c = add.klass;
      ++add.counts[c];
      ++add.total;
      add.cost += acct.ClassWeight(c);
      add.cpu_sum += acct.CapacityOfClass(c).cpu_cores;
      add.ram_sum += acct.CapacityOfClass(c).ram_bytes;
      add.priority = add.cost + completion(add);
      if (!std::isinf(add.priority) &&
          (max_cost <= 0 || add.priority < max_cost - 1e-9)) {
        queue.push(std::move(add));
      }
    }
  }
  return out;
}

BoundEngine::BoundEngine(const ConsolidationProblem& problem, int cap)
    : problem_(problem),
      cap_(cap),
      acct_(problem, cap, /*track_server_load=*/true) {
  assert(cap_ >= 1);
  assignment_.assign(acct_.num_slots(), -1);
  server_cost_.assign(cap_, 0.0);
  server_violation_.assign(cap_, 0.0);

  const LoadAccountant::AggregateDemand demand = acct_.TotalDemand();
  peak_cpu_demand_ = demand.peak_cpu;
  peak_ram_demand_ = demand.peak_ram;
  const sim::EffectiveCapacity best = acct_.BestClass();
  best_cpu_cap_ = best.cpu_cores;
  best_ram_cap_ = best.ram_bytes;
  min_placable_weight_ = 0.0;
  bool first = true;
  for (int j : acct_.PlacableServers()) {
    const double w = acct_.ClassWeight(acct_.ClassOfServer(j));
    if (first || w < min_placable_weight_) min_placable_weight_ = w;
    first = false;
  }
}

double BoundEngine::PlaceDelta(int slot, int server) const {
  double delta =
      WhatIfServerCost(problem_, acct_, server, slot, +1.0, nullptr) -
      server_cost_[server];
  delta += acct_.AffinityUnits(assignment_, slot, server) * kAffinityPenalty;
  delta += acct_.MigrationCost(slot, server);
  const int pin = acct_.PinOfSlot(slot);
  if (pin >= 0 && pin != server) delta += kPinPenalty;
  return delta;
}

void BoundEngine::Place(int slot, int server) {
  assert(assignment_[slot] < 0);
  const double aff = acct_.AffinityUnits(assignment_, slot, server);
  const double old_cost = server_cost_[server];
  const double old_violation = server_violation_[server];
  if (acct_.ServerCount(server) == 0) {
    const sim::EffectiveCapacity& cap =
        acct_.CapacityOfClass(acct_.ClassOfServer(server));
    open_cpu_cap_ += cap.cpu_cores;
    open_ram_cap_ += cap.ram_bytes;
  }
  acct_.Apply(server, slot, +1.0);
  RecomputeServer(server);
  assignment_[slot] = server;
  committed_cost_ += server_cost_[server] - old_cost + aff * kAffinityPenalty +
                     acct_.MigrationCost(slot, server);
  const int pin = acct_.PinOfSlot(slot);
  if (pin >= 0 && pin != server) committed_cost_ += kPinPenalty;
  committed_violation_ += server_violation_[server] - old_violation;
}

void BoundEngine::Unplace(int slot, int server) {
  assert(assignment_[slot] == server);
  assignment_[slot] = -1;
  const double aff = acct_.AffinityUnits(assignment_, slot, server);
  const double old_cost = server_cost_[server];
  const double old_violation = server_violation_[server];
  acct_.Apply(server, slot, -1.0);
  RecomputeServer(server);
  committed_cost_ -= old_cost - server_cost_[server] + aff * kAffinityPenalty +
                     acct_.MigrationCost(slot, server);
  const int pin = acct_.PinOfSlot(slot);
  if (pin >= 0 && pin != server) committed_cost_ -= kPinPenalty;
  committed_violation_ -= old_violation - server_violation_[server];
  if (acct_.ServerCount(server) == 0) {
    const sim::EffectiveCapacity& cap =
        acct_.CapacityOfClass(acct_.ClassOfServer(server));
    open_cpu_cap_ -= cap.cpu_cores;
    open_ram_cap_ -= cap.ram_bytes;
  }
}

double BoundEngine::CompletionBound() const {
  // A placed server already in violation pays kViolationScale per unit of
  // *additional* excess — real but unbounded-from-below, so nothing extra
  // can be promised.
  if (committed_violation_ > 1e-12) return 0.0;
  int extra = 0;
  if (peak_cpu_demand_ > open_cpu_cap_) {
    extra = best_cpu_cap_ > 0
                ? std::max(extra, static_cast<int>(std::ceil(
                                      (peak_cpu_demand_ - open_cpu_cap_) /
                                      best_cpu_cap_)))
                : std::max(extra, 1);
  }
  if (peak_ram_demand_ > open_ram_cap_) {
    extra = best_ram_cap_ > 0
                ? std::max(extra, static_cast<int>(std::ceil(
                                      (peak_ram_demand_ - open_ram_cap_) /
                                      best_ram_cap_)))
                : std::max(extra, 1);
  }
  if (extra <= 0) return 0.0;
  // Every newly opened server adds at least kServerCost * w_min + exp(0)
  // == w_min * 1e3 + 1; refusing to open instead leaves some server over
  // its headroomed capacity at the binding sample — at least the fixed
  // violation penalty.
  const double open_unit = kServerCost * min_placable_weight_ + 1.0;
  return std::min(static_cast<double>(extra) * open_unit, kViolationBase);
}

}  // namespace kairos::core
