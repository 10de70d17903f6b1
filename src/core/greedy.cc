#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/load_accountant.h"

namespace kairos::core {

namespace {

/// Per-server view of the problem's fleet within a server cap, on top of
/// the accountant's per-class models: the open orders in which the packers
/// open servers (drained classes are excluded outright — the hard
/// placement mask) plus shorthand capacity accessors. A non-null `allowed`
/// further restricts both orders to that subset (the cost-based
/// dimensioner's budget-selected multiset).
struct FleetView {
  const LoadAccountant& acct;
  int cap = 0;
  std::vector<int> open_order;  // placable server indices, cheap first
  const std::vector<int>* allowed = nullptr;

  explicit FleetView(const LoadAccountant& accountant,
                     const std::vector<int>* allowed_servers = nullptr)
      : acct(accountant), cap(accountant.num_servers()), allowed(allowed_servers) {
    open_order = Restrict(CheapFirstOrder(accountant));
  }

  /// Alternative open order: best capacity-per-cost first (a scale-up
  /// packing — open the dense boxes first even though each costs more).
  std::vector<int> DenseOrder() const { return Restrict(DenseServerOrder(acct)); }

  /// Drops servers outside the allowed subset (no-op when unrestricted).
  std::vector<int> Restrict(std::vector<int> order) const {
    if (allowed == nullptr) return order;
    std::vector<char> in(cap, 0);
    for (int j : *allowed) {
      if (j >= 0 && j < cap) in[j] = 1;
    }
    order.erase(std::remove_if(order.begin(), order.end(),
                               [&](int j) { return !in[j]; }),
                order.end());
    return order;
  }

  double Weight(int j) const { return acct.ClassWeight(acct.ClassOfServer(j)); }
  /// Headroomed linear capacities of server `j`'s class.
  double CpuCap(int j) const {
    return acct.CapacityOfClass(acct.ClassOfServer(j)).cpu_cores;
  }
  double RamCap(int j) const {
    return acct.CapacityOfClass(acct.ClassOfServer(j)).ram_bytes;
  }
  /// The per-class nonlinear disk axis of server `j`.
  const model::DiskResource& DiskOf(int j) const {
    return acct.Disk(acct.ClassOfServer(j));
  }
};

/// Accumulated load of one open server during packing.
struct Bin {
  bool open = false;
  std::vector<double> cpu, ram, rate;
  double ws = 0;
  double mean_load = 0;  // for "most loaded" ordering
  std::vector<int> slots;

  void Open(int samples) {
    open = true;
    cpu.assign(samples, 0.0);
    ram.assign(samples, 0.0);
    rate.assign(samples, 0.0);
  }
};

double PeakOf(const double* v, int n) {
  double peak = 0.0;
  for (int t = 0; t < n; ++t) peak = std::max(peak, v[t]);
  return peak;
}

/// Hardest-first slot order: biggest peak normalized by the best class's
/// capacity (the GreedyMultiResource packing order).
std::vector<int> HardestFirstSlotOrder(const ConsolidationProblem& problem,
                                       const LoadAccountant& acct) {
  const int num_slots = acct.num_slots();
  const int samples = acct.num_samples();
  const bool has_disk = acct.AnyDiskActive();
  const sim::EffectiveCapacity best_class = acct.BestClass();
  const double ref_cpu_cap =
      best_class.cpu_cores - problem.per_instance_cpu_overhead_cores;
  const double ref_ram_cap =
      best_class.ram_bytes -
      static_cast<double>(problem.instance_ram_overhead_bytes);
  std::vector<int> order(num_slots);
  std::iota(order.begin(), order.end(), 0);
  auto difficulty = [&](int s) {
    double d = PeakOf(acct.SlotSeries(Axis::kCpu, s), samples) /
               std::max(1e-9, ref_cpu_cap);
    d = std::max(d, PeakOf(acct.SlotSeries(Axis::kRam, s), samples) /
                        std::max(1e-9, ref_ram_cap));
    if (has_disk) {
      const double cap = acct.BestDiskCapacity(acct.SlotWs(s));
      if (cap > 0) {
        d = std::max(d, PeakOf(acct.SlotSeries(Axis::kRate, s), samples) / cap);
      }
    }
    return d;
  };
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return difficulty(a) > difficulty(b); });
  return order;
}

}  // namespace

std::vector<int> CheapFirstOrder(const LoadAccountant& acct) {
  std::vector<int> order = acct.PlacableServers();
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return acct.ClassWeight(acct.ClassOfServer(a)) <
           acct.ClassWeight(acct.ClassOfServer(b));
  });
  return order;
}

std::vector<int> DenseServerOrder(const LoadAccountant& acct) {
  const sim::EffectiveCapacity best = acct.BestClass();
  // Largest headroomed sustainable rate at zero working set across the
  // classes with an active disk axis — the disk term's normalizer.
  const bool disk_aware = acct.AnyDiskActive();
  double best_disk = 0.0;
  if (disk_aware) {
    for (int c = 0; c < acct.num_classes(); ++c) {
      if (acct.Disk(c).active()) {
        best_disk = std::max(best_disk, acct.Disk(c).UsableCapacity(0.0));
      }
    }
  }
  // Cost per unit of combined normalized capacity; lower is denser value.
  // Without any disk model the score is CPU/RAM-only, bit-identical to the
  // pre-disk-aware order.
  auto score = [&](int j) {
    const int klass = acct.ClassOfServer(j);
    const sim::EffectiveCapacity& c = acct.CapacityOfClass(klass);
    double capacity = c.cpu_cores / std::max(1e-9, best.cpu_cores) +
                      c.ram_bytes / std::max(1e-9, best.ram_bytes);
    if (disk_aware && best_disk > 0.0) {
      // A class without a disk limit sustains any rate: credit it with the
      // best class's share.
      const model::DiskResource& disk = acct.Disk(klass);
      capacity += disk.active() ? disk.UsableCapacity(0.0) / best_disk : 1.0;
    }
    return acct.ClassWeight(klass) / std::max(1e-9, capacity);
  };
  std::vector<int> order = acct.PlacableServers();
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return score(a) < score(b); });
  return order;
}

GreedyResult GreedySingleResource(const ConsolidationProblem& problem, Resource r,
                                  int max_servers) {
  GreedyResult result;
  const LoadAccountant acct(problem,
                            std::max(1, problem.ServerCap(max_servers)),
                            /*track_server_load=*/false);
  const int num_slots = acct.num_slots();
  if (num_slots == 0) return result;
  const int samples = acct.num_samples();
  const FleetView fleet(acct);

  const double ram_overhead =
      static_cast<double>(problem.instance_ram_overhead_bytes);
  if (r == Resource::kDisk && !acct.AnyDiskActive()) {
    return result;  // cannot pack by disk
  }

  // Decreasing peak demand of the packed resource.
  std::vector<int> order(num_slots);
  std::iota(order.begin(), order.end(), 0);
  auto peak = [&](int s) {
    switch (r) {
      case Resource::kCpu:
        return PeakOf(acct.SlotSeries(Axis::kCpu, s), samples);
      case Resource::kRam:
        return PeakOf(acct.SlotSeries(Axis::kRam, s), samples);
      case Resource::kDisk:
        return PeakOf(acct.SlotSeries(Axis::kRate, s), samples);
    }
    return 0.0;
  };
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return peak(a) > peak(b); });

  std::vector<Bin> bins(fleet.cap);
  std::vector<int> assignment(num_slots, -1);
  int open_count = 0;

  Bin empty_bin;
  empty_bin.Open(samples);
  auto fits = [&](const Bin& bin, int j, int s) {
    switch (r) {
      case Resource::kCpu: {
        const double* cpu = acct.SlotSeries(Axis::kCpu, s);
        for (int t = 0; t < samples; ++t) {
          if (bin.cpu[t] + cpu[t] + problem.per_instance_cpu_overhead_cores >
              fleet.CpuCap(j)) {
            return false;
          }
        }
        return true;
      }
      case Resource::kRam: {
        const double ram_cap = fleet.RamCap(j) - ram_overhead;
        const double* ram = acct.SlotSeries(Axis::kRam, s);
        for (int t = 0; t < samples; ++t) {
          if (bin.ram[t] + ram[t] > ram_cap) return false;
        }
        return true;
      }
      case Resource::kDisk: {
        const model::DiskResource& disk = fleet.DiskOf(j);
        if (!disk.active()) return true;  // this class has no disk limit
        const double cap = disk.UsableCapacity(bin.ws + acct.SlotWs(s));
        const double* rate = acct.SlotSeries(Axis::kRate, s);
        for (int t = 0; t < samples; ++t) {
          if (bin.rate[t] + rate[t] > cap) return false;
        }
        return true;
      }
    }
    return false;
  };

  for (int s : order) {
    // Most-loaded open server where it fits (and no replica of the same
    // workload).
    int best = -1;
    double best_load = -1;
    for (int j = 0; j < fleet.cap; ++j) {
      if (!bins[j].open) continue;
      bool conflict = false;
      for (int other : bins[j].slots) {
        if (acct.WorkloadOfSlot(other) == acct.WorkloadOfSlot(s)) conflict = true;
      }
      if (conflict || !fits(bins[j], j, s)) continue;
      if (bins[j].mean_load > best_load) {
        best_load = bins[j].mean_load;
        best = j;
      }
    }
    if (best < 0) {
      // Open the cheapest unopened placable server the slot fits on; when
      // it fits nowhere alone, still open the cheapest (post-hoc
      // feasibility check rejects the packing, matching the classic
      // behaviour).
      int fallback = -1;
      for (int j : fleet.open_order) {
        if (bins[j].open) continue;
        if (fallback < 0) fallback = j;
        if (fits(empty_bin, j, s)) {
          best = j;
          break;
        }
      }
      if (best < 0) best = fallback;
      if (best < 0) {
        return result;  // cannot pack within the server budget -> infeasible
      }
      bins[best].Open(samples);
      ++open_count;
    }
    Bin& bin = bins[best];
    const double* cpu = acct.SlotSeries(Axis::kCpu, s);
    const double* ram = acct.SlotSeries(Axis::kRam, s);
    const double* rate = acct.SlotSeries(Axis::kRate, s);
    double sum = 0;
    for (int t = 0; t < samples; ++t) {
      bin.cpu[t] += cpu[t];
      bin.ram[t] += ram[t];
      bin.rate[t] += rate[t];
      switch (r) {
        case Resource::kCpu:
          sum += bin.cpu[t];
          break;
        case Resource::kRam:
          sum += bin.ram[t];
          break;
        case Resource::kDisk:
          sum += bin.rate[t];
          break;
      }
    }
    bin.ws += acct.SlotWs(s);
    bin.mean_load = sum / samples;
    bin.slots.push_back(s);
    assignment[s] = best;
  }

  result.assignment.server_of_slot = assignment;
  result.servers_used = open_count;
  // Full feasibility check against every constraint (at the full cap:
  // heterogeneous fleets may use non-contiguous server indices).
  Evaluator ev(problem, fleet.cap);
  ev.Load(assignment);
  result.feasible = ev.IsFeasible();
  return result;
}

GreedyResult GreedyBaseline(const ConsolidationProblem& problem, int max_servers) {
  GreedyResult best;
  for (Resource r : {Resource::kCpu, Resource::kRam, Resource::kDisk}) {
    GreedyResult g = GreedySingleResource(problem, r, max_servers);
    if (!g.feasible) continue;
    if (!best.feasible || g.servers_used < best.servers_used) best = g;
  }
  return best;
}

Assignment GreedyMultiResource(const ConsolidationProblem& problem, int max_servers,
                               const std::vector<int>* allowed_servers) {
  const LoadAccountant acct(problem, std::max(1, problem.ServerCap(max_servers)),
                            /*track_server_load=*/false);
  const int num_slots = acct.num_slots();
  Assignment out;
  out.server_of_slot.assign(num_slots, 0);
  if (num_slots == 0) return out;
  const int samples = acct.num_samples();
  const FleetView fleet(acct, allowed_servers);

  const double cpu_overhead = problem.per_instance_cpu_overhead_cores;
  const double ram_overhead =
      static_cast<double>(problem.instance_ram_overhead_bytes);
  const std::vector<int> order = HardestFirstSlotOrder(problem, acct);

  Bin empty_bin;
  empty_bin.Open(samples);

  // One hardest-first best-fit packing pass, opening servers in
  // `open_order` (placable servers only).
  auto pack = [&](const std::vector<int>& open_order) {
    std::vector<Bin> bins(fleet.cap);
    std::vector<int> assignment(num_slots, 0);
    auto fits_all = [&](const Bin& bin, int j, int s) {
      for (int other : bin.slots) {
        if (acct.WorkloadOfSlot(other) == acct.WorkloadOfSlot(s)) return false;
      }
      const double cpu_cap = fleet.CpuCap(j) - cpu_overhead;
      const double ram_cap = fleet.RamCap(j) - ram_overhead;
      const double* cpu = acct.SlotSeries(Axis::kCpu, s);
      const double* ram = acct.SlotSeries(Axis::kRam, s);
      for (int t = 0; t < samples; ++t) {
        if (bin.cpu[t] + cpu[t] > cpu_cap) return false;
        if (bin.ram[t] + ram[t] > ram_cap) return false;
      }
      const model::DiskResource& disk = fleet.DiskOf(j);
      if (disk.active()) {
        const double cap = disk.UsableCapacity(bin.ws + acct.SlotWs(s));
        const double* rate = acct.SlotSeries(Axis::kRate, s);
        for (int t = 0; t < samples; ++t) {
          if (bin.rate[t] + rate[t] > cap) return false;
        }
      }
      return true;
    };

    for (int s : order) {
      int best = -1;
      double best_load = -1;
      bool any_open = false;
      for (int j = 0; j < fleet.cap; ++j) {
        if (!bins[j].open) continue;
        any_open = true;
        if (!fits_all(bins[j], j, s)) continue;
        if (bins[j].mean_load > best_load) {
          best_load = bins[j].mean_load;
          best = j;
        }
      }
      if (best < 0) {
        // Open the first placable server (in open_order) the slot fits on;
        // fall back to the first unopened one.
        int fallback = -1;
        for (int j : open_order) {
          if (bins[j].open) continue;
          if (fallback < 0) fallback = j;
          if (fits_all(empty_bin, j, s)) {
            best = j;
            break;
          }
        }
        if (best < 0) best = fallback;
        if (best >= 0) {
          bins[best].Open(samples);
        } else if (any_open) {
          // Server budget exhausted: drop onto the least-loaded open server.
          double least = 1e300;
          for (int j = 0; j < fleet.cap; ++j) {
            if (bins[j].open && bins[j].mean_load < least) {
              least = bins[j].mean_load;
              best = j;
            }
          }
        } else {
          // Degenerate fleet (everything drained): open the first server
          // anyway so the assignment is complete; the evaluator flags it.
          best = open_order.empty() ? 0 : open_order[0];
          bins[best].Open(samples);
        }
      }
      Bin& bin = bins[best];
      const double* cpu = acct.SlotSeries(Axis::kCpu, s);
      const double* ram = acct.SlotSeries(Axis::kRam, s);
      const double* rate = acct.SlotSeries(Axis::kRate, s);
      double sum = 0;
      const double cpu_cap = fleet.CpuCap(best) - cpu_overhead;
      const double ram_cap = fleet.RamCap(best) - ram_overhead;
      for (int t = 0; t < samples; ++t) {
        bin.cpu[t] += cpu[t];
        bin.ram[t] += ram[t];
        bin.rate[t] += rate[t];
        sum += bin.cpu[t] / std::max(1e-9, cpu_cap) + bin.ram[t] / std::max(1e-9, ram_cap);
      }
      bin.ws += acct.SlotWs(s);
      bin.mean_load = sum / samples;
      bin.slots.push_back(s);
      assignment[s] = best;
    }
    return assignment;
  };

  std::vector<int> assignment = pack(fleet.open_order);
  if (!problem.fleet.Uniform()) {
    // Heterogeneous fleets: cheap-first (scale-out) vs capacity-per-cost
    // (scale-up) open orders reach very different packings; keep the one
    // the objective prefers. Never runs on uniform fleets, where the two
    // orders coincide — the classic path stays bit-identical.
    std::vector<int> dense_assignment = pack(fleet.DenseOrder());
    Evaluator ev(problem, fleet.cap);
    if (ev.Evaluate(dense_assignment) < ev.Evaluate(assignment)) {
      assignment = std::move(dense_assignment);
    }
  }
  out.server_of_slot = std::move(assignment);
  return out;
}

}  // namespace kairos::core
