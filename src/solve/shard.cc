#include "solve/shard.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/load_accountant.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace kairos::solve {

namespace {

using util::UnionFind;

/// Cross-shard rebalance after stitching: donor->receiver rounds, slots
/// moved per round, and receiver servers scored per batched delta.
constexpr int kRebalanceRounds = 2;
constexpr int kRebalanceMaxMoves = 32;
constexpr int kRebalanceMaxTargets = 64;

/// The automatic shard count aims for about this many slots per shard.
constexpr int kTargetShardSlots = 512;
/// Shards up to this many slots are solved by "engine", larger ones by
/// "greedy-multi".
constexpr int kEngineShardSlots = 96;

/// Local index of global server `server` within the ascending `servers`
/// map; -1 when the shard does not own it.
int LocalServerIndex(const std::vector<int>& servers, int server) {
  auto it = std::lower_bound(servers.begin(), servers.end(), server);
  if (it == servers.end() || *it != server) return -1;
  return static_cast<int>(it - servers.begin());
}

}  // namespace

uint64_t ShardSeed(uint64_t master_seed, int shard_id) {
  // splitmix64 finalizer over the (master, id) pair.
  uint64_t x = master_seed +
               0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(shard_id) + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

ShardPartitioner::ShardPartitioner(const core::ConsolidationProblem& problem,
                                   const ShardOptions& options)
    : problem_(problem) {
  cap_ = problem.ServerCap();

  // A Uniform() fleet partitions as one virtual class spanning the whole
  // index space: the shards come out identical no matter how the identical
  // machines were declared (one unbounded class, two bounded splits, ...),
  // preserving the representation-equivalence property every solver holds.
  if (problem.fleet.Uniform()) {
    vclasses_.push_back({0, 0, cap_});
  } else {
    const std::vector<int> counts = problem.fleet.ClassCounts(cap_);
    int begin = 0;
    for (int c = 0; c < static_cast<int>(counts.size()); ++c) {
      if (counts[c] > 0) vclasses_.push_back({c, begin, counts[c]});
      begin += counts[c];
    }
  }

  const int slots = problem.TotalSlots();
  int shards = options.num_shards;
  if (shards <= 0) shards = (slots + kTargetShardSlots - 1) / kTargetShardSlots;
  num_shards_ = std::max(1, std::min(shards, std::max(1, cap_)));
}

int ShardPartitioner::ShareOf(int v, int s) const {
  const int n = vclasses_[v].count;
  return n / num_shards_ + (s < n % num_shards_ ? 1 : 0);
}

int ShardPartitioner::ShareBegin(int v, int s) const {
  const int n = vclasses_[v].count;
  const int q = n / num_shards_;
  const int r = n % num_shards_;
  return vclasses_[v].begin + s * q + std::min(s, r);
}

int ShardPartitioner::ShardOfServer(int server) const {
  if (server < 0 || server >= cap_) return -1;
  for (int v = 0; v < static_cast<int>(vclasses_.size()); ++v) {
    const VClass& vc = vclasses_[v];
    if (server < vc.begin || server >= vc.begin + vc.count) continue;
    const int offset = server - vc.begin;
    const int q = vc.count / num_shards_;
    const int r = vc.count % num_shards_;
    if (q == 0) return offset;  // one server per shard, lowest ids first
    if (offset < r * (q + 1)) return offset / (q + 1);
    return r + (offset - r * (q + 1)) / q;
  }
  return -1;
}

std::vector<FleetShard> ShardPartitioner::Partition(uint64_t master_seed) const {
  const int S = num_shards_;
  const int num_workloads = static_cast<int>(problem_.workloads.size());

  // Behavioural demand scores: per-workload normalized CPU+RAM peaks, the
  // LPT weight of the routing below. Slot-only accountant — no per-server
  // matrices are allocated for what may be a very large cap. Its
  // constraint index supplies the slot layout, pairs, incumbent and move
  // costs.
  const core::LoadAccountant acct(problem_, cap_, /*track_server_load=*/false);
  const sim::EffectiveCapacity best = acct.BestClass();
  std::vector<double> workload_score(num_workloads, 0.0);
  for (int s = 0; s < acct.num_slots(); ++s) {
    const double* cpu = acct.SlotSeries(core::Axis::kCpu, s);
    const double* ram = acct.SlotSeries(core::Axis::kRam, s);
    double peak_cpu = 0.0, peak_ram = 0.0;
    for (int t = 0; t < acct.num_samples(); ++t) {
      peak_cpu = std::max(peak_cpu, cpu[t]);
      peak_ram = std::max(peak_ram, ram[t]);
    }
    const double score =
        (best.cpu_cores > 0 ? peak_cpu / best.cpu_cores : 0.0) +
        (best.ram_bytes > 0 ? peak_ram / best.ram_bytes : 0.0);
    workload_score[acct.WorkloadOfSlot(s)] += score;
  }

  // Anti-affinity groups (atomic routing units).
  UnionFind uf(num_workloads);
  for (int w = 0; w < num_workloads; ++w) {
    for (int p : acct.Partners(w)) uf.Union(w, p);
  }
  struct Group {
    std::vector<int> members;  // ascending
    double score = 0.0;
    int max_replicas = 1;
    int pin_server = -1;      // first in-range pin among members
    int current_server = -1;  // first in-range current server among slots
  };
  std::vector<Group> groups;
  std::vector<int> group_of(num_workloads, -1);
  for (int w = 0; w < num_workloads; ++w) {
    const int root = uf.Find(w);
    if (group_of[root] < 0) {
      group_of[root] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    Group& g = groups[group_of[root]];
    g.members.push_back(w);
    g.score += workload_score[w];
    g.max_replicas = std::max(g.max_replicas, problem_.workloads[w].replicas);
    const int pin = problem_.workloads[w].pinned_server;
    if (g.pin_server < 0 && pin >= 0 && pin < cap_) g.pin_server = pin;
    if (acct.HasIncumbent() && g.current_server < 0) {
      for (int sl = acct.SlotBegin(w); sl < acct.SlotBegin(w + 1); ++sl) {
        const int cur = acct.CurrentServer(sl);
        if (cur >= 0 && cur < cap_) {
          g.current_server = cur;
          break;
        }
      }
    }
  }

  // Per-shard routing capacity: normalized placable CPU+RAM (drained
  // classes contribute nothing), plus raw server counts for replica fits.
  std::vector<double> cap_score(S, 0.0);
  std::vector<int> placable_count(S, 0), total_count(S, 0);
  for (int v = 0; v < static_cast<int>(vclasses_.size()); ++v) {
    const int klass = vclasses_[v].klass;
    const bool drained = acct.ClassDrained(klass);
    const sim::EffectiveCapacity& cc = acct.CapacityOfClass(klass);
    const double unit =
        (best.cpu_cores > 0 ? cc.cpu_cores / best.cpu_cores : 0.0) +
        (best.ram_bytes > 0 ? cc.ram_bytes / best.ram_bytes : 0.0);
    for (int s = 0; s < S; ++s) {
      const int share = ShareOf(v, s);
      total_count[s] += share;
      if (!drained) {
        placable_count[s] += share;
        cap_score[s] += unit * share;
      }
    }
  }

  // Route groups to shards: pinned groups to the pin's shard, then
  // migration-aware groups to their current server's shard, then the rest
  // LPT (heaviest first) onto the shard with the most normalized headroom.
  std::vector<int> shard_of_workload(num_workloads, 0);
  std::vector<double> load(S, 0.0);
  std::vector<char> routed(groups.size(), 0);
  auto route = [&](int gi, int shard) {
    for (int w : groups[gi].members) shard_of_workload[w] = shard;
    load[shard] += groups[gi].score;
    routed[gi] = 1;
  };
  auto fits = [&](int shard, const Group& g) {
    const int have =
        placable_count[shard] > 0 ? placable_count[shard] : total_count[shard];
    return have >= g.max_replicas;
  };
  auto fallback_shard = [&](const Group& g) {
    // No shard fits the replica count: largest placable pool, lowest id.
    int pick = 0;
    for (int s = 1; s < S; ++s) {
      const int have_p =
          placable_count[pick] > 0 ? placable_count[pick] : total_count[pick];
      const int have_s =
          placable_count[s] > 0 ? placable_count[s] : total_count[s];
      if (have_s > have_p) pick = s;
    }
    (void)g;
    return pick;
  };
  for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
    if (groups[gi].pin_server < 0) continue;
    route(gi, ShardOfServer(groups[gi].pin_server));
  }
  for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
    if (routed[gi] || groups[gi].current_server < 0) continue;
    const int shard = ShardOfServer(groups[gi].current_server);
    route(gi, fits(shard, groups[gi]) ? shard : fallback_shard(groups[gi]));
  }
  std::vector<int> rest;
  for (int gi = 0; gi < static_cast<int>(groups.size()); ++gi) {
    if (!routed[gi]) rest.push_back(gi);
  }
  std::sort(rest.begin(), rest.end(), [&](int a, int b) {
    if (groups[a].score != groups[b].score) {
      return groups[a].score > groups[b].score;
    }
    return groups[a].members.front() < groups[b].members.front();
  });
  for (int gi : rest) {
    int pick = -1;
    double pick_ratio = std::numeric_limits<double>::infinity();
    for (int s = 0; s < S; ++s) {
      if (!fits(s, groups[gi]) || cap_score[s] <= 0.0) continue;
      const double ratio = (load[s] + groups[gi].score) / cap_score[s];
      if (ratio < pick_ratio) {
        pick_ratio = ratio;
        pick = s;
      }
    }
    if (pick < 0) {
      // Fully drained (or zero-capacity) fleet: balance by score over the
      // shards that at least fit the replicas.
      for (int s = 0; s < S; ++s) {
        if (!fits(s, groups[gi])) continue;
        if (pick < 0 || load[s] < load[pick]) pick = s;
      }
    }
    route(gi, pick >= 0 ? pick : fallback_shard(groups[gi]));
  }

  // Materialize the shard subproblems.
  std::vector<FleetShard> shards(S);
  std::vector<int> local_of_workload(num_workloads, -1);
  for (int s = 0; s < S; ++s) {
    FleetShard& shard = shards[s];
    shard.id = s;
    shard.seed = ShardSeed(master_seed, s);

    core::ConsolidationProblem& sub = shard.problem;
    sub.fleet.classes.clear();
    for (int v = 0; v < static_cast<int>(vclasses_.size()); ++v) {
      const int share = ShareOf(v, s);
      if (share <= 0) continue;
      sim::MachineClass mc = problem_.fleet.classes[vclasses_[v].klass];
      mc.count = share;  // never unbounded: shard fleets are fully bounded
      sub.fleet.classes.push_back(mc);
      const int begin = ShareBegin(v, s);
      for (int i = 0; i < share; ++i) shard.servers.push_back(begin + i);
    }
    sub.max_servers = 0;  // the shard fleet is the pool
    sub.disk_model = problem_.disk_model;
    sub.cpu_headroom = problem_.cpu_headroom;
    sub.ram_headroom = problem_.ram_headroom;
    sub.disk_headroom = problem_.disk_headroom;
    sub.per_instance_cpu_overhead_cores = problem_.per_instance_cpu_overhead_cores;
    sub.instance_ram_overhead_bytes = problem_.instance_ram_overhead_bytes;
    sub.cpu_weight = problem_.cpu_weight;
    sub.ram_weight = problem_.ram_weight;
    sub.disk_weight = problem_.disk_weight;
    sub.migration_cost_weight = problem_.migration_cost_weight;

    for (int w = 0; w < num_workloads; ++w) {
      if (shard_of_workload[w] != s) continue;
      local_of_workload[w] = static_cast<int>(shard.workloads.size());
      shard.workloads.push_back(w);
      monitor::WorkloadProfile profile = problem_.workloads[w];
      // Pins remap to the local index space; a pin the shard does not own
      // (a conflicted multi-pin group) is released here and repaired
      // globally after stitching.
      profile.pinned_server = LocalServerIndex(shard.servers, profile.pinned_server);
      sub.workloads.push_back(std::move(profile));
      sub.migration_move_cost.push_back(acct.WorkloadMoveCost(w));
      // Each pair once, when its higher-indexed workload is routed.
      for (int p : acct.Partners(w)) {
        if (p < w && shard_of_workload[p] == s) {
          sub.anti_affinity.emplace_back(local_of_workload[p],
                                         local_of_workload[w]);
        }
      }
      for (int sl = acct.SlotBegin(w); sl < acct.SlotBegin(w + 1); ++sl) {
        shard.slots.push_back(sl);
        // Foreign current servers map to -1: any local placement is a move,
        // which is exactly what it costs globally.
        if (acct.HasIncumbent()) {
          sub.current_assignment.push_back(
              LocalServerIndex(shard.servers, acct.CurrentServer(sl)));
        }
      }
    }
  }
  return shards;
}

namespace {

/// Solves one shard with a registry solver under a budget scaled down by
/// the shard count. Returns the local assignment (one local server index
/// per local slot), clamped into the shard's index space.
std::vector<int> SolveShardLocal(const FleetShard& shard,
                                 const SolveBudget& parent, int num_shards,
                                 const std::vector<int>* warm_seed) {
  const int slots = shard.problem.TotalSlots();
  if (slots == 0 || shard.servers.empty()) return std::vector<int>(slots, 0);
  const int local_cap = HardCap(shard.problem);

  SolveBudget budget;
  const int S = std::max(1, num_shards);
  budget.max_iterations = std::max(200, parent.max_iterations / S);
  budget.direct_evaluations = std::max(50, parent.direct_evaluations / S);
  budget.probe_direct_evaluations =
      std::max(25, parent.probe_direct_evaluations / S);
  budget.local_search_max_sweeps = parent.local_search_max_sweeps;
  budget.sink = parent.sink;
  if (warm_seed != nullptr) {
    // The global warm seed carries over only when every shard slot's seed
    // server lives in this shard; a partial remap would fabricate
    // placements the seed never contained.
    std::vector<int> seed(slots);
    bool ok = true;
    for (int ls = 0; ls < slots; ++ls) {
      const int local = LocalServerIndex(shard.servers, (*warm_seed)[shard.slots[ls]]);
      if (local < 0) {
        ok = false;
        break;
      }
      seed[ls] = local;
    }
    if (ok) budget.seed_assignment = std::move(seed);
  }

  const auto solver = CreateSolver(
      slots <= kEngineShardSlots ? "engine" : "greedy-multi", shard.seed);
  const core::ConsolidationPlan plan = solver->Solve(shard.problem, budget);

  std::vector<int> out = plan.assignment.server_of_slot;
  out.resize(slots, 0);
  for (int& v : out) {
    if (v < 0 || v >= local_cap) v = 0;
  }
  return out;
}

/// Bounded cross-shard rebalance: per round, the shard with the most
/// violation (then the highest normalized load) donates its heaviest
/// movable slots to the emptiest servers of the shard with the most
/// headroom; each candidate scores all targets in one MoveDeltaBatch pass
/// and takes the best strictly improving move. Sequential and
/// RNG-free — byte-identical at any thread count.
int RebalanceAcrossShards(const std::vector<FleetShard>& shards,
                          core::Evaluator* ev) {
  const int S = static_cast<int>(shards.size());
  if (S <= 1) return 0;
  const core::LoadAccountant& acct = ev->accountant();
  const int cap = ev->max_servers();
  const int num_slots = ev->num_slots();

  std::vector<int> shard_of_server(cap, -1);
  for (const FleetShard& shard : shards) {
    for (int j : shard.servers) {
      if (j >= 0 && j < cap) shard_of_server[j] = shard.id;
    }
  }

  const sim::EffectiveCapacity best = acct.BestClass();
  std::vector<double> slot_score(num_slots, 0.0);
  for (int s = 0; s < num_slots; ++s) {
    const double* cpu = acct.SlotSeries(core::Axis::kCpu, s);
    const double* ram = acct.SlotSeries(core::Axis::kRam, s);
    double peak_cpu = 0.0, peak_ram = 0.0;
    for (int t = 0; t < acct.num_samples(); ++t) {
      peak_cpu = std::max(peak_cpu, cpu[t]);
      peak_ram = std::max(peak_ram, ram[t]);
    }
    slot_score[s] = (best.cpu_cores > 0 ? peak_cpu / best.cpu_cores : 0.0) +
                    (best.ram_bytes > 0 ? peak_ram / best.ram_bytes : 0.0);
  }
  std::vector<double> cap_score(S, 0.0);
  for (const FleetShard& shard : shards) {
    for (int j : shard.servers) {
      const int c = acct.ClassOfServer(j);
      if (acct.ClassDrained(c)) continue;
      const sim::EffectiveCapacity& cc = acct.CapacityOfClass(c);
      cap_score[shard.id] +=
          (best.cpu_cores > 0 ? cc.cpu_cores / best.cpu_cores : 0.0) +
          (best.ram_bytes > 0 ? cc.ram_bytes / best.ram_bytes : 0.0);
    }
  }

  int total_moves = 0;
  std::vector<int> targets;
  std::vector<double> deltas;
  for (int round = 0; round < kRebalanceRounds; ++round) {
    // Shard pressure from the *current* placement (moves shift it).
    std::vector<double> violation(S, 0.0), load(S, 0.0);
    for (int j = 0; j < cap; ++j) {
      if (shard_of_server[j] >= 0) {
        violation[shard_of_server[j]] += ev->ServerViolation(j);
      }
    }
    for (int sl = 0; sl < num_slots; ++sl) {
      const int home = shard_of_server[ev->assignment()[sl]];
      if (home >= 0) load[home] += slot_score[sl];
    }
    auto ratio = [&](int s) {
      if (cap_score[s] > 0.0) return load[s] / cap_score[s];
      return load[s] > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    };
    int donor = 0;
    for (int s = 1; s < S; ++s) {
      if (violation[s] > violation[donor] ||
          (violation[s] == violation[donor] && ratio(s) > ratio(donor))) {
        donor = s;
      }
    }
    int receiver = -1;
    for (int s = 0; s < S; ++s) {
      if (s == donor || cap_score[s] <= 0.0) continue;
      if (receiver < 0 || ratio(s) < ratio(receiver)) receiver = s;
    }
    if (receiver < 0) break;

    // Donor candidates: movable slots, violating servers first, heaviest
    // first, slot index as the final tie-break.
    struct Candidate {
      int slot = 0;
      bool violating = false;
      double score = 0.0;
    };
    std::vector<Candidate> candidates;
    for (int sl = 0; sl < num_slots; ++sl) {
      const int j = ev->assignment()[sl];
      if (j < 0 || j >= cap || shard_of_server[j] != donor) continue;
      if (ev->PinOfSlot(sl) >= 0) continue;
      candidates.push_back({sl, ev->ServerViolation(j) > 0.0, slot_score[sl]});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.violating != b.violating) return a.violating;
                if (a.score != b.score) return a.score > b.score;
                return a.slot < b.slot;
              });
    if (static_cast<int>(candidates.size()) > 4 * kRebalanceMaxMoves) {
      candidates.resize(4 * kRebalanceMaxMoves);
    }

    // Receiver targets: placable servers, emptiest first (occupancy at
    // round start), index as the tie-break.
    targets.clear();
    for (int j : shards[receiver].servers) {
      if (!acct.ClassDrained(acct.ClassOfServer(j))) targets.push_back(j);
    }
    std::stable_sort(targets.begin(), targets.end(), [&](int a, int b) {
      return acct.ServerCount(a) < acct.ServerCount(b);
    });
    if (static_cast<int>(targets.size()) > kRebalanceMaxTargets) {
      targets.resize(kRebalanceMaxTargets);
    }
    if (targets.empty()) break;

    int moves_this_round = 0;
    for (const Candidate& cand : candidates) {
      if (moves_this_round >= kRebalanceMaxMoves) break;
      ev->MoveDeltaBatch(cand.slot, targets, &deltas, /*cutoff=*/-1e-9);
      int pick = -1;
      double pick_delta = -1e-9;
      for (int i = 0; i < static_cast<int>(deltas.size()); ++i) {
        if (deltas[i] < pick_delta) {
          pick_delta = deltas[i];
          pick = i;
        }
      }
      if (pick >= 0) {
        ev->ApplyMove(cand.slot, targets[pick]);
        ++moves_this_round;
      }
    }
    total_moves += moves_this_round;
    if (moves_this_round == 0) break;
  }
  return total_moves;
}

}  // namespace

ShardedSolver::ShardedSolver(uint64_t seed, ShardOptions options)
    : seed_(seed), options_(std::move(options)) {}

core::ConsolidationPlan ShardedSolver::Solve(
    const core::ConsolidationProblem& problem, const SolveBudget& budget) {
  const int cap = HardCap(problem);
  if (problem.TotalSlots() == 0) {
    if (cap < 1) {
      // Nothing to place and nowhere to place it (a default-constructed
      // problem): FinalizePlan would build an Evaluator, whose accountant
      // requires at least one server — hand back the empty plan directly.
      core::ConsolidationPlan plan;
      plan.feasible = true;
      plan.class_servers_used.assign(problem.fleet.num_classes(), 0);
      for (const auto& c : problem.fleet.classes) {
        plan.class_names.push_back(c.spec.name);
      }
      return plan;
    }
    return core::FinalizePlan(problem, std::vector<int>(), cap);
  }

  const ShardPartitioner partitioner(problem, options_);
  const std::vector<FleetShard> shards = partitioner.Partition(seed_);
  const int S = static_cast<int>(shards.size());
  const bool warm = ValidSeedAssignment(problem, cap, budget.seed_assignment);

  std::vector<std::vector<int>> local(S);
  uint64_t steals = 0;
  {
    util::ThreadPool pool(options_.threads);
    const std::function<void(int)> task = [&](int s) {
      local[s] = SolveShardLocal(shards[s], budget, S,
                                 warm ? &budget.seed_assignment : nullptr);
      // Credit this worker's evaluator ops before it goes idle; flushing
      // early only moves tallies to the sink sooner, never drops them.
      if (budget.sink != nullptr) core::FlushEvalOps(budget.sink);
    };
    pool.ParallelFor(S, task);
    steals = pool.steal_count();
  }

  // Stitch the local plans into the global index space.
  std::vector<int> assignment(problem.TotalSlots(), 0);
  for (const FleetShard& shard : shards) {
    const std::vector<int>& plan = local[shard.id];
    for (int ls = 0; ls < static_cast<int>(shard.slots.size()); ++ls) {
      assignment[shard.slots[ls]] = shard.servers[plan[ls]];
    }
  }

  core::Evaluator ev(problem, cap);
  ev.Load(assignment);
  // Pins released during partitioning (a pin owned by another shard) come
  // home here, so pins are honoured exactly like every other solver.
  for (int sl = 0; sl < ev.num_slots(); ++sl) {
    const int pin = ev.PinOfSlot(sl);
    if (pin >= 0 && pin < cap && ev.assignment()[sl] != pin) {
      ev.ApplyMove(sl, pin);
    }
  }
  const int rebalance_moves = RebalanceAcrossShards(shards, &ev);

  core::ConsolidationPlan plan = core::FinalizePlan(problem, ev.assignment(), cap);
  if (budget.sink != nullptr) {
    budget.sink->Count("sharded.runs");
    budget.sink->Count("sharded.shards", S);
    budget.sink->Count("sharded.rebalance_moves", rebalance_moves);
    budget.sink->Count("sharded.pool_steals", static_cast<int64_t>(steals));
    obs::TraceSink& trace = budget.sink->trace();
    trace.Emit(trace.InternTrack("sharded/" + std::to_string(seed_)),
               trace.InternName("incumbent"), obs::EventKind::kPoint,
               /*i0=*/0, /*i1=*/plan.feasible ? 1 : 0, /*d0=*/plan.objective);
    core::FlushEvalOps(budget.sink);
  }
  return plan;
}

}  // namespace kairos::solve
