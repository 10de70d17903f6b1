// Sharded parallel consolidation: partition one ConsolidationProblem into
// per-machine-class fleet shards, solve the shards concurrently on a
// deterministic work-stealing pool (util::ThreadPool), stitch the local
// plans back into the global index space, and repair the seams with a
// bounded cross-shard rebalancing pass driven by batched MoveDelta
// evaluation.
//
// Determinism contract: the partition is a pure function of the problem
// and the options (no RNG), every shard solves with a seed derived only
// from (master_seed, shard_id), and the rebalance runs sequentially on the
// caller thread — so the final plan is byte-identical at any worker-thread
// count. Thread count changes wall-clock only.
#ifndef KAIROS_SOLVE_SHARD_H_
#define KAIROS_SOLVE_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.h"
#include "solve/solver.h"

namespace kairos::solve {

/// Knobs of the sharded solver and its partitioner. Each shard is solved
/// by "engine" when it holds at most 96 slots, else by "greedy-multi".
struct ShardOptions {
  /// Shard count; <= 0 aims for about 512 slots per shard. Either way the
  /// count is clamped to the server cap, so every shard owns at least one
  /// server.
  int num_shards = 0;
  /// Worker threads for the shard solves; <= 0 uses hardware concurrency.
  /// Any value yields the same plan.
  int threads = 0;
};

/// One shard: a self-contained subproblem over a subset of the fleet's
/// server index space and a subset of the workloads, plus the maps back to
/// the global index spaces. `problem` holds copies of the routed workload
/// profiles but borrows the parent's shared disk model pointer — shards
/// must not outlive the problem they were partitioned from.
struct FleetShard {
  int id = 0;
  /// Deterministic per-shard solve seed (ShardSeed(master, id)).
  uint64_t seed = 1;
  core::ConsolidationProblem problem;
  std::vector<int> servers;    ///< Local server index -> global server.
  std::vector<int> workloads;  ///< Local workload index -> global workload.
  std::vector<int> slots;      ///< Local slot index -> global slot.
};

/// Per-shard solve seed: a splitmix64 finalizer over (master_seed,
/// shard_id), so neighbouring shard ids land in unrelated RNG streams and
/// the seed of shard k is stable under repartitioning as long as k exists.
uint64_t ShardSeed(uint64_t master_seed, int shard_id);

/// Splits a ConsolidationProblem into shard-local subproblems. Servers are
/// dealt as contiguous per-class ranges (every machine class is spread
/// across all shards proportionally); a Uniform() fleet is treated as one
/// virtual class regardless of how it is declared, so behaviourally
/// identical fleet representations partition identically. Workloads are
/// routed whole (all replicas together), anti-affinity groups atomically
/// (union-find), pinned groups to the shard owning the pin, groups of a
/// problem that carries a current_assignment to the shard owning their
/// current server (when it fits their replicas), and the rest
/// longest-processing-time-first onto the shard with the most normalized
/// headroom. The partition uses only behavioural values (capacities, cost
/// weights, demand peaks) — never pointer identity or declaration layout.
/// Slot layout, anti-affinity pairs, incumbent servers and move costs come
/// from core::LoadAccountant's constraint index, so a shard's subproblem
/// prices them exactly as the global evaluator does.
class ShardPartitioner {
 public:
  ShardPartitioner(const core::ConsolidationProblem& problem,
                   const ShardOptions& options);

  /// Shard count after clamping (>= 1).
  int ResolvedShardCount() const { return num_shards_; }

  /// Builds the shard subproblems; per-shard seeds derive from
  /// `master_seed`. Shards with no routed workloads come back with empty
  /// workload/slot maps (their servers stay idle).
  std::vector<FleetShard> Partition(uint64_t master_seed) const;

  /// Shard owning global server index `server` (-1 when out of range).
  int ShardOfServer(int server) const;

 private:
  /// One contiguous server range of one (possibly virtual) machine class.
  struct VClass {
    int klass = 0;  ///< Parent fleet class index.
    int begin = 0;  ///< First global server index of the range.
    int count = 0;
  };

  /// Servers of vclass `v` owned by shard `s` (even split, remainder to
  /// the lowest shard ids).
  int ShareOf(int v, int s) const;
  /// First global server index of shard `s`'s range within vclass `v`.
  int ShareBegin(int v, int s) const;

  const core::ConsolidationProblem& problem_;
  int cap_ = 0;
  int num_shards_ = 1;
  std::vector<VClass> vclasses_;
};

/// The "sharded" solver: partition, parallel shard solves,
/// stitch, pin repair, bounded cross-shard rebalance (batched MoveDelta),
/// FinalizePlan. Plans are a pure function of (problem, budget, seed,
/// options) — never of the thread count.
class ShardedSolver : public Solver {
 public:
  explicit ShardedSolver(uint64_t seed, ShardOptions options = ShardOptions());

  std::string name() const override { return "sharded"; }

  core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                const SolveBudget& budget) override;

 private:
  uint64_t seed_;
  ShardOptions options_;
};

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_SHARD_H_
