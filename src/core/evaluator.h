// Objective function and constraint evaluation (the landscape of Figure 5):
//   minimize  sum_j [ used_j * (w_j * C_server + mean_t exp(load_tj)) + penalty_j ]
// where load_tj is the utilization of server j at time t normalized by j's
// *own* machine-class capacity (the problem's sim::FleetSpec), w_j is the
// class's cost weight — so minimizing the objective prefers fewer *and
// cheaper* servers — and penalty_j spikes when capacity, replication,
// anti-affinity, or class-drain constraints are violated. A FleetSpec of
// identical machines at weight 1 reproduces the homogeneous objective
// bit-for-bit. When the problem carries an incumbent placement
// (current_assignment + migration_cost_weight), a migration term
// additionally charges every slot placed away from its current server,
// making re-solves move-averse (the src/online/ loop).
//
// Resource accounting lives in core::LoadAccountant: flat SoA load
// matrices, the per-class resource models (linear CPU/RAM, per-class
// nonlinear model::DiskResource) and the constraint index (slot ranges,
// pins, anti-affinity partners, incumbent, move costs) with its per-slot
// affinity and migration terms. The per-server pricings are core/bounds.h's
// ServerCost and WhatIfServerCost, shared with the exact search's
// BoundEngine. The evaluator owns only its incremental cache and the
// one-shot scratch.
//
// Supports both one-shot evaluation (for DIRECT, optionally through a
// ServerCostMemo) and cached incremental move evaluation (for the
// local-search polish and the metaheuristics, including their re-class
// package move with its snapshot undo and their swap, priced as a quote and
// committed without a second pricing). Instances are not thread-safe
// (Evaluate() reuses internal scratch buffers); portfolio solvers each
// construct their own.
#ifndef KAIROS_CORE_EVALUATOR_H_
#define KAIROS_CORE_EVALUATOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/bounds.h"
#include "core/load_accountant.h"
#include "core/problem.h"

namespace kairos::obs {
class Sink;
}  // namespace kairos::obs

namespace kairos::core {

/// Thread-local evaluator op tallies. Every Evaluate/MoveDelta/ApplyMove
/// bumps a plain thread-local integer — no atomics, no sink branch — and an
/// instrumented region brackets the work with ResetEvalOps() before and
/// FlushEvalOps(sink) after (portfolio workers flush per member, the
/// controller per resolve, the engine per Solve). move_delta_ops counts
/// candidate moves scored (one per MoveDelta, one per MoveDeltaBatch
/// target, one per CountFloorSkip) whether a pricing or a floor decided
/// them; floor_skips counts those a MoveDeltaFloor decided without a
/// pricing. An ApplyMove prices its two servers itself and counts only as
/// an apply op; an ApplyPackage counts only as one package move, however
/// many slots it carries. swap_quotes counts QuoteSwap calls and
/// swap_moves the quotes ApplySwap committed, so swap_moves <= swap_quotes.
/// memo_hits counts server costs Evaluate reused from a ServerCostMemo
/// instead of pricing.
struct EvalOpCounts {
  int64_t evaluate_ops = 0;
  int64_t move_delta_ops = 0;
  int64_t apply_move_ops = 0;
  int64_t package_moves = 0;
  int64_t swap_quotes = 0;
  int64_t swap_moves = 0;
  int64_t floor_skips = 0;
  int64_t memo_hits = 0;
};

/// Zeroes the calling thread's tallies (start of an instrumented region).
void ResetEvalOps();
/// The calling thread's tallies since the last reset.
EvalOpCounts CurrentEvalOps();
/// Adds the calling thread's tallies to the sink's "evaluator.*_ops",
/// "evaluator.package_moves", "evaluator.swap_quotes",
/// "evaluator.swap_moves", "evaluator.floor_skips" and "evaluator.memo_hits"
/// counters and zeroes them. A null sink only zeroes.
void FlushEvalOps(obs::Sink* sink);
/// Tallies one candidate move that a caller decided on a MoveDeltaFloor
/// alone, outside MoveDeltaBatch (anneal's floor reject): one move_delta
/// op and one floor skip.
void CountFloorSkip();

/// Server costs of one DIRECT run, keyed by (machine class, ordered slot
/// set). Evaluate sums a server's rows from zero in slot order, so a
/// server's cost is a pure function of that key and a hit returns the bits
/// a pricing would. Flat storage — one key pool, one entry array and an
/// open-addressing index — so a run's memo is a handful of allocations
/// however many keys it holds. Valid for one Evaluator's problem only;
/// not thread-safe.
class ServerCostMemo {
 public:
  /// The cached cost of (klass, slots[0, count)), or nullptr.
  const double* Find(int klass, const int* slots, int count) const;
  /// Records the cost of a key Find() missed.
  void Insert(int klass, const int* slots, int count, double cost);
  /// Distinct keys held.
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t hash;
    double cost;
    uint32_t offset;  // first slot in pool_
    int32_t klass;
    int32_t count;
  };
  static uint64_t Hash(int klass, const int* slots, int count);
  /// Index bucket holding the key, or the empty bucket it would go in.
  size_t Probe(uint64_t hash, int klass, const int* slots, int count) const;

  std::vector<int> pool_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> index_;  // entry + 1 per bucket, 0 = empty
};

/// A relocation of one unpinned slot (Evaluator::QuoteMove) or a swap of
/// two unpinned slots' servers (Evaluator::QuoteSwap), priced against one
/// state of an Evaluator and committed by Evaluator::ApplyMove or
/// Evaluator::ApplySwap without a pricing.
struct MoveQuote {
  /// The moved slot, and a swap's second slot (-1 for a relocation).
  int slot[2] = {-1, -1};
  /// The two servers the quote prices: a relocation's from and to, a
  /// swap's servers of slot[0] and slot[1] before it.
  int server[2] = {-1, -1};
  /// Cost and violation of server[k] after the move.
  double cost[2] = {0, 0};
  double violation[2] = {0, 0};
  /// Change in anti-affinity units.
  double affinity_units = 0;
  /// Change in the migration penalty.
  double migration_delta = 0;
  /// Objective change; the commit adds exactly this to current_cost(). A
  /// relocation's is MoveDelta(slot, to) bit for bit.
  double delta = 0;
  /// The Evaluator state the quote priced.
  uint64_t epoch = 0;
};

/// Evaluates assignments for one ConsolidationProblem.
class Evaluator {
 public:
  /// `max_servers` bounds the server indices assignments may use.
  Evaluator(const ConsolidationProblem& problem, int max_servers);

  int num_slots() const { return acct_.num_slots(); }
  int max_servers() const { return max_servers_; }
  int num_samples() const { return acct_.num_samples(); }
  /// Workload index of a slot.
  int WorkloadOfSlot(int slot) const { return acct_.WorkloadOfSlot(slot); }
  /// Pinned server of a slot (-1 if free).
  int PinOfSlot(int slot) const { return acct_.PinOfSlot(slot); }

  /// One-shot evaluation of an assignment (no cached state touched; reuses
  /// internal scratch, so not concurrency-safe on one instance). Prices
  /// each used server once; with a `memo`, only the servers whose (class,
  /// slot set) the memo has not seen, bit-identical either way.
  double Evaluate(const std::vector<int>& assignment,
                  ServerCostMemo* memo = nullptr) const;

  /// Loads `assignment` into the incremental cache.
  void Load(const std::vector<int>& assignment);
  /// Cached objective of the loaded assignment.
  double current_cost() const { return current_cost_; }
  /// Cached assignment.
  const std::vector<int>& assignment() const { return assignment_; }
  /// Objective delta if `slot` moved to `to` (no state change).
  double MoveDelta(int slot, int to) const;
  /// A lower bound on MoveDelta(slot, to) that prices no server. Finite
  /// only when `to` is empty (and exact on MoveDelta's 0 / kPinPenalty
  /// early returns); -infinity otherwise. An occupied server's what-if
  /// cost is at least kServerCost times its class weight, and an empty
  /// one's is exactly 0.0; the bound substitutes those into MoveDelta's
  /// operation order with the same affinity and migration terms, so
  /// monotone rounding keeps it <= the exact delta, bit for bit.
  double MoveDeltaFloor(int slot, int to) const;
  /// Batched MoveDelta: deltas->at(i) is the objective delta of moving
  /// `slot` to targets[i], bit-identical to calling MoveDelta per target.
  /// The from-side what-if cost, affinity, and migration terms are
  /// computed once and shared across the batch, so each extra target
  /// costs one pass over the accountant's SoA rows instead of two.
  ///
  /// Cutoff contract: an empty target whose floor (MoveDeltaFloor's bound
  /// built on the exact shared from-side) is >= `cutoff` is not priced;
  /// its entry is that floor, a value in [cutoff, MoveDelta] — a bound,
  /// not the exact delta. Every other entry is exact. A caller that only
  /// acts on deltas below `cutoff` therefore decides exactly as with
  /// exact deltas; the default prices every target.
  void MoveDeltaBatch(
      int slot, const std::vector<int>& targets, std::vector<double>* deltas,
      double cutoff = std::numeric_limits<double>::infinity()) const;
  /// Applies a move and updates the cache, pricing each of the two servers
  /// once. For an unpinned slot current_cost() moves by exactly
  /// MoveDelta(slot, to), bit for bit.
  void ApplyMove(int slot, int to);
  /// Prices moving unpinned `slot` to `to`, another server, without
  /// changing any state: each server is priced once (WhatIfServerCost).
  /// The quoted delta is MoveDelta(slot, to) bit for bit, and the quote
  /// counts as one move_delta op.
  MoveQuote QuoteMove(int slot, int to) const;
  /// Commits a quote of the current state: the two LoadAccountant::Apply
  /// calls, then the quoted costs, violations and totals, without a
  /// pricing. The cache ends bit-identical to ApplyMove(slot, to), and the
  /// commit counts as one apply_move op. A quote made stale by any
  /// mutating call since is asserted against in Debug.
  void ApplyMove(const MoveQuote& quote);
  /// Moves a package of unpinned slots, all on one server `from`, onto
  /// `to` (the metaheuristics' re-class move) and returns the objective
  /// delta it added to current_cost(). The rows are updated slot by slot
  /// in `movers` order, so they end bit-identical to a loop of
  /// ApplyMove(s, to); the affinity and migration terms are summed per
  /// slot as that loop would. Each of the two servers is then priced once
  /// (an emptied `from` costs 0.0 without a pricing), so the delta equals
  /// the loop's cost change up to rounding, not bit for bit. Saves a
  /// one-level snapshot of everything it changes for UndoPackage().
  double ApplyPackage(const std::vector<int>& movers, int to);
  /// Restores the state before the last ApplyPackage exactly — rows,
  /// working sets, counts, cached costs and running totals — without a
  /// pricing. Valid only while no other mutating call (Load, ApplyMove,
  /// ApplyPackage, UndoPackage, ApplySwap) has run since; asserted in
  /// Debug.
  void UndoPackage();
  /// Prices swapping the servers of unpinned slots `a` and `b` (on
  /// different servers) without changing any state: each server is priced
  /// once, with one slot out and the other in (SwapServerCost). The delta
  /// sums the two server changes in ApplyMove's order, then the affinity
  /// change U(a, sb) - U(a, sa) + U(b, sa) - U(b, sb) - 2 r(a, b), where
  /// r(a, b) is 1 for two replicas of one workload plus the multiplicity
  /// of b's workload among the partners of a's, then the migration change.
  MoveQuote QuoteSwap(int a, int b) const;
  /// Commits a quote of the current state: the four LoadAccountant::Apply
  /// calls (a off sa, b onto sa, b off sb, a onto sb), then the quoted
  /// costs, violations and totals, without a pricing. The cached costs
  /// then equal a fresh ServerCost of the new rows, bit for bit, and
  /// current_cost() moves by exactly the quoted delta. A quote made stale
  /// by any mutating call since is asserted against in Debug.
  void ApplySwap(const MoveQuote& quote);
  /// True when the loaded assignment violates no constraint.
  bool IsFeasible() const { return total_violation_ <= 0.0; }
  /// Migration penalty included in current_cost() (0 when the problem has
  /// no current_assignment or a zero migration_cost_weight).
  double migration_cost() const { return migration_cost_; }
  /// Slots of the loaded assignment placed away from the problem's
  /// current_assignment (0 when the problem has none).
  int MovesFromCurrent() const;

  /// Per-server combined load of the loaded assignment (for reports).
  struct ServerLoad {
    bool used = false;
    std::vector<double> cpu_cores;         ///< Over time.
    std::vector<double> ram_bytes;         ///< Over time.
    double working_set_bytes = 0;
    int num_slots = 0;
    double violation = 0;
  };
  /// Snapshot of server `j`'s load (requires Load()).
  ServerLoad GetServerLoad(int j) const;
  /// Cached constraint excess of server `j` (requires Load()). Cheap
  /// enough for the sharded solver's rebalancer to rank donors by.
  double ServerViolation(int j) const { return server_violation_[j]; }
  /// Cached cost of server `j` (requires Load()).
  double CachedServerCost(int j) const { return server_cost_[j]; }

  /// CPU capacity after headroom, per server (machine-class dependent).
  double cpu_capacity(int server = 0) const {
    return acct_.CapacityOfClass(acct_.ClassOfServer(server)).cpu_cores;
  }
  /// Machine class of a server (index into the problem's fleet classes).
  int ClassOfServer(int server) const { return acct_.ClassOfServer(server); }

  /// The shared resource-accounting layer (slot/server load matrices and
  /// per-class resource models).
  const LoadAccountant& accountant() const { return acct_; }

 private:
  /// ServerAggregateCost's first term: what any used server `j` costs at
  /// least.
  double UsedServerFloor(int j) const {
    return kServerCost * acct_.ClassWeight(acct_.ClassOfServer(j));
  }
  /// Cost of a class-`klass` server holding slots[0, count), its rows
  /// summed from zero in slot order (Evaluate's one pricing).
  double PriceSlots(int klass, const int* slots, int count) const;

  /// QuoteMove's pricing, for any slot and uncounted: MoveDelta, QuoteMove
  /// and ApplyMove share it.
  MoveQuote PriceMove(int slot, int to) const;
  /// Sets a quote's delta from its costs, affinity and migration terms.
  void SetQuoteDelta(MoveQuote* quote) const;
  /// Commits a relocation or swap quote (its delta already holding any pin
  /// penalty change) plus `pin_units`, a pinned slot's change in violation
  /// units: the rows in the order the quote priced them, then its costs,
  /// violations and totals.
  void CommitQuote(const MoveQuote& quote, double pin_units);

  /// Recomputes server `j`'s cached cost + violation from its aggregates.
  void RecomputeServer(int j) {
    server_cost_[j] = ServerCost(problem_, acct_, j, &server_violation_[j]);
  }
  /// Anti-affinity violation count for an assignment.
  double AffinityViolations(const std::vector<int>& assignment) const;

  const ConsolidationProblem& problem_;
  int max_servers_;
  LoadAccountant acct_;

  // Incremental cache.
  std::vector<int> assignment_;
  std::vector<double> server_cost_;
  std::vector<double> server_violation_;
  double current_cost_ = 0;
  double total_violation_ = 0;
  double migration_cost_ = 0;
  // Bumped by every mutating call, so a package snapshot or a quote can
  // tell that the state it was taken from has changed.
  uint64_t epoch_ = 1;

  // ApplyPackage's one-level undo: the two servers' accountant state
  // (rows[k] holds server[k]'s kNumAxes blocks of num_samples()) and
  // cached cost/violation, the movers (all on server[0] before), and the
  // three running totals, taken at `epoch` (0: none).
  struct PackageSnapshot {
    uint64_t epoch = 0;
    int server[2] = {-1, -1};
    std::vector<double> rows[2];
    double ws[2] = {0, 0};
    int count[2] = {0, 0};
    double cost[2] = {0, 0};
    double violation[2] = {0, 0};
    std::vector<int> movers;
    double current_cost = 0;
    double total_violation = 0;
    double migration_cost = 0;
  };
  PackageSnapshot package_;

  // One-shot scratch, reused across Evaluate calls: the slots bucketed by
  // server (server j's slots, in slot order, are
  // bucket_slots_[bucket_begin_[j], bucket_begin_[j + 1])), a fill cursor,
  // and one server's summed rows (kNumAxes blocks of num_samples()).
  mutable std::vector<int> bucket_begin_;
  mutable std::vector<int> bucket_fill_;
  mutable std::vector<int> bucket_slots_;
  mutable std::vector<double> rows_;
};

}  // namespace kairos::core

#endif  // KAIROS_CORE_EVALUATOR_H_
