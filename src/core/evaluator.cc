#include "core/evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/sink.h"

namespace kairos::core {

namespace {

/// The hot-path op tallies (see EvalOpCounts in evaluator.h). Plain
/// thread-local integers: bumping them costs one increment and never
/// touches shared state, so MoveDelta stays atomic-free.
thread_local EvalOpCounts tl_eval_ops;

}  // namespace

void ResetEvalOps() { tl_eval_ops = EvalOpCounts{}; }

EvalOpCounts CurrentEvalOps() { return tl_eval_ops; }

void FlushEvalOps(obs::Sink* sink) {
  if (sink != nullptr) {
    if (tl_eval_ops.evaluate_ops > 0) {
      sink->metrics().counter("evaluator.evaluate_ops")
          ->Add(tl_eval_ops.evaluate_ops);
    }
    if (tl_eval_ops.move_delta_ops > 0) {
      sink->metrics().counter("evaluator.move_delta_ops")
          ->Add(tl_eval_ops.move_delta_ops);
    }
    if (tl_eval_ops.apply_move_ops > 0) {
      sink->metrics().counter("evaluator.apply_move_ops")
          ->Add(tl_eval_ops.apply_move_ops);
    }
    if (tl_eval_ops.package_moves > 0) {
      sink->metrics().counter("evaluator.package_moves")
          ->Add(tl_eval_ops.package_moves);
    }
    if (tl_eval_ops.swap_quotes > 0) {
      sink->metrics().counter("evaluator.swap_quotes")
          ->Add(tl_eval_ops.swap_quotes);
    }
    if (tl_eval_ops.swap_moves > 0) {
      sink->metrics().counter("evaluator.swap_moves")
          ->Add(tl_eval_ops.swap_moves);
    }
    if (tl_eval_ops.floor_skips > 0) {
      sink->metrics().counter("evaluator.floor_skips")
          ->Add(tl_eval_ops.floor_skips);
    }
    if (tl_eval_ops.memo_hits > 0) {
      sink->metrics().counter("evaluator.memo_hits")->Add(tl_eval_ops.memo_hits);
    }
  }
  tl_eval_ops = EvalOpCounts{};
}

void CountFloorSkip() {
  ++tl_eval_ops.move_delta_ops;
  ++tl_eval_ops.floor_skips;
}

uint64_t ServerCostMemo::Hash(int klass, const int* slots, int count) {
  uint64_t h = 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(klass) + 1);
  for (int i = 0; i < count; ++i) {
    h = (h ^ static_cast<uint32_t>(slots[i])) * 0x100000001B3ULL;
  }
  // Fold the high bits down: the index masks the low ones.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

size_t ServerCostMemo::Probe(uint64_t hash, int klass, const int* slots,
                             int count) const {
  const size_t mask = index_.size() - 1;
  for (size_t b = hash & mask;; b = (b + 1) & mask) {
    if (index_[b] == 0) return b;
    const Entry& e = entries_[index_[b] - 1];
    if (e.hash == hash && e.klass == klass && e.count == count &&
        std::memcmp(pool_.data() + e.offset, slots,
                    static_cast<size_t>(count) * sizeof(int)) == 0) {
      return b;
    }
  }
}

const double* ServerCostMemo::Find(int klass, const int* slots,
                                   int count) const {
  if (index_.empty()) return nullptr;
  const uint32_t e =
      index_[Probe(Hash(klass, slots, count), klass, slots, count)];
  return e == 0 ? nullptr : &entries_[e - 1].cost;
}

void ServerCostMemo::Insert(int klass, const int* slots, int count,
                            double cost) {
  // Keep the index at most half full so probe runs stay short.
  if (2 * (entries_.size() + 1) > index_.size()) {
    index_.assign(std::max<size_t>(64, 2 * index_.size()), 0);
    const size_t mask = index_.size() - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t b = entries_[i].hash & mask;
      while (index_[b] != 0) b = (b + 1) & mask;
      index_[b] = static_cast<uint32_t>(i + 1);
    }
  }
  const uint64_t hash = Hash(klass, slots, count);
  const size_t b = Probe(hash, klass, slots, count);
  assert(index_[b] == 0);
  entries_.push_back({hash, cost, static_cast<uint32_t>(pool_.size()), klass,
                      count});
  pool_.insert(pool_.end(), slots, slots + count);
  index_[b] = static_cast<uint32_t>(entries_.size());
}

Evaluator::Evaluator(const ConsolidationProblem& problem, int max_servers)
    : problem_(problem),
      max_servers_(max_servers),
      acct_(problem, max_servers) {
  assert(max_servers_ >= 1);

  bucket_begin_.resize(max_servers_ + 1);
  bucket_fill_.resize(max_servers_);
  bucket_slots_.resize(acct_.num_slots());
  rows_.resize(static_cast<size_t>(kNumAxes) * acct_.num_samples());
}

double Evaluator::AffinityViolations(const std::vector<int>& assignment) const {
  // Slots are workload-major, so only the contiguous slot ranges of a
  // workload and of its partners are scanned. Every addition is an exact
  // +1, so the total does not depend on the scan order.
  double units = 0;
  for (int w = 0; w < acct_.num_workloads(); ++w) {
    const int end = acct_.SlotBegin(w + 1);
    // Replica anti-affinity: two slots of the same workload on one server.
    for (int a = acct_.SlotBegin(w); a < end; ++a) {
      for (int b = a + 1; b < end; ++b) {
        if (assignment[a] == assignment[b]) units += 1;
      }
    }
    // Explicit pairs, each counted once from its lower-indexed workload.
    for (int p : acct_.Partners(w)) {
      if (p < w) continue;
      for (int a = acct_.SlotBegin(w); a < end; ++a) {
        for (int b = acct_.SlotBegin(p); b < acct_.SlotBegin(p + 1); ++b) {
          if (assignment[a] == assignment[b]) units += 1;
        }
      }
    }
  }
  return units;
}

double Evaluator::PriceSlots(int klass, const int* slots, int count) const {
  const int samples = acct_.num_samples();
  double* cpu = rows_.data();
  double* ram = cpu + samples;
  double* rate = ram + samples;
  std::fill(rows_.begin(), rows_.end(), 0.0);
  double ws = 0.0;
  for (int i = 0; i < count; ++i) {
    const int s = slots[i];
    const double* sl_cpu = acct_.SlotSeries(Axis::kCpu, s);
    const double* sl_ram = acct_.SlotSeries(Axis::kRam, s);
    const double* sl_rate = acct_.SlotSeries(Axis::kRate, s);
    for (int t = 0; t < samples; ++t) {
      cpu[t] += sl_cpu[t];
      ram[t] += sl_ram[t];
      rate[t] += sl_rate[t];
    }
    ws += acct_.SlotWs(s);
  }
  return ServerAggregateCost(
      problem_, acct_, klass, ws, count, [&](int t) { return cpu[t]; },
      [&](int t) { return ram[t]; }, [&](int t) { return rate[t]; }, nullptr);
}

double Evaluator::Evaluate(const std::vector<int>& assignment,
                           ServerCostMemo* memo) const {
  ++tl_eval_ops.evaluate_ops;
  const int num_slots = acct_.num_slots();
  assert(static_cast<int>(assignment.size()) == num_slots);
  // Bucket the slots by server with a counting sort, which keeps each
  // server's slots in slot order.
  std::fill(bucket_begin_.begin(), bucket_begin_.end(), 0);
  double pin_penalty = 0;
  for (int s = 0; s < num_slots; ++s) {
    const int j = assignment[s];
    assert(j >= 0 && j < max_servers_);
    ++bucket_begin_[j + 1];
    if (acct_.PinOfSlot(s) >= 0 && acct_.PinOfSlot(s) != j) {
      pin_penalty += kPinPenalty;
    }
  }
  for (int j = 0; j < max_servers_; ++j) {
    bucket_begin_[j + 1] += bucket_begin_[j];
    bucket_fill_[j] = bucket_begin_[j];
  }
  for (int s = 0; s < num_slots; ++s) {
    bucket_slots_[bucket_fill_[assignment[s]]++] = s;
  }
  // Ascending server order, as the incremental cache sums. An empty server
  // costs exactly 0.0, so skipping it leaves the sum's bits unchanged.
  double cost = pin_penalty;
  for (int j = 0; j < max_servers_; ++j) {
    const int* slots = bucket_slots_.data() + bucket_begin_[j];
    const int count = bucket_begin_[j + 1] - bucket_begin_[j];
    if (count == 0) continue;
    const int klass = acct_.ClassOfServer(j);
    if (memo == nullptr) {
      cost += PriceSlots(klass, slots, count);
    } else if (const double* hit = memo->Find(klass, slots, count)) {
      ++tl_eval_ops.memo_hits;
      cost += *hit;
    } else {
      const double server_cost = PriceSlots(klass, slots, count);
      memo->Insert(klass, slots, count, server_cost);
      cost += server_cost;
    }
  }
  const double aff = AffinityViolations(assignment);
  if (aff > 0) cost += aff * kAffinityPenalty;
  if (acct_.PricesMigration()) {
    for (int s = 0; s < num_slots; ++s) cost += acct_.MigrationCost(s, assignment[s]);
  }
  return cost;
}

void Evaluator::Load(const std::vector<int>& assignment) {
  const int num_slots = acct_.num_slots();
  assert(static_cast<int>(assignment.size()) == num_slots);
  ++epoch_;
  assignment_ = assignment;
  acct_.Clear();
  for (int s = 0; s < num_slots; ++s) acct_.Apply(assignment[s], s, +1.0);
  server_cost_.assign(max_servers_, 0.0);
  server_violation_.assign(max_servers_, 0.0);
  current_cost_ = 0;
  total_violation_ = 0;
  for (int j = 0; j < max_servers_; ++j) {
    RecomputeServer(j);
    current_cost_ += server_cost_[j];
    total_violation_ += server_violation_[j];
  }
  const double aff = AffinityViolations(assignment_);
  if (aff > 0) {
    current_cost_ += aff * kAffinityPenalty;
    total_violation_ += aff * kAffinityUnit;
  }
  for (int s = 0; s < num_slots; ++s) {
    if (acct_.PinOfSlot(s) >= 0 && acct_.PinOfSlot(s) != assignment_[s]) {
      current_cost_ += kPinPenalty;
      total_violation_ += 1.0;
    }
  }
  migration_cost_ = 0;
  if (acct_.PricesMigration()) {
    for (int s = 0; s < num_slots; ++s) {
      migration_cost_ += acct_.MigrationCost(s, assignment_[s]);
    }
    current_cost_ += migration_cost_;
  }
}

double Evaluator::MoveDelta(int slot, int to) const {
  ++tl_eval_ops.move_delta_ops;
  const int from = assignment_[slot];
  if (to == from) return 0.0;
  if (acct_.PinOfSlot(slot) >= 0 && to != acct_.PinOfSlot(slot)) {
    return kPinPenalty;
  }

  double delta = WhatIfServerCost(problem_, acct_, from, slot, -1.0) -
                 server_cost_[from] +
                 WhatIfServerCost(problem_, acct_, to, slot, +1.0) -
                 server_cost_[to];
  delta += (acct_.AffinityUnits(assignment_, slot, to) -
            acct_.AffinityUnits(assignment_, slot, from)) *
           kAffinityPenalty;
  delta += acct_.MigrationCost(slot, to) - acct_.MigrationCost(slot, from);
  return delta;
}

double Evaluator::MoveDeltaFloor(int slot, int to) const {
  const int from = assignment_[slot];
  if (to == from) return 0.0;
  if (acct_.PinOfSlot(slot) >= 0 && to != acct_.PinOfSlot(slot)) {
    return kPinPenalty;
  }
  if (acct_.ServerCount(to) != 0) {
    return -std::numeric_limits<double>::infinity();
  }
  // MoveDelta's expression with each what-if cost replaced by a bound on
  // it: `from` keeps at least the used-server term while other slots
  // remain and costs exactly 0.0 once the slot leaves it alone; `to`, empty
  // now, is used afterwards.
  const double from_floor =
      acct_.ServerCount(from) > 1 ? UsedServerFloor(from) : 0.0;
  double delta = from_floor - server_cost_[from] + UsedServerFloor(to) -
                 server_cost_[to];
  delta += (acct_.AffinityUnits(assignment_, slot, to) -
            acct_.AffinityUnits(assignment_, slot, from)) *
           kAffinityPenalty;
  delta += acct_.MigrationCost(slot, to) - acct_.MigrationCost(slot, from);
  return delta;
}

void Evaluator::MoveDeltaBatch(int slot, const std::vector<int>& targets,
                               std::vector<double>* deltas,
                               double cutoff) const {
  tl_eval_ops.move_delta_ops += static_cast<int64_t>(targets.size());
  deltas->resize(targets.size());
  if (targets.empty()) return;
  const int from = assignment_[slot];
  const int pin = acct_.PinOfSlot(slot);
  // From-side terms do not depend on the target. FP note: the scalar
  // MoveDelta evaluates ((A - B) + C) - D left to right; base = A - B
  // keeps that grouping, so each batched delta is bit-identical to its
  // scalar counterpart.
  const double base =
      WhatIfServerCost(problem_, acct_, from, slot, -1.0) - server_cost_[from];
  const double aff_from = acct_.AffinityUnits(assignment_, slot, from);
  const double mig_from = acct_.MigrationCost(slot, from);
  for (size_t i = 0; i < targets.size(); ++i) {
    const int to = targets[i];
    if (to == from) {
      (*deltas)[i] = 0.0;
      continue;
    }
    if (pin >= 0 && to != pin) {
      (*deltas)[i] = kPinPenalty;
      continue;
    }
    const double aff = (acct_.AffinityUnits(assignment_, slot, to) - aff_from) *
                       kAffinityPenalty;
    const double mig = acct_.MigrationCost(slot, to) - mig_from;
    if (acct_.ServerCount(to) == 0) {
      // The floor of MoveDeltaFloor on the exact from-side, in the same
      // operation order as the exact delta below.
      const double floor =
          base + UsedServerFloor(to) - server_cost_[to] + aff + mig;
      if (floor >= cutoff) {
        ++tl_eval_ops.floor_skips;
        (*deltas)[i] = floor;
        continue;
      }
    }
    (*deltas)[i] = base + WhatIfServerCost(problem_, acct_, to, slot, +1.0) -
                   server_cost_[to] + aff + mig;
  }
}

void Evaluator::ApplyMove(int slot, int to) {
  ++tl_eval_ops.apply_move_ops;
  ++epoch_;
  const int from = assignment_[slot];
  if (to == from) return;
  const double affinity_delta = acct_.AffinityUnits(assignment_, slot, to) -
                                acct_.AffinityUnits(assignment_, slot, from);
  const double migration_delta =
      acct_.MigrationCost(slot, to) - acct_.MigrationCost(slot, from);
  const double old_from = server_cost_[from];
  const double old_to = server_cost_[to];

  migration_cost_ += migration_delta;
  total_violation_ -= server_violation_[from] + server_violation_[to];

  acct_.Apply(from, slot, -1.0);
  acct_.Apply(to, slot, +1.0);
  assignment_[slot] = to;
  RecomputeServer(from);
  RecomputeServer(to);
  total_violation_ += server_violation_[from] + server_violation_[to];
  total_violation_ += affinity_delta * kAffinityUnit;

  // Each server is priced once, after the rows change. Apply's
  // `row + sign * slot` is the FP operation WhatIfServerCost composes, and
  // the terms are summed in MoveDelta's order, so for an unpinned slot the
  // cached cost moves by exactly MoveDelta(slot, to).
  double delta = ((server_cost_[from] - old_from) + server_cost_[to]) - old_to;
  delta += affinity_delta * kAffinityPenalty;
  delta += migration_delta;
  // MoveDelta prices any move off a pin as a flat kPinPenalty sentinel;
  // the cache keeps Load's accounting instead: one penalty and one
  // violation unit while the slot sits away from its pin.
  const int pin = acct_.PinOfSlot(slot);
  if (pin == from) {
    delta += kPinPenalty;
    total_violation_ += 1.0;
  } else if (pin == to) {
    delta -= kPinPenalty;
    total_violation_ -= 1.0;
  }
  current_cost_ += delta;
}

double Evaluator::ApplyPackage(const std::vector<int>& movers, int to) {
  ++tl_eval_ops.package_moves;
  assert(!movers.empty());
  const int from = assignment_[movers.front()];
  assert(to >= 0 && to < max_servers_ && to != from);

  // Snapshot everything the package changes before changing it.
  PackageSnapshot& snap = package_;
  snap.epoch = ++epoch_;
  snap.server[0] = from;
  snap.server[1] = to;
  const int samples = acct_.num_samples();
  for (int k = 0; k < 2; ++k) {
    const int j = snap.server[k];
    snap.rows[k].resize(static_cast<size_t>(kNumAxes) * samples);
    for (int a = 0; a < kNumAxes; ++a) {
      const double* row = acct_.ServerSeries(static_cast<Axis>(a), j);
      std::copy(row, row + samples,
                snap.rows[k].data() + static_cast<size_t>(a) * samples);
    }
    snap.ws[k] = acct_.ServerWs(j);
    snap.count[k] = acct_.ServerCount(j);
    snap.cost[k] = server_cost_[j];
    snap.violation[k] = server_violation_[j];
  }
  snap.movers = movers;
  snap.current_cost = current_cost_;
  snap.total_violation = total_violation_;
  snap.migration_cost = migration_cost_;

  // Rows and affinity/migration terms slot by slot, in the order a loop of
  // ApplyMove(s, to) takes them; each server is priced once, at the end.
  double affinity_delta = 0.0;
  double migration_delta = 0.0;
  for (int s : movers) {
    assert(assignment_[s] == from && acct_.PinOfSlot(s) < 0);
    affinity_delta += acct_.AffinityUnits(assignment_, s, to) -
                      acct_.AffinityUnits(assignment_, s, from);
    migration_delta += acct_.MigrationCost(s, to) - acct_.MigrationCost(s, from);
    acct_.Apply(from, s, -1.0);
    acct_.Apply(to, s, +1.0);
    assignment_[s] = to;
  }
  const double old_from = server_cost_[from];
  const double old_to = server_cost_[to];
  total_violation_ -= server_violation_[from] + server_violation_[to];
  RecomputeServer(from);  // an emptied server returns 0.0 before any pass
  RecomputeServer(to);
  total_violation_ += server_violation_[from] + server_violation_[to];
  total_violation_ += affinity_delta * kAffinityUnit;
  migration_cost_ += migration_delta;

  double delta = ((server_cost_[from] - old_from) + server_cost_[to]) - old_to;
  delta += affinity_delta * kAffinityPenalty;
  delta += migration_delta;
  current_cost_ += delta;
  return delta;
}

void Evaluator::UndoPackage() {
  assert(package_.epoch == epoch_ &&
         "UndoPackage needs the last call's snapshot");
  PackageSnapshot& snap = package_;
  for (int k = 0; k < 2; ++k) {
    const int j = snap.server[k];
    acct_.RestoreServer(j, snap.rows[k].data(), snap.ws[k], snap.count[k]);
    server_cost_[j] = snap.cost[k];
    server_violation_[j] = snap.violation[k];
  }
  for (int s : snap.movers) assignment_[s] = snap.server[0];
  current_cost_ = snap.current_cost;
  total_violation_ = snap.total_violation;
  migration_cost_ = snap.migration_cost;
  ++epoch_;
}

SwapQuote Evaluator::QuoteSwap(int a, int b) const {
  ++tl_eval_ops.swap_quotes;
  const int sa = assignment_[a];
  const int sb = assignment_[b];
  assert(acct_.PinOfSlot(a) < 0 && acct_.PinOfSlot(b) < 0);
  assert(sa != sb);
  SwapQuote q;
  q.slot[0] = a;
  q.slot[1] = b;
  q.server[0] = sa;
  q.server[1] = sb;
  q.epoch = epoch_;
  q.cost[0] = SwapServerCost(problem_, acct_, sa, a, b, &q.violation[0]);
  q.cost[1] = SwapServerCost(problem_, acct_, sb, b, a, &q.violation[1]);
  // AffinityUnits reads the assignment before the swap, so U(a, sb) counts
  // b and U(b, sa) counts a when the two are related: r(a, b) comes off
  // twice, as the pair stays on different servers.
  const int wa = acct_.WorkloadOfSlot(a);
  const int wb = acct_.WorkloadOfSlot(b);
  double related = wa == wb ? 1.0 : 0.0;
  for (int p : acct_.Partners(wa)) {
    if (p == wb) related += 1.0;
  }
  q.affinity_units = (acct_.AffinityUnits(assignment_, a, sb) -
                      acct_.AffinityUnits(assignment_, a, sa)) +
                     (acct_.AffinityUnits(assignment_, b, sa) -
                      acct_.AffinityUnits(assignment_, b, sb)) -
                     2.0 * related;
  q.migration_delta =
      (acct_.MigrationCost(a, sb) - acct_.MigrationCost(a, sa)) +
      (acct_.MigrationCost(b, sa) - acct_.MigrationCost(b, sb));
  double delta =
      ((q.cost[0] - server_cost_[sa]) + q.cost[1]) - server_cost_[sb];
  delta += q.affinity_units * kAffinityPenalty;
  delta += q.migration_delta;
  q.delta = delta;
  return q;
}

void Evaluator::ApplySwap(const SwapQuote& quote) {
  assert(quote.epoch == epoch_ && "ApplySwap needs a quote of this state");
  ++tl_eval_ops.swap_moves;
  ++epoch_;
  const int a = quote.slot[0];
  const int b = quote.slot[1];
  const int sa = quote.server[0];
  const int sb = quote.server[1];
  // The order SwapServerCost priced: each server's rows become
  // (row - out) + in.
  acct_.Apply(sa, a, -1.0);
  acct_.Apply(sa, b, +1.0);
  acct_.Apply(sb, b, -1.0);
  acct_.Apply(sb, a, +1.0);
  assignment_[a] = sb;
  assignment_[b] = sa;
  total_violation_ -= server_violation_[sa] + server_violation_[sb];
  for (int k = 0; k < 2; ++k) {
    server_cost_[quote.server[k]] = quote.cost[k];
    server_violation_[quote.server[k]] = quote.violation[k];
  }
  total_violation_ += server_violation_[sa] + server_violation_[sb];
  total_violation_ += quote.affinity_units * kAffinityUnit;
  migration_cost_ += quote.migration_delta;
  current_cost_ += quote.delta;
}

Evaluator::ServerLoad Evaluator::GetServerLoad(int j) const {
  ServerLoad out;
  const int count = acct_.ServerCount(j);
  out.used = count > 0;
  out.num_slots = std::max(0, count);
  out.violation = server_violation_[j];
  if (!out.used) return out;
  const double overhead = problem_.per_instance_cpu_overhead_cores;
  const double ram_overhead = static_cast<double>(problem_.instance_ram_overhead_bytes);
  const int samples = acct_.num_samples();
  const double* cpu = acct_.ServerSeries(Axis::kCpu, j);
  const double* ram = acct_.ServerSeries(Axis::kRam, j);
  out.cpu_cores.resize(samples);
  out.ram_bytes.resize(samples);
  for (int t = 0; t < samples; ++t) {
    out.cpu_cores[t] = cpu[t] + overhead;
    out.ram_bytes[t] = ram[t] + ram_overhead;
  }
  out.working_set_bytes = acct_.ServerWs(j);
  return out;
}

int Evaluator::MovesFromCurrent() const {
  if (!acct_.HasIncumbent()) return 0;
  int moves = 0;
  for (int s = 0; s < acct_.num_slots(); ++s) {
    if (assignment_[s] != acct_.CurrentServer(s)) ++moves;
  }
  return moves;
}

int Assignment::ServersUsed() const {
  std::vector<int> seen = server_of_slot;
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  return static_cast<int>(seen.size());
}

}  // namespace kairos::core
