#include "online/controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "core/evaluator.h"

namespace kairos::online {

namespace {

/// Deterministic per-(solve, member) seed derivation.
uint64_t MixSeed(uint64_t seed, int solve_index, int member) {
  uint64_t x = seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(solve_index + 1));
  x += 0xBF58476D1CE4E5B9ULL * static_cast<uint64_t>(member + 1);
  return x == 0 ? 1 : x;
}

/// Accumulates the wall seconds of its scope into `*accum` on destruction.
/// A null `accum` makes it a no-op that never reads the clock, so the
/// unobserved path stays clock-free.
class ScopedAccumTimer {
 public:
  explicit ScopedAccumTimer(double* accum) : accum_(accum) {
    if (accum_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedAccumTimer() {
    if (accum_ != nullptr) {
      *accum_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    }
  }

 private:
  double* accum_;
  std::chrono::steady_clock::time_point start_;
};

/// Brackets one control step's evaluator ops on the control thread (the
/// forecast feasibility check and plan finalization; portfolio workers
/// bracket their own members). No-op without a sink.
struct EvalOpsScope {
  explicit EvalOpsScope(obs::Sink* s) : sink(s) {
    if (sink != nullptr) core::ResetEvalOps();
  }
  ~EvalOpsScope() {
    if (sink != nullptr) core::FlushEvalOps(sink);
  }
  obs::Sink* sink;
};

}  // namespace

ConsolidationController::ConsolidationController(const ControllerConfig& config)
    : config_(config),
      builder_(static_cast<int>(config.base.workloads.size()),
               static_cast<size_t>(config.window_samples),
               config.sample_interval_seconds),
      ingest_(&builder_, IngestOptions{config.ingest_threads,
                                       config.ingest_stripes}),
      drift_(config.drift) {
  assert(!config.base.workloads.empty());
  // A bounded fleet is the server pool; num_servers can only shrink it
  // (with an unbounded fleet the classic one-per-slot default applies).
  active_servers_ = config_.base.ServerCap(config.num_servers);
  // The template's series are dead weight (rolling profiles replace them in
  // every snapshot); drop them so per-control-step problem copies stay cheap.
  for (auto& w : config_.base.workloads) {
    w.cpu_cores = util::TimeSeries();
    w.ram_bytes = util::TimeSeries();
    w.update_rows_per_sec = util::TimeSeries();
    w.os_ram_bytes = util::TimeSeries();
    w.os_write_bytes_per_sec = util::TimeSeries();
  }
}

core::ConsolidationProblem ConsolidationController::SnapshotProblem() const {
  core::ConsolidationProblem problem = config_.base;
  problem.max_servers = active_servers_;
  problem.current_assignment.clear();
  problem.migration_cost_weight = 0.0;
  for (int w = 0; w < builder_.num_workloads(); ++w) {
    const monitor::WorkloadProfile rolling = builder_.Profile(w);
    problem.workloads[w].cpu_cores = rolling.cpu_cores;
    problem.workloads[w].ram_bytes = rolling.ram_bytes;
    problem.workloads[w].update_rows_per_sec = rolling.update_rows_per_sec;
    problem.workloads[w].working_set_bytes = rolling.working_set_bytes;
  }
  return problem;
}

std::vector<monitor::ProfileStats> ConsolidationController::CurrentStats() {
  std::vector<monitor::ProfileStats> stats(builder_.num_workloads());
  // Each stripe summarizes its own streams into disjoint result slots.
  ingest_.ForEachStripe([&](int, int begin, int end) {
    for (int w = begin; w < end; ++w) stats[w] = builder_.Stats(w);
  });
  return stats;
}

bool ConsolidationController::Ingest(const std::vector<TelemetrySample>& samples) {
  const bool observed = config_.sink != nullptr;
  if (observed) InternObsIds();
  {
    // Time only the telemetry -> rolling-profile path (the ROADMAP
    // samples/sec KPI measures ingestion, not the re-solves it triggers).
    ScopedAccumTimer timer(observed ? &ingest_seconds_accum_ : nullptr);
    if (!ingest_.IngestStep(samples)) return false;
  }
  if (observed) {
    obs_ingest_seconds_->Set(ingest_seconds_accum_);
    obs_steps_ingested_->Add(1);
    obs_samples_ingested_->Add(static_cast<int64_t>(samples.size()));
  }
  ++step_;
  if (static_cast<int>(builder_.samples_seen()) < config_.warmup_samples) {
    return true;
  }
  // The bootstrap solve happens at the first warmed-up step; afterwards
  // control runs every control_interval steps.
  if (!assignment_.empty() && config_.control_interval > 1 &&
      step_ % config_.control_interval != 0) {
    return true;
  }
  RunControl("");
  return true;
}

int ConsolidationController::RunToEnd(ReplayFeed* feed) {
  std::vector<TelemetrySample> samples;
  int steps = 0;
  while (feed->Next(&samples)) {
    if (Ingest(samples)) ++steps;
  }
  return steps;
}

bool ConsolidationController::DrainHighestServer() {
  if (active_servers_ <= 1) {
    last_drain_refusal_ = "refusing node drain: only one server remains";
    return false;
  }
  // The relabel below swaps server indices, which is only meaning-preserving
  // when every server is the same machine. Heterogeneous fleets drain whole
  // classes instead (DrainClass).
  if (!config_.base.fleet.Uniform()) {
    last_drain_refusal_ =
        "refusing node drain: fleet is not uniform (" +
        config_.base.fleet.Render() +
        "); the highest-server relabel assumes identical machines — use "
        "DrainClass(<class_index>) to retire a hardware generation";
    return false;
  }
  if (assignment_.empty()) {  // nothing placed yet: just shrink the fleet
    --active_servers_;
    last_drain_refusal_.clear();
    return true;
  }
  // Drain the highest-indexed server *in use*. Machines are homogeneous, so
  // relabel it as the fleet's top index (swap labels with active_servers_-1,
  // which the incumbent cannot use more heavily by definition), then shrink
  // the cap: its slots are stranded outside the cap and must evacuate.
  int drained = 0;
  for (int s : assignment_) drained = std::max(drained, s);
  const int top = active_servers_ - 1;
  // Pins name physical servers; relabeling would silently retarget them and
  // evacuating a pinned workload is never valid — refuse.
  for (const auto& w : config_.base.workloads) {
    if (w.pinned_server == drained || w.pinned_server == top) {
      last_drain_refusal_ = "refusing node drain: workload '" + w.name +
                            "' is pinned to server " +
                            std::to_string(w.pinned_server);
      return false;
    }
  }
  for (int& s : assignment_) {
    if (s == drained) {
      s = top;
    } else if (s == top) {
      s = drained;
    }
  }
  --active_servers_;
  last_drain_refusal_.clear();
  RunControl("node-drain");
  return true;
}

bool ConsolidationController::DrainClass(int class_index) {
  sim::FleetSpec& fleet = config_.base.fleet;
  if (class_index < 0 || class_index >= fleet.num_classes()) {
    last_drain_refusal_ = "refusing class drain: class index " +
                          std::to_string(class_index) + " is out of range";
    return false;
  }
  if (fleet.classes[class_index].drained) {
    last_drain_refusal_ = "refusing class drain: class '" +
                          fleet.classes[class_index].spec.name +
                          "' is already drained";
    return false;
  }
  // At least one usable (non-drained) server must remain within the cap.
  bool usable_remains = false;
  for (int j = 0; j < active_servers_; ++j) {
    const int klass = fleet.ClassOf(j);
    if (klass != class_index && !fleet.classes[klass].drained) {
      usable_remains = true;
      break;
    }
  }
  if (!usable_remains) {
    last_drain_refusal_ =
        "refusing class drain: no usable server would remain";
    return false;
  }
  // Evacuating a pinned workload is never valid: refuse, like the
  // single-server drain does.
  for (const auto& w : config_.base.workloads) {
    if (w.pinned_server >= 0 && fleet.ClassOf(w.pinned_server) == class_index) {
      last_drain_refusal_ = "refusing class drain: workload '" + w.name +
                            "' is pinned to server " +
                            std::to_string(w.pinned_server) + " of class '" +
                            fleet.classes[class_index].spec.name + "'";
      return false;
    }
  }
  fleet.classes[class_index].drained = true;
  last_drain_refusal_.clear();
  if (assignment_.empty()) return true;  // nothing placed yet
  // Server indices stay stable (unlike the homogeneous relabel trick): the
  // evaluator now penalizes every slot left on the class, so the forced
  // re-solve evacuates it and the migration planner sequences the moves.
  RunControl("class-drain:" + fleet.classes[class_index].spec.name);
  return true;
}

void ConsolidationController::InternObsIds() {
  if (obs_ids_ready_ || config_.sink == nullptr) return;
  obs::TraceSink& trace = config_.sink->trace();
  obs_track_ = trace.InternTrack("controller");
  obs_detect_ = trace.InternName("detect");
  obs_resolve_ = trace.InternName("resolve");
  obs_plan_ = trace.InternName("plan");
  obs_ledger_ = trace.InternName("ledger");
  obs_latency_ = trace.InternName("detect_to_migrate");
  obs::Registry& metrics = config_.sink->metrics();
  obs_resolves_ = metrics.counter("controller.resolves");
  obs_infeasible_ = metrics.counter("controller.infeasible_adoptions");
  obs_samples_ingested_ = metrics.counter("controller.samples_ingested");
  obs_steps_ingested_ = metrics.counter("controller.steps_ingested");
  obs_ingest_seconds_ = metrics.gauge("controller.ingest_seconds");
  obs_latency_hist_ = metrics.histogram(
      "controller.detect_to_migrate_seconds",
      {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0});
  obs_ids_ready_ = true;
}

double ConsolidationController::StageSeconds() const {
  if (config_.sink == nullptr) return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       stage_start_)
      .count();
}

void ConsolidationController::EmitStage(uint32_t name_id, int64_t value) {
  if (config_.sink == nullptr) return;
  config_.sink->trace().Emit(obs_track_, name_id, obs::EventKind::kPoint,
                             /*i0=*/step_, /*i1=*/value,
                             /*d0=*/StageSeconds());
}

void ConsolidationController::RunControl(const std::string& forced_reason) {
  // The detection clock starts here: every stage point of this control step
  // carries its offset from this instant, and detect_to_migrate is the
  // offset at which the migration plan was ready.
  if (config_.sink != nullptr) {
    InternObsIds();
    stage_start_ = std::chrono::steady_clock::now();
  }
  EvalOpsScope ops_scope(config_.sink);
  core::ConsolidationProblem problem = SnapshotProblem();
  if (assignment_.empty()) {
    EmitStage(obs_detect_, 1);
    Resolve(&problem, "bootstrap");
    return;
  }
  if (!forced_reason.empty()) {
    EmitStage(obs_detect_, 1);
    Resolve(&problem, forced_reason);
    return;
  }
  // Would the incumbent placement violate constraints on the live rolling
  // profiles? (The drained-server case never reaches here: entries are
  // always within the cap outside a forced drain re-solve.)
  bool forecast_violation = false;
  {
    core::Evaluator ev(problem, active_servers_);
    ev.Load(assignment_);
    forecast_violation = !ev.IsFeasible();
  }
  const DriftDecision decision = DetectDrift(forecast_violation);
  EmitStage(obs_detect_, decision.resolve ? 1 : 0);
  if (decision.resolve) Resolve(&problem, decision.reason);
}

DriftDecision ConsolidationController::DetectDrift(bool forecast_violation) {
  if (forecast_violation) {
    DriftDecision decision;
    decision.resolve = true;
    decision.reason = "violation-forecast";
    return decision;
  }
  if (!drift_.ScanEnabled(step_, static_cast<size_t>(builder_.num_workloads()))) {
    return {};
  }
  const std::vector<monitor::ProfileStats> stats = CurrentStats();
  // Each shard scans its own stripe concurrently into a disjoint slot, and
  // Decide folds the stripes in order: the same stream (and reason string)
  // at every stripe and thread count.
  std::vector<DriftScan> scans(ingest_.stripes().num_stripes());
  ingest_.ForEachStripe([&](int s, int begin, int end) {
    scans[s] = drift_.ScanRange(stats, begin, end);
  });
  return drift_.Decide(scans);
}

void ConsolidationController::Resolve(core::ConsolidationProblem* problem,
                                      const std::string& reason) {
  const std::vector<int> before = assignment_;

  solve::SolveBudget budget = config_.budget;
  budget.seed_assignment.clear();
  // Forward the controller's sink to the portfolio (incumbent curves per
  // member) unless the caller already attached one to the budget.
  if (config_.sink != nullptr && budget.sink == nullptr) {
    budget.sink = config_.sink;
  }
  if (config_.migration_aware && !before.empty()) {
    problem->current_assignment = before;
    problem->migration_cost_weight = config_.migration_cost_weight;
    // Warm seed for the solvers: entries stranded outside the cap (on a
    // drained server) are remapped deterministically; the move penalty
    // still charges them wherever they land.
    std::vector<int> seed = before;
    for (int& s : seed) {
      if (s >= active_servers_) s %= active_servers_;
    }
    budget.seed_assignment = std::move(seed);
  }

  std::vector<solve::PortfolioSolverSpec> specs;
  specs.reserve(config_.solvers.size());
  for (size_t i = 0; i < config_.solvers.size(); ++i) {
    specs.push_back({config_.solvers[i],
                     MixSeed(config_.seed, solves_, static_cast<int>(i))});
  }

  solve::PortfolioOptions options;
  options.threads = config_.threads;
  options.budget = budget;
  const solve::PortfolioResult result =
      solve::PortfolioRunner(options).Run(*problem, specs);
  ++solves_;
  EmitStage(obs_resolve_, result.winner_index);
  if (result.winner_index < 0) {
    // Only unknown solver names: no plan to adopt. Keep the incumbent, but
    // pull any stranded entries (a drained server's label) back inside the
    // cap so later forecast checks stay within Evaluator bounds.
    for (int& s : assignment_) {
      if (s >= active_servers_) s %= active_servers_;
    }
    return;
  }

  const core::ConsolidationPlan& plan = result.best;
  ControlEvent event;
  event.step = step_;
  event.reason = reason;
  event.winner = result.winner;
  event.servers_before =
      before.empty() ? 0 : core::Assignment{before}.ServersUsed();
  event.servers_after = plan.servers_used;
  event.feasible = plan.feasible;
  event.objective = plan.objective;
  event.migration_cost = plan.migration_cost;
  event.service_objective = plan.objective - plan.migration_cost;
  event.plan = plan.assignment.server_of_slot;

  MigrationPlan migration;
  if (!before.empty()) {
    migration = planner_.Plan(*problem, before, plan.assignment.server_of_slot);
    event.moves = migration.total_moves();
    event.stages = static_cast<int>(migration.stages.size());
    event.migration_safe = migration.safe;
  }
  // Stage timeline: the migration plan is ready ("plan"), its spill check
  // verdict is in ("ledger" — MigrationPlanner's CapacityLedger pass), and
  // the detection-to-migration latency is the offset at this instant. The
  // bootstrap placement has an empty (trivially safe) plan; it still closes
  // the timeline so every adopted plan reports a latency.
  EmitStage(obs_plan_, event.moves);
  EmitStage(obs_ledger_, event.migration_safe ? 1 : 0);
  if (config_.sink != nullptr) {
    const double latency = StageSeconds();
    config_.sink->trace().Emit(obs_track_, obs_latency_,
                               obs::EventKind::kPoint, /*i0=*/step_,
                               /*i1=*/event.moves, /*d0=*/latency);
    obs_latency_hist_->Observe(latency);
    obs_resolves_->Add(1);
    if (!event.feasible) obs_infeasible_->Add(1);
  }
  migration_plans_.push_back(std::move(migration));

  assignment_ = plan.assignment.server_of_slot;
  history_.push_back(std::move(event));
  drift_.Rebase(step_, CurrentStats());
}

int ConsolidationController::total_moves() const {
  int moves = 0;
  for (const auto& e : history_) moves += e.moves;
  return moves;
}

double ConsolidationController::last_service_objective() const {
  return history_.empty() ? 0.0 : history_.back().service_objective;
}

double ConsolidationController::CurrentServiceObjective() const {
  if (assignment_.empty()) return 0.0;
  const core::ConsolidationProblem problem = SnapshotProblem();
  core::Evaluator ev(problem, active_servers_);
  ev.Load(assignment_);
  return ev.current_cost();
}

std::string ConsolidationController::RenderHistory() const {
  std::ostringstream out;
  char line[192];
  for (const auto& e : history_) {
    std::snprintf(line, sizeof(line),
                  "step %03d reason=%s winner=%s servers %d->%d moves=%d "
                  "stages=%d safe=%s feasible=%s objective=%.4f "
                  "service=%.4f migration=%.4f plan=",
                  e.step, e.reason.c_str(), e.winner.c_str(), e.servers_before,
                  e.servers_after, e.moves, e.stages,
                  e.migration_safe ? "yes" : "no", e.feasible ? "yes" : "no",
                  e.objective, e.service_objective, e.migration_cost);
    out << line;
    for (size_t i = 0; i < e.plan.size(); ++i) {
      if (i > 0) out << ',';
      out << e.plan[i];
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace kairos::online
