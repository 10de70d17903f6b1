// ConsolidationController: the serving control loop that keeps a
// consolidation plan current under live traffic —
//
//   telemetry -> rolling profiles -> drift detection -> migration-aware
//   re-solve (warm-started portfolio) -> staged migration plan
//
// One Ingest() per monitoring step. The controller bootstraps a plan once
// enough samples accumulated, then re-solves only when the drift detector
// fires (profile deviation or a forecast constraint violation) or when a
// server is drained. Every re-solve takes the same path: it extends the
// problem with the incumbent placement and a migration cost, warm-starts
// the whole solver portfolio from the incumbent, and sequences the
// winner's moves through the spill-checked MigrationPlanner.
//
// Determinism: fixed telemetry + ControllerConfig::seed give a
// byte-identical RenderHistory() regardless of portfolio thread count (every
// portfolio member stops only on its budget, so the winner is
// schedule-independent).
#ifndef KAIROS_ONLINE_CONTROLLER_H_
#define KAIROS_ONLINE_CONTROLLER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/problem.h"
#include "online/drift.h"
#include "online/ingest.h"
#include "online/migration.h"
#include "online/streaming_profile.h"
#include "online/telemetry.h"
#include "solve/portfolio.h"

namespace kairos::online {

struct ControllerConfig {
  /// Problem template: workload metadata (names, replicas, pins),
  /// anti-affinity pairs, target machine, headrooms, weights, disk model.
  /// Workload time series are ignored — rolling profiles replace them.
  core::ConsolidationProblem base;

  /// Servers available to place on (the fleet). 0 means one per slot.
  int num_servers = 0;

  /// Rolling profile length (samples) handed to each re-solve.
  int window_samples = 12;
  /// Monitoring step length (the rolling profiles' sampling interval).
  double sample_interval_seconds = 300.0;
  /// Drift is checked every `control_interval` ingested steps.
  int control_interval = 2;
  /// Samples required before the bootstrap solve.
  int warmup_samples = 6;

  DriftConfig drift;

  /// Migration-aware re-solving: warm-start from the incumbent and charge
  /// `migration_cost_weight` objective points per moved slot. false gives
  /// the cold-re-solve baseline (fresh solve, no move penalty).
  bool migration_aware = true;
  double migration_cost_weight = 25.0;

  /// Striped ingestion (online/ingest.h): every step goes through the
  /// controller's IngestPlane. ingest_threads > 1 runs each stripe's batch
  /// on the deterministic util::ThreadPool (<= 1 runs the stripes on the
  /// calling thread, with no pool); ingest_stripes = 0 picks
  /// StripeMap::AutoStripes from the stream count. Profiles, drift
  /// decisions, and RenderHistory() are byte-identical across every setting
  /// of both knobs: stripes own disjoint estimator state, the stripe map
  /// never depends on the thread count, and all reductions fold in
  /// sequential stripe order.
  int ingest_threads = 1;
  int ingest_stripes = 0;

  /// Portfolio raced at each re-solve (CreateSolver names).
  std::vector<std::string> solvers = {"polish", "greedy", "anneal", "tabu"};
  solve::SolveBudget budget = MakeDefaultBudget();
  /// Portfolio threads (0 = auto). Results are thread-count independent.
  int threads = 0;
  uint64_t seed = 1;

  /// Observability sink, nullable. When attached the controller records its
  /// per-stage timeline on track "controller" — "detect" / "resolve" /
  /// "plan" / "ledger" points per control step plus a "detect_to_migrate"
  /// latency per adopted plan — and forwards the sink to the re-solve
  /// portfolio (budget.sink) unless the budget already carries one. A null
  /// sink costs one predictable branch per stage; an attached one never
  /// touches an RNG stream, so RenderHistory() stays byte-identical with
  /// the observer on or off.
  obs::Sink* sink = nullptr;

  /// Re-solve budget sized for frequent incremental solves, not one-shot
  /// offline runs.
  static solve::SolveBudget MakeDefaultBudget() {
    solve::SolveBudget budget;
    budget.max_iterations = 8000;
    budget.direct_evaluations = 500;
    budget.probe_direct_evaluations = 250;
    budget.local_search_max_sweeps = 40;
    return budget;
  }
};

/// One control decision that led to a re-solve.
struct ControlEvent {
  int step = -1;
  std::string reason;  // "bootstrap", "drift:<w>", "violation-forecast", "node-drain"
  std::string winner;  // portfolio member that produced the plan
  int servers_before = 0;
  int servers_after = 0;
  /// Migration moves (0 for the bootstrap placement) and their staging.
  int moves = 0;
  int stages = 0;
  bool migration_safe = true;
  /// False when even the portfolio's best plan violates constraints (the
  /// controller still adopts it — serving degraded beats not serving — but
  /// the transcript makes it visible).
  bool feasible = true;
  double objective = 0;          ///< Includes the migration penalty.
  double service_objective = 0;  ///< objective minus the migration penalty.
  double migration_cost = 0;
  /// The placement adopted by this event (server per slot).
  std::vector<int> plan;
};

class ConsolidationController {
 public:
  explicit ConsolidationController(const ControllerConfig& config);

  /// Not copyable or movable: the ingest plane points at the builder.
  ConsolidationController(const ConsolidationController&) = delete;
  ConsolidationController& operator=(const ConsolidationController&) = delete;

  /// Feeds one monitoring step (one sample per workload, matching
  /// config.base.workloads order). May trigger a re-solve. Returns false,
  /// and changes nothing, when the step does not hold exactly one sample
  /// per workload.
  bool Ingest(const std::vector<TelemetrySample>& samples);

  /// Drains every step from `feed`; returns the number of steps ingested.
  int RunToEnd(ReplayFeed* feed);

  /// Retires the highest-indexed server *in use*: shrinks the fleet by one
  /// and forces an evacuating re-solve. Returns false without draining when
  /// only one server remains, a workload is pinned to an affected server
  /// (a pinned-server drain needs an operator decision, not a relabel), or
  /// the fleet mixes machine classes (the relabel trick assumes identical
  /// machines — use DrainClass for heterogeneous fleets).
  bool DrainHighestServer();

  /// Class-targeted drain ("evacuate all server1-generation nodes"): marks
  /// every server of fleet class `class_index` drained and forces an
  /// evacuating re-solve. Returns false without draining when the index is
  /// invalid or already drained, no usable server would remain, or a
  /// workload is pinned to a server of the class.
  bool DrainClass(int class_index);

  /// Why the last Drain* call refused (empty after a successful drain, or
  /// before any drain was attempted). The heterogeneous-fleet refusal of
  /// DrainHighestServer names the class mix and points at DrainClass.
  const std::string& last_drain_refusal() const { return last_drain_refusal_; }

  /// Incumbent placement (empty before the bootstrap solve).
  const std::vector<int>& assignment() const { return assignment_; }
  int active_servers() const { return active_servers_; }
  int steps_ingested() const { return step_ + 1; }

  const std::vector<ControlEvent>& history() const { return history_; }
  const std::vector<MigrationPlan>& migration_plans() const {
    return migration_plans_;
  }
  /// Migration moves across all re-solves (bootstrap placement excluded).
  int total_moves() const;
  /// Service objective of the last re-solve (0 before bootstrap).
  double last_service_objective() const;
  /// Placement quality of the incumbent on the *current* rolling profiles,
  /// with no migration term (0 before bootstrap). The metric the
  /// aware-vs-cold comparison is asserted and reported on.
  double CurrentServiceObjective() const;

  /// Deterministic transcript: one line per control event plus the plan
  /// vector — byte-identical for fixed telemetry, config, and seed.
  std::string RenderHistory() const;

  /// The problem the controller would solve right now (rolling profiles
  /// merged into the template). Exposed for tests and reporting.
  core::ConsolidationProblem SnapshotProblem() const;

 private:
  void RunControl(const std::string& forced_reason);
  /// The one re-solve path (bootstrap, drift, violation forecast, drains):
  /// races the warm-started portfolio on `problem` and adopts the winner —
  /// control event, staged migration plan, stage timeline, counters, drift
  /// rebase.
  void Resolve(core::ConsolidationProblem* problem, const std::string& reason);
  std::vector<monitor::ProfileStats> CurrentStats();
  /// Drift check for the current step: a violation forecast fires at once
  /// (ignoring the cooldown); otherwise per-stripe ScanRange on the ingest
  /// plane, folded in stripe order.
  DriftDecision DetectDrift(bool forecast_violation);

  /// Lazily interns the controller's trace ids (no-op without a sink).
  void InternObsIds();
  /// Seconds since the current control step's detection clock started
  /// (0 without a sink).
  double StageSeconds() const;
  /// Emits one stage point on track "controller": i0 = step, i1 = `value`,
  /// d0 = StageSeconds() — the stage's offset in the detection-to-migration
  /// timeline. One branch when no sink is attached.
  void EmitStage(uint32_t name_id, int64_t value);

  ControllerConfig config_;
  StreamingProfileBuilder builder_;
  IngestPlane ingest_;  ///< Built after, and pointing at, builder_.
  DriftDetector drift_;
  MigrationPlanner planner_;

  // Controller trace ids and metric handles (single control thread: the
  // "controller" track has one writer by construction). Handles are cached
  // at first use so per-step/per-resolve paths never re-intern names or
  // take the registry lock.
  bool obs_ids_ready_ = false;
  uint32_t obs_track_ = 0;
  uint32_t obs_detect_ = 0;
  uint32_t obs_resolve_ = 0;
  uint32_t obs_plan_ = 0;
  uint32_t obs_ledger_ = 0;
  uint32_t obs_latency_ = 0;
  obs::Counter* obs_resolves_ = nullptr;
  obs::Counter* obs_infeasible_ = nullptr;
  obs::Counter* obs_samples_ingested_ = nullptr;
  obs::Counter* obs_steps_ingested_ = nullptr;
  obs::Gauge* obs_ingest_seconds_ = nullptr;
  obs::Histogram* obs_latency_hist_ = nullptr;
  double ingest_seconds_accum_ = 0;
  std::chrono::steady_clock::time_point stage_start_;

  int step_ = -1;
  int active_servers_ = 0;
  int solves_ = 0;
  std::string last_drain_refusal_;
  std::vector<int> assignment_;
  std::vector<ControlEvent> history_;
  std::vector<MigrationPlan> migration_plans_;
};

}  // namespace kairos::online

#endif  // KAIROS_ONLINE_CONTROLLER_H_
