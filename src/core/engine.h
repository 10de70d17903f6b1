// The consolidation engine (Sections 5-6): solves the mixed-integer
// nonlinear program with the DIRECT global optimizer, accelerated by a
// binary search on the server count K between the fractional lower bound
// and a greedy upper bound, and polished with a discrete local search (the
// paper's "polishing" around the incumbent).
#ifndef KAIROS_CORE_ENGINE_H_
#define KAIROS_CORE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/problem.h"
#include "obs/sink.h"
#include "util/rng.h"

namespace kairos::core {

/// Solver budgets and switches.
struct EngineOptions {
  uint64_t seed = 1;
  /// DIRECT evaluation budget for the final bounded-K solve.
  int direct_evaluations = 4000;
  /// DIRECT evaluation budget per binary-search feasibility probe.
  int probe_direct_evaluations = 800;
  /// Local-search sweep cap (each sweep tries every slot against every
  /// server, plus a swap pass).
  int local_search_max_sweeps = 60;
  /// Section 6 optimization: binary search on K. On a fleet that mixes
  /// machine classes the search runs on the fleet-cost budget instead
  /// (core::FleetDimensioner): the declaration-order prefix [0, K) can never
  /// open a cheaper class declared late. Disable to solve the full space
  /// directly (the ablation of the solver-performance experiment).
  bool use_bounded_k = true;

  /// Observability sink (metrics + trace), nullable. When attached the
  /// engine records every feasibility probe ("probe"/"budget_probe"
  /// events, probe-granular — MoveDelta stays un-instrumented) and its
  /// incumbent improvements; when null each instrumented site costs one
  /// predictable branch. An attached sink never perturbs the RNG streams:
  /// results are bit-identical with the observer on or off.
  obs::Sink* sink = nullptr;
  /// Trace-track prefix for this engine's events (the track is
  /// "<obs_label>/<seed>"), so wrappers like the portfolio's polish solver
  /// stay distinguishable in one merged trace.
  std::string obs_label = "engine";
};

/// Output of one engine run.
struct ConsolidationPlan {
  Assignment assignment;
  bool feasible = false;
  int servers_used = 0;
  double objective = 0;
  /// Source servers (slots) per consolidated server.
  double consolidation_ratio = 0;
  /// Sum of the used servers' machine-class cost weights (== servers_used
  /// for a homogeneous weight-1 fleet): the fleet-cost objective the
  /// heterogeneous benches compare on.
  double fleet_cost = 0;
  /// Used-server count per fleet class, indexed like fleet.classes.
  std::vector<int> class_servers_used;
  /// Class names for Render(), one per fleet class (the per-class breakdown
  /// is only rendered when there is more than one).
  std::vector<std::string> class_names;
  int fractional_lower_bound = 0;
  /// Greedy baseline server count (-1 when greedy found nothing feasible).
  int greedy_servers = -1;
  /// Budget/mix probes the cost-based dimensioner ran (0 on uniform fleets
  /// and without bounded-K).
  int budget_probes = 0;
  /// Per-class server counts of the dimensioner's chosen mix — what the
  /// budget search *bought* (class_servers_used is what the plan occupies).
  /// Empty when the plan did not come from cost-based dimensioning.
  std::vector<int> chosen_class_counts;
  /// Per-used-server load summaries, indexed densely (only used servers).
  std::vector<Evaluator::ServerLoad> server_loads;
  /// Migration penalty included in `objective` (0 unless the problem
  /// carries an incumbent placement); objective - migration_cost is the
  /// pure placement-quality ("service") objective.
  double migration_cost = 0;
  /// Slots placed away from the problem's current_assignment.
  int moves_from_current = 0;
  double solve_seconds = 0;
  int solver_evaluations = 0;
  /// Feasibility probes attempted (count-prefix ProbeK plus cost-budget
  /// ProbeServers calls). With solve_seconds this yields the probe rate
  /// Render() reports.
  int probe_attempts = 0;
  /// True when this plan came from the exact branch-and-bound solver (the
  /// fields below are only meaningful — and only rendered — then).
  bool exact_search = false;
  /// True when the exact search exhausted its tree within budget: the plan
  /// is a global optimum of the encoding up to the search's 1e-7 relative
  /// pruning slack, and optimality_gap is exactly 0.
  bool proved_optimal = false;
  /// Search-tree nodes (placements) the exact solver expanded.
  int64_t exact_nodes = 0;
  /// Upper bound on objective - optimum when the search was truncated by
  /// its node/time budget (0 when proved_optimal).
  double optimality_gap = 0;

  /// Human-readable summary.
  std::string Render() const;
};

/// Solves ConsolidationProblems.
class ConsolidationEngine {
 public:
  ConsolidationEngine(const ConsolidationProblem& problem, const EngineOptions& options);

  /// Runs the full pipeline and returns the best plan found.
  ConsolidationPlan Solve();

  /// Tries to find a feasible assignment using at most `k` servers within
  /// the probe budget. Exposed for the solver-performance experiments.
  bool ProbeK(int k, int direct_budget, Assignment* out);

  /// Tries to find a feasible assignment restricted to exactly `servers`
  /// (an explicit multiset of the index space — the cost-based
  /// dimensioner's probe; pinned servers must be included by the caller).
  /// Unused members cost nothing, so the probe minimizes within the subset.
  bool ProbeServers(const std::vector<int>& servers, int direct_budget,
                    Assignment* out);

  /// The final polish phase: local search around `incumbent` at `k`
  /// servers (plus a DIRECT pass when bounded-K is enabled), returning the
  /// fully reported plan. Exposed so portfolio solvers can polish a seed
  /// produced elsewhere. A non-null `targets` restricts every move and the
  /// DIRECT encoding to that server subset (cost-budget dimensioning);
  /// null keeps the classic fleet-wide polish.
  ConsolidationPlan PolishPlan(const Assignment& incumbent, int k,
                               const std::vector<int>* targets = nullptr);

 private:
  /// The un-instrumented probe body behind ProbeK (`servers` null: the
  /// count prefix [0, k)) and ProbeServers (`servers` the subset, `k` the
  /// server cap): a greedy seed plus local search, then DIRECT to the
  /// feasibility threshold plus a repair pass.
  bool ProbeImpl(int k, const std::vector<int>* servers, int direct_budget,
                 Assignment* out);
  /// Counts one probe attempt and, with a sink attached, emits its "probe"
  /// point (i0 = `size`, d0 = DIRECT evaluations since `evals_before`).
  void RecordProbe(int64_t size, bool feasible, int evals_before);

  /// Interned trace ids for this engine's track, lazily created on the
  /// first instrumented event (the engine is internally single-threaded).
  uint32_t ObsTrack();
  /// Emits an "incumbent" point (i0 = DIRECT evaluations so far) when a
  /// sink is attached; single branch otherwise.
  void EmitIncumbent(double objective, bool feasible);

  /// First-improvement local search with an extra swap pass. A non-null
  /// `targets` restricts relocation targets and swap endpoints to that
  /// subset; null uses the fleet's placement mask (the classic scan).
  void LocalSearch(Evaluator* ev, int max_sweeps, util::Rng* rng,
                   const std::vector<int>* targets = nullptr);

  /// DIRECT over the slot->server encoding with `ev->max_servers()`
  /// servers, scored by `ev`'s one-shot Evaluate: only its scratch is
  /// touched, never its Load state, so the caller's probe or polish
  /// evaluator serves. A non-null `targets` overrides the fleet placement
  /// mask with an explicit subset.
  Assignment RunDirect(Evaluator* ev, int budget, double target_value,
                       int* evals_out,
                       const std::vector<int>* targets = nullptr);

  const ConsolidationProblem& problem_;
  EngineOptions options_;
  int evaluations_ = 0;
  int probe_attempts_ = 0;
  uint32_t obs_track_ = kNoObsTrack;

  static constexpr uint32_t kNoObsTrack = 0xFFFFFFFFu;
};

/// Evaluates `assignment` at `k` servers and fills a fully reported plan
/// (feasibility, objective, ratio, per-server loads). Shared by the engine
/// and the solve/ portfolio so every solver reports plans identically.
ConsolidationPlan FinalizePlan(const ConsolidationProblem& problem,
                               const std::vector<int>& assignment, int k);

}  // namespace kairos::core

#endif  // KAIROS_CORE_ENGINE_H_
