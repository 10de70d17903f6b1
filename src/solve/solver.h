// The pluggable Placer interface of the solver portfolio (ROADMAP: race
// multiple strategies instead of betting on one algorithm, in the spirit of
// solver-portfolio architectures). A Solver turns a ConsolidationProblem
// into a ConsolidationPlan within a budget, publishing incumbents to a
// SharedIncumbent so sibling solvers can early-stop.
//
// Implementations must be deterministic: the returned plan is a pure
// function of (problem, budget, seed). The incumbent is write/poll-only
// (see shared_incumbent.h), so thread scheduling never changes results.
#ifndef KAIROS_SOLVE_SOLVER_H_
#define KAIROS_SOLVE_SOLVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/problem.h"
#include "solve/shared_incumbent.h"

namespace kairos::solve {

/// Work limits for one Solve() call. Iteration/evaluation budgets (not
/// wall-clock) so results are machine-independent and reproducible.
struct SolveBudget {
  /// Move budget for the metaheuristics (SA, tabu).
  int max_iterations = 30000;
  /// DIRECT evaluation budget for the engine adapter's final solve.
  int direct_evaluations = 4000;
  /// DIRECT evaluation budget per engine feasibility probe.
  int probe_direct_evaluations = 800;
  /// Local-search sweep cap for the engine adapter.
  int local_search_max_sweeps = 60;
  /// Node budget for the "exact" branch-and-bound solver (one node per
  /// attempted placement). The deterministic primary limit: large
  /// instances return the warm-start incumbent plus a gap bound instead of
  /// running away.
  int64_t exact_max_nodes = 50000;
  /// Optional wall-clock cap for "exact" (seconds; 0 disables). Off by
  /// default so results stay machine-independent.
  double exact_max_seconds = 0.0;
  /// Warm-start seed (one server index per slot, all within [0, HardCap)).
  /// When valid, the metaheuristics and the "polish" solver start from it
  /// instead of the greedy packing whenever it scores no worse; empty means
  /// cold start. The online controller seeds this with its incumbent plan.
  std::vector<int> seed_assignment;
  /// Observability sink shared by every portfolio member, nullable. Solvers
  /// record incumbent-improvement curves ("incumbent" events on track
  /// "<name>/<seed>") at iteration granularity; a null sink costs one
  /// predictable branch per improvement and an attached one never touches
  /// any RNG stream (plans stay bit-identical with the observer on or off).
  obs::Sink* sink = nullptr;
};

/// Upper bound on server indices a solver may use (the problem's
/// max_servers, or one server per slot when unset, further capped by a
/// bounded fleet).
int HardCap(const core::ConsolidationProblem& problem);

/// Unpinned slots currently placed on `server` in `ev`'s loaded assignment
/// (the move set of the metaheuristics' cross-class "re-class" neighborhood).
std::vector<int> MovableSlotsOn(const core::Evaluator& ev, int server);

/// Empty, non-drained servers of a *different* machine class than `from`:
/// the candidate targets of a re-class move (migrating one server's whole
/// payload onto another hardware generation).
std::vector<int> EmptyCrossClassServers(const core::ConsolidationProblem& problem,
                                        const core::Evaluator& ev, int from);

/// True when `seed` can warm-start the problem at `cap` servers: one entry
/// per slot, every entry in [0, cap).
bool ValidSeedAssignment(const core::ConsolidationProblem& problem, int cap,
                         const std::vector<int>& seed);

/// The start assignment for seeded solvers: the budget's warm seed when
/// valid and no costlier than the multi-resource greedy packing (ties keep
/// the warm seed, so an incumbent-quality start is never thrown away),
/// otherwise the greedy packing.
core::Assignment StartAssignment(const core::ConsolidationProblem& problem,
                                 int cap, const SolveBudget& budget);

/// A portfolio member. Implementations should poll
/// `incumbent->ShouldStop()` periodically and return their best-so-far when
/// it fires, and publish improving plans via `incumbent->Offer()`.
/// `incumbent` may be null for standalone use.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry key / report label.
  virtual std::string name() const = 0;

  virtual core::ConsolidationPlan Solve(const core::ConsolidationProblem& problem,
                                        const SolveBudget& budget,
                                        SharedIncumbent* incumbent) = 0;
};

/// Builds a solver from a deterministic seed.
using SolverFactory = std::function<std::unique_ptr<Solver>(uint64_t seed)>;

/// String-keyed solver factory registry. Global() comes pre-populated with
/// the built-ins: "greedy", "greedy-multi", "engine", "anneal", "tabu",
/// "polish", "sharded", "exact".
/// Thread-safe: registration and lookup may race with in-flight portfolio
/// runs.
class SolverRegistry {
 public:
  /// The process-wide registry (built-ins registered on first use).
  static SolverRegistry& Global();

  /// Registers a factory under `name`; returns false (and leaves the
  /// existing entry) when the name is taken.
  bool Register(const std::string& name, SolverFactory factory);

  /// Instantiates `name` with `seed`; null when unknown.
  std::unique_ptr<Solver> Create(const std::string& name, uint64_t seed) const;

  bool Contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  bool ContainsLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, SolverFactory>> entries_;
};

/// Sorted names of every solver in SolverRegistry::Global() — use this to
/// enumerate the portfolio instead of hard-coding built-in names, so newly
/// registered strategies are picked up automatically.
std::vector<std::string> RegisteredSolverNames();

}  // namespace kairos::solve

#endif  // KAIROS_SOLVE_SOLVER_H_
