#include "solve/portfolio.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "core/evaluator.h"

namespace kairos::solve {

namespace {

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

/// True when `a` should win over `b` (the deterministic tie-break).
bool Beats(const core::ConsolidationPlan& a, const core::ConsolidationPlan& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.objective != b.objective) return a.objective < b.objective;
  return a.servers_used < b.servers_used;
}

}  // namespace

std::vector<PortfolioSolverSpec> PortfolioRunner::DefaultSpecs(uint64_t seed) {
  return {{"greedy", seed},
          {"engine", seed},
          {"anneal", seed * 0x9E3779B97F4A7C15ULL + 1},
          {"tabu", seed * 0xBF58476D1CE4E5B9ULL + 2}};
}

PortfolioResult PortfolioRunner::Run(
    const core::ConsolidationProblem& problem,
    const std::vector<PortfolioSolverSpec>& specs) const {
  const auto start = std::chrono::steady_clock::now();
  PortfolioResult result;
  result.members.resize(specs.size());
  if (specs.empty()) return result;

  int threads = options_.threads;
  if (threads <= 0) {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    threads = std::max(1, hw > 0 ? std::min<int>(hw, specs.size())
                                 : static_cast<int>(specs.size()));
  }
  threads = std::min<int>(threads, specs.size());

  // Work queue over solver indices: T workers pop the next unstarted
  // solver. Which worker runs which solver is scheduling-dependent; the
  // result is not, because every solver is deterministic and isolated.
  // Each member gets its own trace track ("portfolio/<i>-<solver>"), so
  // exactly one thread ever writes it and the merged trace stays
  // deterministic regardless of scheduling.
  obs::Sink* const sink = options_.budget.sink;

  // Pre-intern every member's track plus the shared event name and cache
  // the counter handle once, so workers never take the intern/registry
  // locks or rebuild track-name strings per member.
  std::vector<uint32_t> member_tracks;
  uint32_t solver_name_id = 0;
  obs::Counter* members_run = nullptr;
  if (sink != nullptr) {
    member_tracks.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      member_tracks.push_back(sink->trace().InternTrack(
          "portfolio/" + std::to_string(i) + "-" + specs[i].solver));
    }
    solver_name_id = sink->trace().InternName("solver");
    members_run = sink->metrics().counter("portfolio.members_run");
  }

  std::atomic<int> next{0};
  const auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= static_cast<int>(specs.size())) return;
      PortfolioMemberResult& member = result.members[i];
      member.solver = specs[i].solver;
      member.seed = specs[i].seed;
      const auto solver_start = std::chrono::steady_clock::now();
      std::unique_ptr<Solver> solver =
          CreateSolver(specs[i].solver, specs[i].seed);
      if (solver) {
        obs::ScopedSpan member_span(sink, member_tracks.empty() ? 0
                                                                : member_tracks[i],
                                    solver_name_id, /*i0=*/i);
        core::ResetEvalOps();
        member.plan = solver->Solve(problem, options_.budget);
        core::FlushEvalOps(sink);
      }
      member.solve_seconds = Seconds(solver_start);
      if (members_run != nullptr) members_run->Add(1);
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  // Deterministic winner selection over the complete member results, in
  // spec order.
  for (size_t i = 0; i < result.members.size(); ++i) {
    const core::ConsolidationPlan& plan = result.members[i].plan;
    if (plan.assignment.server_of_slot.empty()) continue;  // unknown solver
    if (result.winner_index < 0 || Beats(plan, result.best)) {
      result.best = plan;
      result.winner_index = static_cast<int>(i);
      result.winner = result.members[i].solver;
    }
  }
  result.wall_seconds = Seconds(start);
  if (sink != nullptr) sink->Count("portfolio.runs");
  return result;
}

}  // namespace kairos::solve
