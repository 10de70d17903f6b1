// Shared plumbing of the end-to-end benchmark (bench/e2e): command-line
// arguments, seed derivation, quantiles, the metric tables every workload
// reports against, and the Report each workload fills in.
//
// The benchmark drives only public entry points of the online, solve and
// core layers and times every call from outside. It deliberately does not
// include bench/bench_common.h, so the other benches can change without
// moving these numbers.
#ifndef KAIROS_BENCH_E2E_COMMON_H_
#define KAIROS_BENCH_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "obs/profile.h"
#include "obs/sink.h"

namespace kairos::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Portfolio and controller solver threads (the benchmark host has 4 cores).
inline constexpr int kThreads = 4;
/// Untraced runs set their inputs up this many times and report the median.
inline constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 2026;
  /// Measured loop length. A traced run splits it: half untraced, then the
  /// same work again traced.
  double seconds = 25;
  bool trace = false;
  std::string out;  ///< Optional JSON record path.
};

/// Stop rule of the round-based loops (a round solves or replays one input
/// of each kind). Runs exactly `rounds` rounds when `rounds` > 0; otherwise
/// at least `min_rounds`, then stops at the round boundary nearest to
/// `seconds`, so the measured time does not overshoot by half a round on
/// average.
class RoundClock {
 public:
  RoundClock(double seconds, int rounds, int min_rounds)
      : seconds_(seconds), rounds_(rounds), min_rounds_(min_rounds) {}

  /// Call before round `r`; false ends the loop.
  bool Continue(int r) {
    const double now = elapsed();
    const double last_round = now - round_start_;
    round_start_ = now;
    if (rounds_ > 0) return r < rounds_;
    return r < min_rounds_ || now + last_round / 2 < seconds_;
  }
  double elapsed() const { return SecondsSince(start_); }

 private:
  double seconds_;
  int rounds_;
  int min_rounds_;
  Clock::time_point start_ = Clock::now();
  double round_start_ = 0;
};

/// splitmix64 over (seed, a, b): every input of a run derives from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Metric name -> unit. The end-to-end table is what an untraced run
/// prints, the per-layer table what a traced run prints; every workload
/// reports every row (0 where a layer is not on the workload's path).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// The per-portfolio-member rows of LayerMetrics ("solve.<member>.*").
const std::vector<std::string>& PortfolioMembers();

/// Outcome of one workload run.
class Report {
 public:
  /// Sets a metric from EndToEndMetrics() or LayerMetrics(); an unknown
  /// name is recorded as a failed check.
  void Set(const std::string& name, double value);
  /// Deterministic output summary (a pure function of the seed), compared
  /// exactly across runs by run.py --compare.
  void Quality(const std::string& name, double value);
  /// Context for the JSON record (sample counts, loop walls, ...).
  void Info(const std::string& name, double value);
  /// Records an output check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Adds one timed top-level layer section of the traced pass.
  void Section(const obs::ProfileEntry& entry) { sections_.push_back(entry); }

  /// Operations issued and operations whose output was wrong or infeasible.
  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const { return failures_.empty() && failed == 0; }

  /// Prints one "<workload> <metric> <value> <unit>" line per metric of the
  /// run's table, then the one-line JSON result.
  void Print(const Args& args) const;
  /// Writes the JSON record (result, quality, info, sections, host).
  bool WriteJson(const Args& args, const std::string& path) const;

 private:
  double value(const std::string& name) const;
  std::string ResultJson(const Args& args) const;

  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, double>> quality_;
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::string> failures_;
  int64_t checks_ = 0;
  std::vector<obs::ProfileEntry> sections_;
};

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

/// A sink counter's value (0 when it was never registered).
int64_t CounterValue(const obs::Sink& sink, const std::string& name);

/// Records the obs.* rows of a traced pass: overhead against the untraced
/// pass over the same work, top-level section coverage of the traced wall
/// (each section is one call into a layer), and dropped trace events (which
/// fail the run).
void ReportTraceCoverage(Report* report, const obs::Profiler& profiler,
                         double untraced_wall_s, double traced_wall_s,
                         int64_t dropped_events);

/// Standalone evaluator unit costs, accumulated over captured problems.
struct EvaluatorCost {
  double move_delta_s = 0;
  double evaluate_s = 0;
  int64_t move_delta_calls = 0;
  int64_t evaluate_calls = 0;
  double checksum = 0;  ///< Keeps the timed results live.

  /// Loads `plan` into a fresh Evaluator of `problem` at solve::HardCap and
  /// times a fixed seeded sequence of MoveDelta calls and repeated Evaluate
  /// calls of the plan.
  void Measure(const core::ConsolidationProblem& problem,
               const std::vector<int>& plan, uint64_t seed);
  /// Sets core.evaluator.ns_per_move_delta / ns_per_evaluate.
  void SetMetrics(Report* report) const;
};

Report RunPlan(const Args& args, bool mixed_fleet);
Report RunControl(const Args& args);
Report RunMonitor(const Args& args);

}  // namespace kairos::e2e

#endif  // KAIROS_BENCH_E2E_COMMON_H_
