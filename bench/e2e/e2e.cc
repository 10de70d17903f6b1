// bench_e2e: the end-to-end benchmark of kairos — plan, control and monitor
// workloads, each a closed loop with one client, measured from outside the
// library's public entry points.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace]
//             [--out=<file.json>]
//
// Workloads: plan-paper, plan-mixed-fleet, control-churn, monitor-fleet
// (see bench/e2e/README.md for what each runs and why). An untraced run
// prints the end-to-end metrics; --trace reruns the same work with layer
// spans attached and prints the per-layer metrics instead. Each metric goes
// to stdout as "<workload> <metric> <value> <unit>", followed by one JSON
// line {"correct", "attempted", "failed", "metrics"}. The process exits 1
// when any output check fails.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench/e2e/common.h"
#include "core/evaluator.h"
#include "obs/export.h"
#include "solve/solver.h"
#include "util/rng.h"

namespace kairos::e2e {

namespace {

using MetricTable = std::vector<std::pair<std::string, std::string>>;

const MetricTable& TableFor(bool trace) {
  return trace ? LayerMetrics() : EndToEndMetrics();
}

bool Known(const std::string& name) {
  for (bool trace : {false, true}) {
    for (const auto& row : TableFor(trace)) {
      if (row.first == name) return true;
    }
  }
  return false;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed;
  for (uint64_t v : {a, b}) {
    x += 0x9E3779B97F4A7C15ULL + v;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
  }
  return x == 0 ? 1 : x;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

const MetricTable& EndToEndMetrics() {
  static const MetricTable table = {
      {"setup_s", "s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<std::string>& PortfolioMembers() {
  static const std::vector<std::string> members = {"greedy", "engine", "anneal",
                                                   "tabu", "polish"};
  return members;
}

const MetricTable& LayerMetrics() {
  static const MetricTable table = [] {
    MetricTable t = {
        {"online.ingest.ns_per_sample", "ns"},
        {"online.stats.ns_per_stream", "ns"},
        {"online.drift.ns_per_stream", "ns"},
        {"online.drift.fired", "count"},
        {"online.controller.detect_ms_mean", "ms"},
        {"online.controller.check_ms_p50", "ms"},
        {"online.controller.check_ms_p90", "ms"},
        {"online.controller.resolves.bootstrap", "count"},
        {"online.controller.resolves.drift", "count"},
        {"online.controller.resolves.violation", "count"},
        {"online.controller.resolves.drain", "count"},
        {"online.migration.plan_ms_mean", "ms"},
        {"online.migration.moves", "count"},
        {"online.migration.stages", "count"},
        {"online.migration.bounces", "count"},
        {"online.migration.unsafe_plans", "count"},
        {"online.migration.moves_per_resolve", "moves"},
        {"online.migration.unsafe_plan_frac", "ratio"},
        {"solve.portfolio.run_ms_mean", "ms"},
        {"solve.portfolio.parallel_efficiency", "ratio"},
        {"solve.portfolio.fleet_cost_mean", "cost"},
        {"solve.portfolio.infeasible_frac", "ratio"},
    };
    for (const std::string& m : PortfolioMembers()) {
      t.push_back({"solve." + m + ".busy_s", "s"});
      t.push_back({"solve." + m + ".win_frac", "ratio"});
    }
    const MetricTable tail = {
        {"core.engine.probe_attempts", "count"},
        {"core.engine.budget_probes", "count"},
        {"core.engine.direct_evals", "count"},
        {"core.dimensioner.run_ms_mean", "ms"},
        {"core.evaluator.move_delta_ops", "count"},
        {"core.evaluator.evaluate_ops", "count"},
        {"core.evaluator.apply_move_ops", "count"},
        {"core.evaluator.ns_per_move_delta", "ns"},
        {"core.evaluator.ns_per_evaluate", "ns"},
        {"obs.trace_overhead_frac", "ratio"},
        {"obs.layer_coverage", "ratio"},
        {"obs.dropped_events", "count"},
    };
    t.insert(t.end(), tail.begin(), tail.end());
    return t;
  }();
  return table;
}

void Report::Set(const std::string& name, double value) {
  if (!Known(name)) {
    Check(false, "unknown metric " + name);
    return;
  }
  values_[name] = value;
}

void Report::Quality(const std::string& name, double value) {
  quality_.emplace_back(name, value);
}

void Report::Info(const std::string& name, double value) {
  info_.emplace_back(name, value);
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

double Report::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string Report::ResultJson(const Args& args) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : TableFor(args.trace)) {
    out << (first ? "" : ", ") << obs::JsonQuote(name) << ": {\"value\": "
        << Num(value(name)) << ", \"unit\": " << obs::JsonQuote(unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Report::Print(const Args& args) const {
  for (const auto& [name, unit] : TableFor(args.trace)) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), name.c_str(),
                Num(value(name)).c_str(), unit.c_str());
  }
  std::printf("%s\n", ResultJson(args).c_str());
  std::fflush(stdout);
}

bool Report::WriteJson(const Args& args, const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto pairs = [&](const std::vector<std::pair<std::string, double>>& kv) {
    out << "{";
    for (size_t i = 0; i < kv.size(); ++i) {
      out << (i ? ", " : "") << obs::JsonQuote(kv[i].first) << ": "
          << Num(kv[i].second);
    }
    out << "}";
  };
  out << "{\"workload\": " << obs::JsonQuote(args.workload)
      << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ",\n \"result\": " << ResultJson(args) << ",\n \"quality\": ";
  pairs(quality_);
  out << ",\n \"info\": ";
  pairs(info_);
  out << ",\n \"checks\": " << checks_ << ", \"check_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << obs::JsonQuote(failures_[i]);
  }
  out << "],\n \"sections\": [";
  for (size_t i = 0; i < sections_.size(); ++i) {
    const obs::ProfileEntry& e = sections_[i];
    out << (i ? ",\n   " : "") << "{\"name\": " << obs::JsonQuote(e.name)
        << ", \"count\": " << e.count << ", \"total_s\": " << Num(e.total_seconds)
        << ", \"self_s\": " << Num(e.self_seconds) << "}";
  }
  out << "],\n \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"build_type\": " << obs::JsonQuote(KAIROS_E2E_BUILD_TYPE)
      << ", \"compiler\": " << obs::JsonQuote(KAIROS_E2E_COMPILER)
      << ", \"loadavg\": " << obs::JsonQuote(LoadAvg()) << "}}\n";
  out.flush();
  return out.good();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

int64_t CounterValue(const obs::Sink& sink, const std::string& name) {
  for (const auto& [counter, value] : sink.metrics().Snapshot().counters) {
    if (counter == name) return value;
  }
  return 0;
}

void ReportTraceCoverage(Report* report, const obs::Profiler& profiler,
                         double untraced_wall_s, double traced_wall_s,
                         int64_t dropped_events) {
  double covered = 0;
  for (const obs::ProfileEntry& e : profiler.SectionProfile()) {
    covered += e.total_seconds;
    report->Section(e);
  }
  const double coverage = traced_wall_s > 0 ? covered / traced_wall_s : 0;
  report->Set("obs.trace_overhead_frac",
              untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s - 1 : 0);
  report->Set("obs.layer_coverage", coverage);
  report->Set("obs.dropped_events", static_cast<double>(dropped_events));
  report->Info("trace.untraced_wall_s", untraced_wall_s);
  report->Info("trace.traced_wall_s", traced_wall_s);
  report->Info("trace.uncovered_s", traced_wall_s - covered);
  report->Check(dropped_events == 0, "traced run dropped trace events");
  if (coverage < 0.9) {
    std::fprintf(stderr,
                 "note: layer coverage %.3f; %.3f s of the traced loop ran "
                 "outside any layer call (benchmark input generation and "
                 "output checks)\n",
                 coverage, traced_wall_s - covered);
  }
}

void EvaluatorCost::Measure(const core::ConsolidationProblem& problem,
                            const std::vector<int>& plan, uint64_t seed) {
  constexpr int kMoveDeltaCalls = 4000;
  constexpr int kEvaluateCalls = 40;
  const int cap = solve::HardCap(problem);
  core::Evaluator ev(problem, cap);
  ev.Load(plan);
  util::Rng rng(seed);
  std::vector<std::pair<int, int>> moves(kMoveDeltaCalls);
  for (auto& m : moves) {
    m.first = static_cast<int>(rng.UniformInt(0, ev.num_slots() - 1));
    m.second = static_cast<int>(rng.UniformInt(0, cap - 1));
  }
  auto start = Clock::now();
  for (const auto& m : moves) checksum += ev.MoveDelta(m.first, m.second);
  move_delta_s += SecondsSince(start);
  start = Clock::now();
  for (int e = 0; e < kEvaluateCalls; ++e) checksum += ev.Evaluate(plan);
  evaluate_s += SecondsSince(start);
  move_delta_calls += kMoveDeltaCalls;
  evaluate_calls += kEvaluateCalls;
}

void EvaluatorCost::SetMetrics(Report* report) const {
  report->Set("core.evaluator.ns_per_move_delta",
              move_delta_calls > 0 ? 1e9 * move_delta_s / move_delta_calls : 0);
  report->Set("core.evaluator.ns_per_evaluate",
              evaluate_calls > 0 ? 1e9 * evaluate_s / evaluate_calls : 0);
  report->Info("probe.evaluator_checksum", checksum);
}

}  // namespace kairos::e2e

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=<plan-paper|plan-mixed-fleet|"
               "control-churn|monitor-fleet> [--seed=<n>] [--seconds=<s>] "
               "[--trace] [--out=<file.json>]\n");
}

/// Value of `--name=<v>` or `--name <v>`; advances `*i` past a separate value.
bool FlagValue(int argc, char** argv, int* i, const char* name,
               std::string* value) {
  const size_t len = std::strlen(name);
  const char* arg = argv[*i];
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kairos::e2e;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--trace") == 0) {
      args.trace = true;
    } else if (FlagValue(argc, argv, &i, "--trace", &v)) {
      args.trace = v == "1";
    } else if (FlagValue(argc, argv, &i, "--workload", &v)) {
      args.workload = v;
    } else if (FlagValue(argc, argv, &i, "--seed", &v)) {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(argc, argv, &i, "--seconds", &v)) {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (FlagValue(argc, argv, &i, "--out", &v)) {
      args.out = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (!(args.seconds > 0)) {
    Usage();
    return 2;
  }

  // Blocks of 4 MB and up are mapped and unmapped on free: peak RSS then
  // counts live memory, not where glibc's adaptive threshold happened to
  // leave the heap top (which made it flip by 16 MB between runs).
  mallopt(M_MMAP_THRESHOLD, 4 << 20);

  Report report;
  try {
    if (args.workload == "plan-paper") {
      report = RunPlan(args, /*mixed_fleet=*/false);
    } else if (args.workload == "plan-mixed-fleet") {
      report = RunPlan(args, /*mixed_fleet=*/true);
    } else if (args.workload == "control-churn") {
      report = RunControl(args);
    } else if (args.workload == "monitor-fleet") {
      report = RunMonitor(args);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }

  report.Print(args);
  if (!args.out.empty() && !report.WriteJson(args, args.out)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}
