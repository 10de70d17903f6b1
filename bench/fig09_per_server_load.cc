// Figure 9: per-server CPU (box plots) and RAM (max, the circles) for the
// ALL dataset consolidated onto the target machines.
//
// Expected shape (paper): load approximately balanced across servers; on
// every server either RAM or CPU is close enough to capacity that no two
// servers could be merged; a small safety margin (~5%) remains even on the
// most loaded machines.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "trace/dataset.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

int main(int argc, char** argv) {
  kairos::bench::BenchReporter reporter("fig09_per_server_load", argc, argv);
  using namespace kairos;
  bench::Banner("Figure 9: per-server CPU box plots and max RAM (ALL)");

  const model::DiskModel disk_model = bench::TargetDiskModel();
  trace::DatasetGenerator gen(bench::kSeed);
  core::ConsolidationProblem prob;
  prob.workloads = trace::ToProfiles(gen.GenerateAll());
  prob.disk_model = &disk_model;
  core::EngineOptions engine_options;
  engine_options.sink = reporter.sink();
  const core::ConsolidationPlan plan =
      core::ConsolidationEngine(prob, engine_options).Solve();

  const double cpu_cap = prob.fleet.classes[0].spec.StandardCores();
  const double ram_cap = static_cast<double>(prob.fleet.classes[0].spec.ram_bytes);

  const std::vector<core::Evaluator::ServerLoad> loads =
      bench::UsedServerLoads(prob, plan);
  util::Table table({"server", "tenants", "cpu min%", "q1%", "median%", "q3%",
                     "max%", "outliers", "max RAM %", "max RAM GB"});
  int mergeable_pairs = 0;
  std::vector<double> ram_pct, cpu_q3;
  for (size_t j = 0; j < loads.size(); ++j) {
    const auto& s = loads[j];
    std::vector<double> cpu_pct;
    for (double v : s.cpu_cores) cpu_pct.push_back(100.0 * v / cpu_cap);
    const util::BoxPlot box = util::MakeBoxPlot(cpu_pct);
    double ram_max = 0;
    for (double v : s.ram_bytes) ram_max = std::max(ram_max, v);
    ram_pct.push_back(100.0 * ram_max / ram_cap);
    cpu_q3.push_back(box.q3);
    table.AddRow({std::to_string(j + 1), std::to_string(s.num_slots),
                  util::FormatDouble(box.min, 1), util::FormatDouble(box.q1, 1),
                  util::FormatDouble(box.median, 1), util::FormatDouble(box.q3, 1),
                  util::FormatDouble(box.max, 1),
                  std::to_string(box.outliers.size()),
                  util::FormatDouble(ram_pct.back(), 1),
                  util::FormatDouble(ram_max / static_cast<double>(util::kGiB), 1)});
  }
  // Mergeability check: can any two servers be combined within RAM and CPU?
  for (size_t a = 0; a < loads.size(); ++a) {
    for (size_t b = a + 1; b < loads.size(); ++b) {
      const auto& sa = loads[a];
      const auto& sb = loads[b];
      bool fits = true;
      for (size_t t = 0; t < sa.cpu_cores.size() && fits; ++t) {
        if (sa.cpu_cores[t] + sb.cpu_cores[t] > 0.9 * cpu_cap) fits = false;
        if (sa.ram_bytes[t] + sb.ram_bytes[t] > 0.95 * ram_cap) fits = false;
      }
      if (fits) ++mergeable_pairs;
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nserver pairs that could still be merged (RAM+CPU): %d "
              "(paper: none — RAM or CPU always prevents merging)\n",
              mergeable_pairs);
  return reporter.WriteReport();
}
