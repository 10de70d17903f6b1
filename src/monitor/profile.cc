#include "monitor/profile.h"

#include <algorithm>
#include <vector>

#include "util/stats.h"

namespace kairos::monitor {

namespace {

double Mean(WindowSpan s) {
  if (s.size == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < s.size; ++i) sum += s.data[i];
  return sum / static_cast<double>(s.size);
}

double Max(WindowSpan s) {
  return s.size == 0 ? 0.0 : *std::max_element(s.data, s.data + s.size);
}

double P95(WindowSpan s) {
  return util::PercentileInPlace(s.data, s.data + s.size, 95.0);
}

}  // namespace

ProfileStats SummarizeWindow(WindowSpan cpu_cores, WindowSpan ram_bytes,
                             WindowSpan update_rows_per_sec,
                             double working_set_bytes) {
  // Mean and peak read the spans before P95 reorders them.
  ProfileStats stats;
  stats.mean_cpu_cores = Mean(cpu_cores);
  stats.peak_cpu_cores = Max(cpu_cores);
  stats.p95_cpu_cores = P95(cpu_cores);
  stats.mean_ram_bytes = Mean(ram_bytes);
  stats.peak_ram_bytes = Max(ram_bytes);
  stats.p95_ram_bytes = P95(ram_bytes);
  stats.p95_update_rows_per_sec = P95(update_rows_per_sec);
  stats.working_set_bytes = working_set_bytes;
  return stats;
}

ProfileStats Summarize(const WorkloadProfile& profile) {
  const std::vector<double>& cpu = profile.cpu_cores.values();
  const std::vector<double>& ram = profile.ram_bytes.values();
  const std::vector<double>& rate = profile.update_rows_per_sec.values();
  std::vector<double> scratch;
  scratch.reserve(cpu.size() + ram.size() + rate.size());
  scratch.insert(scratch.end(), cpu.begin(), cpu.end());
  scratch.insert(scratch.end(), ram.begin(), ram.end());
  scratch.insert(scratch.end(), rate.begin(), rate.end());
  double* data = scratch.data();
  return SummarizeWindow({data, cpu.size()}, {data + cpu.size(), ram.size()},
                         {data + cpu.size() + ram.size(), rate.size()},
                         profile.working_set_bytes);
}

}  // namespace kairos::monitor
