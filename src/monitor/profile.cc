#include "monitor/profile.h"

#include <algorithm>
#include <vector>

#include "util/stats.h"

namespace kairos::monitor {

namespace {

/// One signal's share of the fingerprint.
struct AxisStats {
  double mean = 0.0;
  double peak = 0.0;
  double p95 = 0.0;
};

/// Reads a non-empty window view oldest first, summing for the mean and
/// keeping the peak as it goes.
class WindowPass {
 public:
  explicit WindowPass(const WindowView& v)
      : base_(v.base),
        stride_(v.stride),
        size_(v.size),
        end_(v.size * v.stride),
        at_(v.oldest * v.stride),
        peak_(v.base[at_]) {}

  double Next() {
    const double x = base_[at_];
    at_ += stride_;
    at_ = at_ == end_ ? 0 : at_;
    sum_ += x;
    peak_ = std::max(peak_, x);
    return x;
  }

  AxisStats Finish(double p95) const {
    return {sum_ / static_cast<double>(size_), peak_, p95};
  }

 private:
  const double* base_;
  size_t stride_;
  size_t size_;
  size_t end_;  ///< size * stride: one past the last slot's offset
  size_t at_;   ///< offset of the next sample
  double sum_ = 0.0;
  double peak_;
};

/// The pass over three windows of one size whose p95 tails hold K values.
/// Oldest first, it reads sample i of each window before sample i + 1 of
/// any, so the three windows' sum, peak and min/max chains overlap.
template <size_t K>
void SelectAxes(const WindowView (&views)[3], const util::PercentileRank& rank,
                AxisStats (&axes)[3]) {
  WindowPass windows[3] = {WindowPass(views[0]), WindowPass(views[1]),
                           WindowPass(views[2])};
  util::UpperTail<K> tops[3];
  for (size_t i = 0; i < K; ++i) {
    for (int a = 0; a < 3; ++a) tops[a].Sink(windows[a].Next());
  }
  for (size_t i = K; i < views[0].size; ++i) {
    for (int a = 0; a < 3; ++a) tops[a].Rise(windows[a].Next());
  }
  for (int a = 0; a < 3; ++a) {
    axes[a] = windows[a].Finish(rank.Interpolate(tops[a][0], tops[a][1]));
  }
}

/// A window the three-window pass does not take: fewer than two samples, a
/// p95 tail longer than util::kInsertionTail, or a size unlike the other
/// windows'. Gathered oldest first into per-thread scratch (Stats runs
/// concurrently on disjoint stripes; after its first growth no call
/// allocates), then util::PercentileInPlace.
AxisStats GatherAxis(const WindowView& v) {
  if (v.size == 0) return {};
  thread_local std::vector<double> scratch;
  scratch.resize(v.size);
  WindowPass window(v);
  for (double& x : scratch) x = window.Next();
  return window.Finish(util::PercentileInPlace(
      scratch.data(), scratch.data() + scratch.size(), 95.0));
}

}  // namespace

ProfileStats SummarizeWindow(WindowView cpu_cores, WindowView ram_bytes,
                             WindowView update_rows_per_sec,
                             double working_set_bytes) {
  const WindowView views[3] = {cpu_cores, ram_bytes, update_rows_per_sec};
  AxisStats axes[3];
  const util::PercentileRank rank(std::max<size_t>(cpu_cores.size, 1), 95.0);
  if (ram_bytes.size == cpu_cores.size &&
      update_rows_per_sec.size == cpu_cores.size && rank.tail >= 2 &&
      rank.tail <= util::kInsertionTail) {
    util::WithUpperTail(rank.tail, [&](auto k) {
      SelectAxes<decltype(k)::value>(views, rank, axes);
    });
  } else {
    for (int a = 0; a < 3; ++a) axes[a] = GatherAxis(views[a]);
  }
  ProfileStats stats;
  stats.mean_cpu_cores = axes[0].mean;
  stats.p95_cpu_cores = axes[0].p95;
  stats.peak_cpu_cores = axes[0].peak;
  stats.mean_ram_bytes = axes[1].mean;
  stats.p95_ram_bytes = axes[1].p95;
  stats.peak_ram_bytes = axes[1].peak;
  stats.p95_update_rows_per_sec = axes[2].p95;
  stats.working_set_bytes = working_set_bytes;
  return stats;
}

ProfileStats Summarize(const WorkloadProfile& profile) {
  const auto view = [](const util::TimeSeries& series) {
    return WindowView{series.values().data(), 1, 0, series.size()};
  };
  return SummarizeWindow(view(profile.cpu_cores), view(profile.ram_bytes),
                         view(profile.update_rows_per_sec),
                         profile.working_set_bytes);
}

}  // namespace kairos::monitor
