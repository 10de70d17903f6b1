// Shared helpers for the table/figure reproduction benches, including the
// BenchReporter harness that gives every bench binary the same observability
// surface: `--smoke` (CI-sized run), `--metrics-out=<path>` (write the
// versioned BENCH_<name>.json report of obs/report.h). A path ending in
// ".json" names the report file exactly; anything else is treated as a
// directory and the report lands at `<path>/BENCH_<name>.json`. Every report
// echoes where it ran (`hardware_concurrency`, `build_type`, `compiler`)
// into its config and carries FNV-1a digests of the plans the bench printed
// (`digest.plans`) and of the controller transcripts (`digest.history`).
#ifndef KAIROS_BENCH_BENCH_COMMON_H_
#define KAIROS_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "model/analytic.h"
#include "model/disk_model.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "sim/machine.h"

namespace kairos::bench {

/// Seed shared by all benches so outputs are reproducible run-to-run.
inline constexpr uint64_t kSeed = 2026;

/// True when `--smoke` appears anywhere on the command line: benches shrink
/// their horizons/sweeps to CI-sized runs. The one flag every bench binary
/// parses the same way.
inline bool SmokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// Value of `--metrics-out=<path>` anywhere on the command line (empty when
/// absent): where the bench writes its obs::Sink JSON export. Like
/// SmokeMode, parsed identically by every bench binary.
inline std::string MetricsOutPath(int argc, char** argv) {
  constexpr const char kFlag[] = "--metrics-out=";
  constexpr size_t kFlagLen = sizeof(kFlag) - 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, kFlagLen) == 0) {
      return std::string(argv[i] + kFlagLen);
    }
  }
  return std::string();
}

/// Wall-clock section timer (steady clock) — the shared replacement for the
/// ad-hoc per-bench Now()/duration boilerplate.
class ScopedTimer {
 public:
  ScopedTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Disk model for the 12-core / 96 GB consolidation target (analytic
/// profile over the RAID array; see DESIGN.md for the substitution note).
inline model::DiskModel TargetDiskModel() {
  return model::BuildAnalyticModel(sim::DiskSpec::Raid10(),
                                   model::AnalyticConfig{}, 120e9, 2000.0);
}

/// Prints a section banner so bench output reads like the paper's figure.
inline void Banner(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// 64-bit FNV-1a over a stream of values, each folded as its little-endian
/// bytes, so a digest is the same on every host.
class Fnv1a {
 public:
  void Fold(uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Fold(int value) { Fold(static_cast<uint32_t>(value), 4); }
  void Fold(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    Fold(bits, 8);
  }
  void Fold(const std::string& text) {
    for (const char c : text) Fold(static_cast<unsigned char>(c), 1);
  }

  /// The top 52 bits: exact as a JSON double, so a report counter holds it.
  int64_t Top52() const { return static_cast<int64_t>(hash_ >> 12); }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// The per-bench report harness. Construct first thing in main(); when
/// `--metrics-out` is given, sink() and profiler() are live and the bench
/// instruments its runs through them; otherwise both return nullptr and the
/// bench pays one branch per instrumentation site. End every bench with
/// `return reporter.WriteReport();` — a report that cannot be opened *or*
/// written makes the process exit non-zero, so CI can never silently skip
/// report validation. All reporter status goes to stderr; bench stdout
/// transcripts stay byte-identical with the flag on or off.
class BenchReporter {
 public:
  BenchReporter(const std::string& bench_name, int argc, char** argv)
      : name_(bench_name),
        smoke_(SmokeMode(argc, argv)),
        out_path_(MetricsOutPath(argc, argv)) {
    if (!out_path_.empty()) {
      sink_ = std::make_unique<obs::Sink>();
      profiler_ = std::make_unique<obs::Profiler>();
    }
    Config("smoke", smoke_ ? "1" : "0");
    Config("seed", std::to_string(kSeed));
    Config("hardware_concurrency",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
    Config("build_type", KAIROS_BENCH_BUILD_TYPE);
    Config("compiler", KAIROS_BENCH_COMPILER);
  }

  const std::string& name() const { return name_; }
  bool smoke() const { return smoke_; }

  /// Null unless --metrics-out was given.
  obs::Sink* sink() { return sink_.get(); }
  obs::Profiler* profiler() { return profiler_.get(); }

  /// Starts a bench-phase span on the single-writer "bench" track (no-op
  /// without a sink). Benches are single-threaded at the top level.
  obs::ScopedSpan Phase(const std::string& phase, int64_t i0 = 0) {
    return obs::ScopedSpan(sink_.get(), "bench", phase, i0);
  }

  /// Echoes one config key into the report (later writes win in order).
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void Config(const std::string& key, int64_t value) {
    Config(key, std::to_string(value));
  }
  void Config(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    Config(key, std::string(buf));
  }

  /// Adds one bench-specific KPI (appended after the derived ones).
  void Kpi(const std::string& kpi_name, double value) {
    kpis_.push_back({kpi_name, value});
  }

  /// Folds one printed plan into `digest.plans`, in output order: its
  /// assignment entries, then its objective's bit pattern.
  void DigestPlan(const std::vector<int>& assignment, double objective) {
    for (const int server : assignment) plans_.Fold(server);
    plans_.Fold(objective);
    ++plans_folded_;
  }
  void DigestPlan(const core::ConsolidationPlan& plan) {
    DigestPlan(plan.assignment.server_of_slot, plan.objective);
  }
  /// Folds one controller transcript (RenderHistory) into `digest.history`.
  void DigestHistory(const std::string& transcript) {
    history_.Fold(transcript);
    ++histories_folded_;
  }

  /// Writes BENCH_<name>.json and returns the bench's exit code: 0 on
  /// success or when no --metrics-out was given, 1 when the report cannot
  /// be opened or fully written.
  int WriteReport() {
    if (out_path_.empty()) return 0;
    if (sink_ != nullptr) {
      sink_->metrics().gauge("bench.total_seconds")->Set(total_timer_.Seconds());
      if (plans_folded_ > 0) sink_->Count("digest.plans", plans_.Top52());
      if (histories_folded_ > 0) {
        sink_->Count("digest.history", history_.Top52());
      }
    }
    const std::string path = ReportPath();
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "metrics-out: cannot open %s\n", path.c_str());
      return 1;
    }
    obs::WriteBenchReport(out, name_, config_, *sink_, profiler_.get(), kpis_);
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "metrics-out: write to %s failed\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics-out: wrote %s\n", path.c_str());
    return 0;
  }

  /// Where WriteReport() will put the report.
  std::string ReportPath() const {
    const std::string suffix = ".json";
    if (out_path_.size() >= suffix.size() &&
        out_path_.compare(out_path_.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      return out_path_;
    }
    return out_path_ + "/BENCH_" + name_ + ".json";
  }

 private:
  std::string name_;
  bool smoke_;
  std::string out_path_;
  std::unique_ptr<obs::Sink> sink_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<obs::KpiValue> kpis_;
  Fnv1a plans_;
  Fnv1a history_;
  int plans_folded_ = 0;
  int histories_folded_ = 0;
  ScopedTimer total_timer_;
};

}  // namespace kairos::bench

#endif  // KAIROS_BENCH_BENCH_COMMON_H_
