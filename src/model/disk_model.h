// The empirical disk model of Section 4.1: a hardware/DBMS-configuration-
// specific map from (working set size, row update rate) to disk write
// throughput, fit as a Least-Absolute-Residuals second-order polynomial,
// plus a quadratic saturation frontier (the dashed line of Figure 4).
#ifndef KAIROS_MODEL_DISK_MODEL_H_
#define KAIROS_MODEL_DISK_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/polyfit.h"

namespace kairos::model {

/// One profiling measurement.
struct ProfilePoint {
  double working_set_bytes = 0;
  double target_rows_per_sec = 0;    ///< Offered update rate.
  double achieved_rows_per_sec = 0;  ///< Sustained update rate.
  double write_bytes_per_sec = 0;    ///< Observed physical write throughput.
  bool saturated = false;            ///< Achieved noticeably below target.
};

/// The fitted model. The paper's combining property: N databases with
/// aggregate working set X and aggregate update rate Y behave like one
/// database at (X, Y) — so consolidation queries sum the inputs and
/// evaluate this model once.
class DiskModel {
 public:
  DiskModel() = default;

  /// Fits the model from profiling points. Points flagged saturated feed
  /// only the saturation frontier, not the I/O surface.
  static DiskModel Fit(const std::vector<ProfilePoint>& points);

  /// Predicted physical write throughput (bytes/sec) for a combined
  /// workload with the given aggregate working set and update rate.
  double PredictWriteBytesPerSec(double working_set_bytes, double rows_per_sec) const;

  /// Max sustainable aggregate update rate (rows/sec) at this working set
  /// (the saturation frontier; decreasing in working set size).
  double MaxSustainableRate(double working_set_bytes) const;

  /// True once Fit() has produced a usable model.
  bool valid() const { return valid_; }

  const util::Poly2D& io_surface() const { return io_poly_; }

 private:
  util::Poly2D io_poly_;      // (ws, rate) -> write bytes/sec.
  util::Poly1D frontier_;     // ws -> max rows/sec.
  // Inputs are scaled to ~[0,1] by these before fitting, for numeric
  // stability.
  double ws_scale_ = 1.0;
  double rate_scale_ = 1.0;
  double min_frontier_ = 0.0;  // Frontier floor (quadratics can dip).
  bool valid_ = false;
};

}  // namespace kairos::model

#endif  // KAIROS_MODEL_DISK_MODEL_H_
