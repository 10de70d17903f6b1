#include "model/disk_model.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace kairos::model {

DiskModel DiskModel::Fit(const std::vector<ProfilePoint>& points) {
  DiskModel m;
  if (points.size() < 6) return m;

  // Normalize for numeric stability of the polynomial fit.
  double max_ws = 0, max_rate = 0;
  for (const auto& p : points) {
    max_ws = std::max(max_ws, p.working_set_bytes);
    max_rate = std::max(max_rate, p.achieved_rows_per_sec);
  }
  if (max_ws <= 0 || max_rate <= 0) return m;
  m.ws_scale_ = max_ws;
  m.rate_scale_ = max_rate;

  // Fit the I/O surface on unsaturated points (the paper cares about
  // accuracy near — but below — saturation).
  std::vector<double> u, v, y;
  for (const auto& p : points) {
    if (p.saturated) continue;
    u.push_back(p.working_set_bytes / m.ws_scale_);
    v.push_back(p.achieved_rows_per_sec / m.rate_scale_);
    y.push_back(p.write_bytes_per_sec);
  }
  auto try_fit = [&](const std::vector<double>& fu, const std::vector<double>& fv,
                     const std::vector<double>& fy) {
    return util::Poly2D::FitLar(fu, fv, fy, &m.io_poly_) ||
           util::Poly2D::FitLeastSquares(fu, fv, fy, &m.io_poly_);
  };
  bool fitted = u.size() >= 6 && try_fit(u, v, y);
  if (!fitted) {
    // Too few (or collinear) unsaturated points: fall back to all points.
    u.clear();
    v.clear();
    y.clear();
    for (const auto& p : points) {
      u.push_back(p.working_set_bytes / m.ws_scale_);
      v.push_back(p.achieved_rows_per_sec / m.rate_scale_);
      y.push_back(p.write_bytes_per_sec);
    }
    fitted = try_fit(u, v, y);
  }
  if (!fitted) return m;

  // Saturation frontier: the max achieved rate at each working-set size,
  // quadratic in ws (Figure 4's dashed line).
  std::map<double, double> max_rate_at_ws;
  for (const auto& p : points) {
    auto& r = max_rate_at_ws[p.working_set_bytes];
    r = std::max(r, p.achieved_rows_per_sec);
  }
  std::vector<double> fu, fy;
  for (const auto& [ws, rate] : max_rate_at_ws) {
    fu.push_back(ws / m.ws_scale_);
    fy.push_back(rate);
  }
  if (fu.size() >= 3) {
    if (!util::Poly1D::Fit(fu, fy, &m.frontier_)) return m;
  } else {
    // Too few distinct sizes for a quadratic: flat frontier at the max.
    double best = 0;
    for (double r : fy) best = std::max(best, r);
    m.frontier_ = util::Poly1D({best, 0.0, 0.0});
  }
  double min_frontier = 1e300;
  for (double r : fy) min_frontier = std::min(min_frontier, r);
  m.min_frontier_ = std::max(1.0, 0.25 * min_frontier);

  m.valid_ = true;
  return m;
}

double DiskModel::PredictWriteBytesPerSec(double working_set_bytes,
                                          double rows_per_sec) const {
  if (!valid_) return 0.0;
  const double v =
      io_poly_.Eval(working_set_bytes / ws_scale_, rows_per_sec / rate_scale_);
  return std::max(0.0, v);
}

double DiskModel::MaxSustainableRate(double working_set_bytes) const {
  if (!valid_) return 0.0;
  return std::max(min_frontier_, frontier_.Eval(working_set_bytes / ws_scale_));
}

}  // namespace kairos::model
