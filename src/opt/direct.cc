#include "opt/direct.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

namespace kairos::opt {

namespace {

/// One hyperrectangle: its center, value, and per-dimension trisection
/// depth (side length in dim i is 3^-levels[i]).
struct Rect {
  std::vector<double> center;
  std::vector<uint16_t> levels;
  double f = 0;
  double diameter = 0;
};

double Diameter(const std::vector<uint16_t>& levels) {
  double s = 0;
  for (uint16_t l : levels) {
    const double side = std::pow(3.0, -static_cast<double>(l));
    s += side * side;
  }
  return 0.5 * std::sqrt(s);
}

}  // namespace

DirectResult DirectOptimizer::Minimize(const Objective& f, int dims,
                                       const DirectOptions& options) const {
  DirectResult result;
  if (dims <= 0) return result;

  // Points are copied by construction or element-wise into a vector of
  // `dims` coordinates: copy-assigning a std::vector<double> in this loop
  // trips GCC 12's -Wnonnull false positive on the inlined memmove.
  std::vector<Rect> rects;
  Rect root{std::vector<double>(dims, 0.5), std::vector<uint16_t>(dims, 0),
            0, 0};
  root.f = f(root.center);
  root.diameter = Diameter(root.levels);
  result.evaluations = 1;
  result.x.assign(dims, 0.5);
  result.fx = root.f;
  rects.push_back(std::move(root));

  auto consider = [&](const std::vector<double>& x, double fx) {
    if (fx < result.fx) {
      result.fx = fx;
      std::copy(x.begin(), x.end(), result.x.begin());
    }
  };

  // A round divides while the budget can fund a sample pair, and every
  // round that starts divides at least one rectangle, so the budget alone
  // bounds the loop: evaluations >= 1 + 2 * iterations.
  for (;;) {
    if (result.fx <= options.target_value) {
      result.hit_target = true;
      break;
    }
    if (result.evaluations + 2 > options.max_evaluations) break;
    ++result.iterations;

    // Group rectangles by diameter; keep the best rect per group.
    std::map<double, size_t> best_per_diameter;  // diameter -> index
    for (size_t i = 0; i < rects.size(); ++i) {
      auto [it, inserted] = best_per_diameter.try_emplace(rects[i].diameter, i);
      if (!inserted && rects[i].f < rects[it->second].f) it->second = i;
    }

    // Candidate (d, fmin) points in ascending diameter order.
    std::vector<std::pair<double, size_t>> groups(best_per_diameter.begin(),
                                                  best_per_diameter.end());

    // Potentially-optimal selection (Jones' two conditions).
    std::vector<size_t> selected;
    const double fbest = result.fx;
    for (size_t g = 0; g < groups.size(); ++g) {
      const double dj = groups[g].first;
      const double fj = rects[groups[g].second].f;
      double k_lo = 0.0;
      double k_hi = std::numeric_limits<double>::infinity();
      bool dominated = false;
      for (size_t h = 0; h < groups.size(); ++h) {
        if (h == g) continue;
        const double di = groups[h].first;
        const double fi = rects[groups[h].second].f;
        if (di < dj) {
          k_lo = std::max(k_lo, (fj - fi) / (dj - di));
        } else if (di > dj) {
          k_hi = std::min(k_hi, (fi - fj) / (di - dj));
        } else if (fi < fj) {
          dominated = true;
        }
      }
      if (dominated || k_lo > k_hi) continue;
      // Nontrivial improvement condition with the most favorable K.
      const double k = std::min(k_hi, 1e300);
      const double threshold =
          fbest - options.epsilon * std::max(std::fabs(fbest), 1e-12);
      if (std::isfinite(k)) {
        if (fj - k * dj > threshold) continue;
      }
      selected.push_back(groups[g].second);
    }
    if (selected.empty()) {
      // Numerical corner: always divide the largest rectangle.
      selected.push_back(groups.back().second);
    }

    // Divide each selected rectangle along its longest dimensions.
    for (size_t idx : selected) {
      if (result.evaluations + 2 > options.max_evaluations) break;
      // Copy: rects will be appended to (iterator invalidation).
      Rect parent = rects[idx];

      uint16_t min_level = std::numeric_limits<uint16_t>::max();
      for (uint16_t l : parent.levels) min_level = std::min(min_level, l);
      std::vector<int> long_dims;
      for (int d = 0; d < dims; ++d) {
        if (parent.levels[d] == min_level) long_dims.push_back(d);
      }
      const double delta = std::pow(3.0, -static_cast<double>(min_level) - 1.0);

      // Sample c +/- delta e_d for each long dimension, moving one
      // coordinate of a scratch copy of the center and restoring it.
      struct Probe {
        int dim;
        double f_plus, f_minus, w;
      };
      std::vector<Probe> probes;
      std::vector<double> x(parent.center);
      for (int d : long_dims) {
        if (result.evaluations + 2 > options.max_evaluations) break;
        const double c = x[d];
        Probe p{d, 0, 0, 0};
        x[d] = c + delta;
        p.f_plus = f(x);
        consider(x, p.f_plus);
        x[d] = c - delta;
        p.f_minus = f(x);
        consider(x, p.f_minus);
        x[d] = c;
        result.evaluations += 2;
        p.w = std::min(p.f_plus, p.f_minus);
        probes.push_back(p);
      }
      std::sort(probes.begin(), probes.end(),
                [](const Probe& a, const Probe& b) { return a.w < b.w; });

      // Trisect best-w dimension first (Jones' division order). Work on the
      // local copy: push_back below may reallocate `rects`.
      for (const Probe& p : probes) {
        parent.levels[p.dim] += 1;
        Rect plus{parent.center, parent.levels, p.f_plus, 0};
        plus.center[p.dim] += delta;
        plus.diameter = Diameter(plus.levels);
        Rect minus{parent.center, parent.levels, p.f_minus, 0};
        minus.center[p.dim] -= delta;
        minus.diameter = Diameter(minus.levels);
        rects.push_back(std::move(plus));
        rects.push_back(std::move(minus));
      }
      parent.diameter = Diameter(parent.levels);
      rects[idx] = std::move(parent);
    }
  }
  return result;
}

}  // namespace kairos::opt
