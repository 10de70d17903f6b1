// DIRECT (DIviding RECTangles) global optimization, after D. R. Jones —
// the general-purpose global solver the paper uses (via Tomlab) for the
// mixed-integer nonlinear consolidation program. This implementation works
// on the unit hypercube [0,1]^n; the consolidation engine encodes each
// (workload, replica) slot as one dimension mapped onto server indices.
//
// The epsilon parameter is DIRECT's local/global search balance knob that
// Section 6 discusses: larger epsilon biases toward large rectangles
// (global exploration), smaller epsilon polishes around the incumbent.
#ifndef KAIROS_OPT_DIRECT_H_
#define KAIROS_OPT_DIRECT_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace kairos::opt {

/// Budget and behaviour knobs for one Minimize() call.
struct DirectOptions {
  /// Objective evaluations a run may spend. The root costs one and every
  /// probe a pair, so a run stops once fewer than two remain.
  int max_evaluations = 5000;
  /// Potentially-optimal filter: required improvement over the incumbent,
  /// relative (Jones' epsilon). Larger = more global.
  double epsilon = 1e-4;
  /// Stop early when the incumbent reaches this value (e.g., a known
  /// feasibility threshold during the binary search on server count).
  double target_value = -1e300;
};

/// Result of a DIRECT run.
struct DirectResult {
  std::vector<double> x;     ///< Best point found (in [0,1]^n).
  double fx = 0;             ///< Objective at x.
  int evaluations = 0;
  int iterations = 0;        ///< Division rounds; each spends >= 2 evaluations.
  bool hit_target = false;   ///< Stopped because target_value was reached.
};

/// The optimizer. Stateless between Minimize() calls.
class DirectOptimizer {
 public:
  using Objective = std::function<double(const std::vector<double>&)>;

  /// Minimizes `f` over [0,1]^dims.
  DirectResult Minimize(const Objective& f, int dims, const DirectOptions& options) const;
};

}  // namespace kairos::opt

#endif  // KAIROS_OPT_DIRECT_H_
