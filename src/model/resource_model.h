// The nonlinear disk axis. The paper's central modeling claim (Section 4)
// is that CPU and RAM combine (near-)linearly under consolidation while
// disk I/O combines nonlinearly and must be predicted by a measured model.
// Loads on every axis *aggregate* by summation (N databases behave like one
// database at the summed inputs); what differs per axis is the *capacity*
// available to the aggregate. CPU and RAM capacities are constants per
// machine class (sim::EffectiveCapacity holds them with their headroom);
// the disk capacity is the saturation frontier of a fitted DiskModel
// evaluated at the aggregate working set, so adding working set to a
// server shrinks the sustainable update rate for everyone on it.
// DiskResource prices that axis for the evaluator, the greedy packers, the
// capacity ledger and the online migration planner alike.
#ifndef KAIROS_MODEL_RESOURCE_MODEL_H_
#define KAIROS_MODEL_RESOURCE_MODEL_H_

#include <algorithm>

#include "model/disk_model.h"

namespace kairos::model {

/// The disk axis of one machine class: capacity is the fitted model's
/// saturation frontier at the aggregate working set, so utilization is
/// monotone in *both* the update rate and the working set other tenants
/// bring along. With a null/invalid model the axis is inactive and its
/// capacity unbounded (no constraint — the classic "no disk model" setup).
class DiskResource {
 public:
  static constexpr double kUnbounded = 1e300;

  DiskResource() = default;
  explicit DiskResource(const DiskModel* model, double headroom = 0.9)
      : model_(model), headroom_(headroom) {}

  /// True when the axis imposes a real constraint. Inactive axes are
  /// skipped by consumers.
  bool active() const { return model_ != nullptr && model_->valid(); }

  /// Full capacity available to an aggregate load at `working_set_bytes`
  /// (the balance term's denominator — no safety headroom).
  double Capacity(double working_set_bytes) const {
    if (!active()) return kUnbounded;
    return model_->MaxSustainableRate(std::max(0.0, working_set_bytes));
  }

  /// Safety-headroom fraction in (0, 1].
  double headroom() const { return headroom_; }

  /// Headroomed capacity (the violation threshold).
  double UsableCapacity(double working_set_bytes) const {
    return headroom() * Capacity(working_set_bytes);
  }

 private:
  const DiskModel* model_ = nullptr;
  double headroom_ = 0.9;
};

}  // namespace kairos::model

#endif  // KAIROS_MODEL_RESOURCE_MODEL_H_
