// Unit and property tests of the disk axis (model/resource_model.h): the
// nonlinear disk combiner is monotone in added working set, and an invalid
// disk model leaves the axis inactive and unbounded (the classic "no disk
// constraint" setup).
#include "model/resource_model.h"

#include <gtest/gtest.h>

#include "model/analytic.h"
#include "sim/disk.h"

namespace kairos {
namespace {

model::DiskModel AnalyticSpindleModel() {
  return model::BuildAnalyticModel(sim::DiskSpec{}, model::AnalyticConfig{},
                                   96e9, 4000.0);
}

TEST(DiskResourceTest, MatchesLegacyHeadroomArithmetic) {
  const model::DiskModel m = AnalyticSpindleModel();
  ASSERT_TRUE(m.valid());
  const model::DiskResource disk(&m, 0.9);
  ASSERT_TRUE(disk.active());
  for (double ws : {1e9, 8e9, 32e9, 96e9}) {
    // Bit-for-bit the arithmetic every consumer used to hand-roll.
    EXPECT_EQ(disk.Capacity(ws), m.MaxSustainableRate(ws));
    EXPECT_EQ(disk.UsableCapacity(ws), 0.9 * m.MaxSustainableRate(ws));
  }
}

TEST(DiskResourceTest, MonotoneInAddedWorkingSet) {
  // The nonlinear combining property: adding working set to a server never
  // *increases* the sustainable rate, so at a fixed update rate the
  // utilization is monotone non-decreasing in the aggregate working set.
  const model::DiskModel m = AnalyticSpindleModel();
  ASSERT_TRUE(m.valid());
  const model::DiskResource disk(&m, 0.9);

  // Monotone up to polynomial fit noise: the frontier is a fitted
  // quadratic, so allow a 0.1% relative wobble (the observed boundary
  // artifact is ~0.007%) — what must never happen is capacity *recovering*
  // as tenants pile working set onto the server.
  const double rate = 200.0;
  double prev_cap = disk.Capacity(1e9);
  double prev_util = rate / prev_cap;
  for (double ws = 2e9; ws <= 96e9; ws += 1e9) {
    const double cap = disk.Capacity(ws);
    const double util = rate / cap;
    EXPECT_LE(cap, prev_cap * (1.0 + 1e-3)) << "capacity grew at ws=" << ws;
    EXPECT_GE(util, prev_util * (1.0 - 1e-3)) << "utilization shrank at ws=" << ws;
    prev_cap = cap;
    prev_util = util;
  }
  // And it is genuinely nonlinear: capacity at double the working set is
  // not just the capacity at half of it (unlike any linear axis).
  EXPECT_LT(disk.Capacity(96e9), disk.Capacity(8e9));
}

TEST(DiskResourceTest, ReducesToLinearWhenModelInvalid) {
  const model::DiskModel invalid;  // never fitted
  ASSERT_FALSE(invalid.valid());
  const model::DiskResource disk(&invalid, 0.9);
  EXPECT_FALSE(disk.active());
  // Capacity no longer depends on the working set (linear semantics), and
  // with no model it is unbounded: no constraint.
  EXPECT_EQ(disk.Capacity(1e9), model::DiskResource::kUnbounded);
  EXPECT_EQ(disk.Capacity(64e9), model::DiskResource::kUnbounded);

  // Null model behaves the same.
  const model::DiskResource none;
  EXPECT_FALSE(none.active());
  EXPECT_EQ(none.Capacity(1e9), model::DiskResource::kUnbounded);

  const model::DiskResource null_model(nullptr, 0.9);
  EXPECT_FALSE(null_model.active());
}

}  // namespace
}  // namespace kairos
