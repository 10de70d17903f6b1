// The server pricing kernel (core/pricing_kernel.h): every path that runs
// on the host returns the bits of the kernel's per-lane definition, written
// out here with every excess division computed; the kernel's exp stays
// within 2 ulp of std::exp on its domain and is std::exp outside it; and a
// server's cost agrees with the reference checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/pricing_kernel.h"
#include "tests/differential_instances.h"
#include "tests/oracle/reference_checker.h"
#include "util/rng.h"

namespace kairos::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Equal bits, or both NaN: a NaN's payload is not part of the contract.
bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || Bits(a) == Bits(b);
}

// Distance in representable doubles between two finite values of one sign.
int64_t UlpDistance(double a, double b) {
  const int64_t d = static_cast<int64_t>(Bits(a)) - static_cast<int64_t>(Bits(b));
  return d < 0 ? -d : d;
}

std::vector<PricingKernel> RunnablePaths() {
  std::vector<PricingKernel> paths;
  for (PricingKernel k : {PricingKernel::kBaseline, PricingKernel::kAvx2}) {
    if (PricingKernelRuns(k)) paths.push_back(k);
  }
  return paths;
}

/// A block of samples per axis, each (base - minus) + plus with `minus`
/// and `plus` present or not.
struct Block {
  int samples = 0;
  bool has_minus = false;
  bool has_plus = false;
  std::vector<double> base[3], minus[3], plus[3];

  AxisSeries Series(int a) const {
    AxisSeries s;
    s.base = base[a].data();
    if (has_minus) s.minus = minus[a].data();
    if (has_plus) s.plus = plus[a].data();
    return s;
  }
  double At(int a, int t) const {
    double v = base[a][t];
    if (has_minus) v = v - minus[a][t];
    if (has_plus) v = v + plus[a][t];
    return v;
  }
};

PricingConstants Constants(bool disk, bool overhead) {
  PricingConstants k;
  k.cpu_overhead = overhead ? 0.35 : 0.0;
  k.ram_overhead = overhead ? 0.25e9 : 0.0;
  k.cpu_full = 12.0;
  k.ram_full = 96e9;
  k.cpu_limit = 10.8;
  k.ram_limit = 91.2e9;
  if (disk) {
    k.disk_full = 2350.5;
    k.disk_limit = 0.85 * 2350.5;
  }
  // Weights that are not powers of two, so that a fused multiply-add in
  // the weighted sum rounds differently.
  k.cpu_weight = 1.1;
  k.ram_weight = 0.7;
  k.disk_weight = 1.9;
  k.weight_sum = 3.7;
  return k;
}

/// Values at and around an axis's capacities: below, one ulp below, at,
/// one ulp above and above the limit and the full capacity, zero and
/// negative values (a sample of -40 times the full capacity takes its
/// load below the exp polynomial's domain), and with `special` also NaN
/// and both infinities.
std::vector<double> EdgeValues(double limit, double full, bool special) {
  std::vector<double> v = {0.0,
                           0.5 * limit,
                           std::nextafter(limit, 0.0),
                           limit,
                           std::nextafter(limit, kInf),
                           1.3 * limit,
                           std::nextafter(full, 0.0),
                           full,
                           std::nextafter(full, kInf),
                           2.0 * full,
                           -0.7 * limit,
                           -40.0 * full,
                           -1e-300};
  if (special) v.insert(v.end(), {kNaN, kInf, -kInf});
  return v;
}

/// A random block: about a third of its samples are edge values of their
/// axis, placed with zero minus and plus entries so the composed sample is
/// the edge value exactly; the rest are random loads up to 1.2 times the
/// limit.
Block RandomBlock(util::Rng* rng, const PricingConstants& k, int samples,
                  bool special) {
  Block b;
  b.samples = samples;
  b.has_minus = rng->NextDouble() < 0.5;
  b.has_plus = rng->NextDouble() < 0.5;
  const double limit[3] = {k.cpu_limit, k.ram_limit,
                           k.disk_full > 0 ? k.disk_limit : 1000.0};
  const double full[3] = {k.cpu_full, k.ram_full,
                          k.disk_full > 0 ? k.disk_full : 1000.0};
  for (int a = 0; a < 3; ++a) {
    const std::vector<double> edges = EdgeValues(limit[a], full[a], special);
    b.base[a].resize(samples);
    b.minus[a].resize(samples);
    b.plus[a].resize(samples);
    for (int t = 0; t < samples; ++t) {
      if (rng->NextDouble() < 0.35) {
        b.base[a][t] = edges[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(edges.size()) - 1))];
        b.minus[a][t] = 0.0;
        b.plus[a][t] = 0.0;
      } else {
        b.base[a][t] = rng->Uniform(0.0, 1.2 * limit[a]);
        b.minus[a][t] = rng->Uniform(0.0, 0.3 * limit[a]);
        b.plus[a][t] = rng->Uniform(0.0, 0.3 * limit[a]);
      }
    }
  }
  return b;
}

/// The kernel's definition, sample by sample: lane t % 4 sums its samples
/// in order, every excess term is computed as max(0, x / limit - 1), and
/// the lanes fold as (l0 + l1) + (l2 + l3). Counts the samples whose exp
/// argument lies below the polynomial's domain into `off_domain`.
PricingSums Reference(const PricingConstants& k, const Block& b,
                      int* off_domain = nullptr) {
  const bool disk = k.disk_full > 0;
  double exp_lane[4] = {0, 0, 0, 0};
  double excess_lane[4] = {0, 0, 0, 0};
  for (int t = 0; t < b.samples; ++t) {
    const double cpu = b.At(0, t) + k.cpu_overhead;
    const double ram = b.At(1, t) + k.ram_overhead;
    const double rate = disk ? b.At(2, t) : 0.0;
    const double u_disk = disk ? rate / k.disk_full : 0.0;
    const double load = (k.cpu_weight * std::min(cpu / k.cpu_full, 1.5) +
                         k.ram_weight * std::min(ram / k.ram_full, 1.5) +
                         k.disk_weight * std::min(u_disk, 1.5)) /
                        k.weight_sum;
    const double x = std::min(load, 1.0);
    if (off_domain != nullptr && x < kKernelExpLo) ++*off_domain;
    exp_lane[t % 4] += KernelExp(x);
    excess_lane[t % 4] += std::max(0.0, cpu / k.cpu_limit - 1.0);
    excess_lane[t % 4] += std::max(0.0, ram / k.ram_limit - 1.0);
    if (disk) excess_lane[t % 4] += std::max(0.0, rate / k.disk_limit - 1.0);
  }
  PricingSums sums;
  sums.exp_sum = (exp_lane[0] + exp_lane[1]) + (exp_lane[2] + exp_lane[3]);
  sums.excess_sum =
      (excess_lane[0] + excess_lane[1]) + (excess_lane[2] + excess_lane[3]);
  return sums;
}

PricingSums Price(PricingKernel path, const PricingConstants& k,
                  const Block& b) {
  return PriceSamplesOn(path, k, b.Series(0), b.Series(1), b.Series(2),
                        b.samples);
}

TEST(PricingKernelTest, ActivePathIsNamedAndRuns) {
  const std::string name = PricingKernelName();
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "portable") << name;
  EXPECT_EQ(name, PricingKernelName(ActivePricingKernel()));
  EXPECT_TRUE(PricingKernelRuns(ActivePricingKernel()));
  EXPECT_TRUE(PricingKernelRuns(PricingKernel::kBaseline));
#if defined(__x86_64__)
  EXPECT_STREQ(PricingKernelName(PricingKernel::kBaseline), "sse2");
#endif
  util::Rng rng(5);
  const PricingConstants k = Constants(true, true);
  const Block b = RandomBlock(&rng, k, 288, false);
  const PricingSums active =
      PriceSamples(k, b.Series(0), b.Series(1), b.Series(2), b.samples);
  const PricingSums on = Price(ActivePricingKernel(), k, b);
  EXPECT_EQ(Bits(active.exp_sum), Bits(on.exp_sum));
  EXPECT_EQ(Bits(active.excess_sum), Bits(on.excess_sum));
}

TEST(PricingKernelTest, PathsMatchThePerLaneDefinitionBitForBit) {
  const std::vector<PricingKernel> paths = RunnablePaths();
  util::Rng rng(2026);
  int blocks = 0, finite_blocks = 0, excess_blocks = 0, off_domain = 0;
  for (int samples : {1, 2, 3, 4, 5, 6, 7, 8, 9, 47, 48, 287, 288, 290}) {
    for (bool disk : {true, false}) {
      for (int rep = 0; rep < 24; ++rep) {
        const bool special = rep % 3 == 2;
        const PricingConstants k = Constants(disk, rep % 2 == 1);
        const Block b = RandomBlock(&rng, k, samples, special);
        const PricingSums want = Reference(k, b, &off_domain);
        for (PricingKernel path : paths) {
          const PricingSums got = Price(path, k, b);
          ASSERT_TRUE(SameBits(got.exp_sum, want.exp_sum))
              << PricingKernelName(path) << " samples " << samples << " disk "
              << disk << " rep " << rep << ": " << got.exp_sum << " vs "
              << want.exp_sum;
          ASSERT_TRUE(SameBits(got.excess_sum, want.excess_sum))
              << PricingKernelName(path) << " samples " << samples << " disk "
              << disk << " rep " << rep << ": " << got.excess_sum << " vs "
              << want.excess_sum;
        }
        ++blocks;
        if (std::isfinite(want.exp_sum) && std::isfinite(want.excess_sum)) {
          ++finite_blocks;
        }
        if (want.excess_sum > 0) ++excess_blocks;
      }
    }
  }
  EXPECT_EQ(blocks, 14 * 2 * 24);
  EXPECT_GT(finite_blocks, 300);  // bit comparisons of non-NaN sums
  EXPECT_GT(excess_blocks, 400);
  EXPECT_GT(off_domain, 1000);  // lanes that take std::exp
}

TEST(PricingKernelTest, SkippedExcessDivisionsKeepTheBits) {
  // Groups of four samples all within capacity skip their excess
  // divisions; blocks that mix such groups with over-capacity samples, in
  // every lane and in the tail, price as if every division were made.
  const std::vector<PricingKernel> paths = RunnablePaths();
  util::Rng rng(17);
  for (bool disk : {true, false}) {
    const PricingConstants k = Constants(disk, false);
    for (int samples : {8, 47, 288, 290}) {
      for (int over = -1; over < samples; over += std::max(1, samples / 12)) {
        Block b;
        b.samples = samples;
        for (int a = 0; a < 3; ++a) {
          b.base[a].resize(samples);
          for (int t = 0; t < samples; ++t) {
            b.base[a][t] = rng.Uniform(0.1, 0.9) * (a == 0   ? k.cpu_limit
                                                   : a == 1 ? k.ram_limit
                                                            : 1800.0);
          }
        }
        if (over >= 0) {
          b.base[over % 3][over] = 1.25 * (over % 3 == 0   ? k.cpu_limit
                                           : over % 3 == 1 ? k.ram_limit
                                                           : 1800.0 / 0.85);
        }
        const PricingSums want = Reference(k, b);
        if (over < 0) {
          EXPECT_EQ(Bits(want.excess_sum), Bits(0.0));
        } else if (disk || over % 3 != 2) {
          EXPECT_GT(want.excess_sum, 0.0);
        }
        for (PricingKernel path : paths) {
          const PricingSums got = Price(path, k, b);
          ASSERT_EQ(Bits(got.exp_sum), Bits(want.exp_sum))
              << PricingKernelName(path) << " over " << over;
          ASSERT_EQ(Bits(got.excess_sum), Bits(want.excess_sum))
              << PricingKernelName(path) << " over " << over;
        }
      }
    }
  }
}

TEST(PricingKernelTest, ExpWithinTwoUlpOfStdExp) {
  util::Rng rng(99);
  int64_t worst = 0;
  const auto check = [&](double x) {
    const double got = KernelExp(x);
    const double want = std::exp(x);
    const int64_t ulps = UlpDistance(got, want);
    worst = std::max(worst, ulps);
    return ulps;
  };
  const int points = 1 << 20;
  for (int i = 0; i < points; ++i) {
    const double x = rng.Uniform(kKernelExpLo, 1.0);
    ASSERT_LE(check(x), 2) << "x " << x;
  }
  // The domain's ends and the reduction's switch point, one ulp either
  // side.
  const double half_ln2 = 0.5 * std::log(2.0);
  for (double x : {kKernelExpLo, std::nextafter(kKernelExpLo, 1.0), -0.0, 0.0,
                   std::nextafter(half_ln2, 0.0), half_ln2,
                   std::nextafter(half_ln2, 1.0), std::nextafter(1.0, 0.0),
                   1.0}) {
    EXPECT_LE(check(x), 2) << "x " << x;
  }
  EXPECT_LE(worst, 2);
  // Below the domain, and for NaN, it is std::exp itself.
  for (double x : {std::nextafter(kKernelExpLo, -1.0), -0.5, -1.0, -10.0,
                   -745.2, -1e300, -kInf}) {
    EXPECT_EQ(Bits(KernelExp(x)), Bits(std::exp(x))) << "x " << x;
  }
  EXPECT_TRUE(std::isnan(KernelExp(kNaN)));
}

TEST(PricingKernelTest, ServerCostMatchesTheChecker) {
  // Every server of random assignments on the differential suite's 12
  // instances, priced by the kernel, against the reference checker's
  // per-sample std::exp loop.
  int priced = 0, violating = 0;
  for (bool mixed : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const oracle::Instance in = oracle::MakeInstance(seed, mixed);
      const ConsolidationProblem& prob = in.problem;
      Evaluator ev(prob, in.cap);
      util::Rng rng(seed * 31 + (mixed ? 3 : 0));
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<int> a =
            oracle::RandomAssignment(&rng, ev.num_slots(), in.cap);
        ev.Load(a);
        const oracle::ReferenceScore ref = oracle::Score(prob, a);
        for (int j = 0; j < in.cap; ++j) {
          const bool used = j < static_cast<int>(ref.server_cost.size());
          const double want_cost = used ? ref.server_cost[j] : 0.0;
          const double want_violation = used ? ref.server_violation[j] : 0.0;
          double violation = 0;
          const double cost = ServerCost(prob, ev.accountant(), j, &violation);
          ASSERT_LE(std::abs(cost - want_cost), 1e-12 * std::abs(want_cost))
              << "mixed " << mixed << " seed " << seed << " server " << j;
          ASSERT_LE(std::abs(violation - want_violation),
                    1e-12 * std::abs(want_violation))
              << "mixed " << mixed << " seed " << seed << " server " << j;
          if (cost > 0) ++priced;
          if (violation > 0) ++violating;
        }
      }
    }
  }
  EXPECT_GT(priced, 600);
  EXPECT_GT(violating, 100);
}

}  // namespace
}  // namespace kairos::core
