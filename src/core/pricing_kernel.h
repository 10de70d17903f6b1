// The server pricing kernel: the per-sample sums behind the objective's
// per-server term (core/bounds.h's ServerAggregateCost), four samples at a
// time.
//
// Per sample t the kernel adds the overheads, divides by the capacities,
// clips, weighs and takes exp of the balance load, and sums the relative
// excess over each capacity:
//   cpu  = cpu_t + cpu_overhead,  ram = ram_t + ram_overhead,  rate = rate_t
//   load = (w_cpu * min(cpu / cpu_full, 1.5) + w_ram * min(ram / ram_full, 1.5)
//           + w_disk * min(rate / disk_full, 1.5)) / weight_sum
//   exp term  = KernelExp(min(load, 1))
//   excess    = [cpu > cpu_limit] (cpu / cpu_limit - 1) + the same for ram,
//               then for rate against disk_limit
// (the disk ratio reads 0, and rate is neither read nor limited, when
// disk_full is 0). Sample t goes into lane t % 4; each lane sums its
// samples in order, and the lanes fold as (l0 + l1) + (l2 + l3), for the
// exp sum and the excess sum alike.
//
// One body computes those sums over groups of four samples, in vector
// extensions that act lane by lane, and is built twice: for AVX2 (4-lane
// vectors, no FMA) and for the target's baseline (on x86-64, SSE2's two
// 2-lane halves in the same lane order; elsewhere whatever the compiler
// lowers 4-lane vectors to). Both builds return the bits of a plain
// per-lane C++ function, which also prices the samples % 4 tail. The
// active path is chosen once per process: AVX2 when the CPU has it, else
// the baseline build.
#ifndef KAIROS_CORE_PRICING_KERNEL_H_
#define KAIROS_CORE_PRICING_KERNEL_H_

namespace kairos::core {

/// One axis of a server aggregate as the kernel reads it: sample t is
/// (base[t] - minus[t]) + plus[t], with `minus` and `plus` each left out
/// when null. A what-if move or one side of a swap thus prices without a
/// copy, with the operations LoadAccountant::Apply performs.
struct AxisSeries {
  const double* base = nullptr;
  const double* minus = nullptr;
  const double* plus = nullptr;
};

/// The per-server constants of one pricing (see the file comment).
struct PricingConstants {
  double cpu_overhead = 0;
  double ram_overhead = 0;
  /// Full capacities: the balance term's denominators. A disk_full of 0
  /// (no active disk axis) drops the disk axis.
  double cpu_full = 1;
  double ram_full = 1;
  double disk_full = 0;
  /// Headroomed capacities: the excess thresholds.
  double cpu_limit = 1;
  double ram_limit = 1;
  double disk_limit = 1;
  double cpu_weight = 1;
  double ram_weight = 1;
  double disk_weight = 1;
  double weight_sum = 3;
};

/// The kernel's two sums over a server's samples.
struct PricingSums {
  double exp_sum = 0;
  double excess_sum = 0;
};

/// Sums the exp terms and the excess of `samples` samples on the active
/// path.
PricingSums PriceSamples(const PricingConstants& constants,
                         const AxisSeries& cpu, const AxisSeries& ram,
                         const AxisSeries& rate, int samples);

/// The kernel's paths: the vector body built for the target's baseline,
/// and built for AVX2.
enum class PricingKernel { kBaseline, kAvx2 };

/// The path PriceSamples runs in this process.
PricingKernel ActivePricingKernel();
/// "avx2", or for the baseline build "sse2" on x86-64 and "portable"
/// elsewhere.
const char* PricingKernelName(PricingKernel kernel);
/// The active path's name, as bench reports record it.
const char* PricingKernelName();
/// True when `kernel` runs on this host: the baseline build always, AVX2
/// when the CPU has it.
bool PricingKernelRuns(PricingKernel kernel);
/// PriceSamples on a given path, which must run on this host (the kernel
/// test and the microbenchmarks compare the paths).
PricingSums PriceSamplesOn(PricingKernel kernel,
                           const PricingConstants& constants,
                           const AxisSeries& cpu, const AxisSeries& ram,
                           const AxisSeries& rate, int samples);

/// Lower end of the polynomial's domain.
inline constexpr double kKernelExpLo = -0.25;
/// The kernel's exp of x <= 1, lane for lane what every path computes. On
/// [kKernelExpLo, 1] it is 2^k * P(r), where k is 1 above ln(2) / 2 and 0
/// otherwise, r = (x - k * ln2_hi) - k * ln2_lo (ln(2) split so that
/// x - ln2_hi is exact), and P is exp's Taylor polynomial of degree 13 at
/// 0, evaluated by Horner's rule; it stays within 2 ulp of std::exp there.
/// Below the domain, and for NaN, it is std::exp(x).
double KernelExp(double x);

}  // namespace kairos::core

#endif  // KAIROS_CORE_PRICING_KERNEL_H_
