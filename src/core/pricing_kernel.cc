#include "core/pricing_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

// The library builds for the target's baseline, which on x86-64 has no FMA;
// a build for an FMA target could let the compiler fuse the kernel's
// multiply-adds, which the kernel test would report.
#if defined(__GNUC__) && defined(__x86_64__)
#define KAIROS_PRICING_X86 1
#endif

namespace kairos::core {

namespace {

constexpr double kClip = 1.5;  // a utilization's cap in the balance load
// ln(2) = kLn2Hi + kLn2Lo, with kLn2Hi's low 21 bits zero (fdlibm's split):
// x - kLn2Hi is exact for x in [ln(2) / 2, 1].
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kHalfLn2 = 0.34657359027997264;
// exp's Taylor coefficients 1 / k!, k = 0..13, each correctly rounded.
constexpr int kExpDegree = 13;
constexpr double kExpCoeff[kExpDegree + 1] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0};

/// The four lanes' running sums.
struct LaneSums {
  double exp_sum[4] = {0, 0, 0, 0};
  double excess_sum[4] = {0, 0, 0, 0};
};

double Sample(const AxisSeries& s, int t) {
  double v = s.base[t];
  if (s.minus != nullptr) v = v - s.minus[t];
  if (s.plus != nullptr) v = v + s.plus[t];
  return v;
}

/// Prices samples [begin, end) into lanes t % 4: the per-lane definition
/// every path computes.
void PriceLanes(const PricingConstants& k, const AxisSeries& cpu_in,
                const AxisSeries& ram_in, const AxisSeries& rate_in,
                int begin, int end, LaneSums* lanes) {
  const bool disk = k.disk_full > 0;
  for (int t = begin; t < end; ++t) {
    const int lane = t % 4;
    const double cpu = Sample(cpu_in, t) + k.cpu_overhead;
    const double ram = Sample(ram_in, t) + k.ram_overhead;
    const double rate = disk ? Sample(rate_in, t) : 0.0;
    const double u_cpu = cpu / k.cpu_full;
    const double u_ram = ram / k.ram_full;
    const double u_disk = disk ? rate / k.disk_full : 0.0;
    const double load = (k.cpu_weight * std::min(u_cpu, kClip) +
                         k.ram_weight * std::min(u_ram, kClip) +
                         k.disk_weight * std::min(u_disk, kClip)) /
                        k.weight_sum;
    lanes->exp_sum[lane] += KernelExp(std::min(load, 1.0));
    // A within-capacity sample adds an exact +0.0, which the vector paths
    // add and this path skips: the lane sums are never -0.0, so both give
    // the same bits.
    double& excess = lanes->excess_sum[lane];
    if (cpu > k.cpu_limit) excess += cpu / k.cpu_limit - 1.0;
    if (ram > k.ram_limit) excess += ram / k.ram_limit - 1.0;
    if (disk && rate > k.disk_limit) excess += rate / k.disk_limit - 1.0;
  }
}

PricingSums Fold(const LaneSums& lanes) {
  PricingSums sums;
  sums.exp_sum = (lanes.exp_sum[0] + lanes.exp_sum[1]) +
                 (lanes.exp_sum[2] + lanes.exp_sum[3]);
  sums.excess_sum = (lanes.excess_sum[0] + lanes.excess_sum[1]) +
                    (lanes.excess_sum[2] + lanes.excess_sum[3]);
  return sums;
}

// --- The vector paths: one body, in GCC and Clang vector extensions,
// --- whose operations act lane by lane. A group of four samples is one
// --- 4-lane vector (the AVX2 build) or two 2-lane vectors, lanes (0, 1) and
// --- (2, 3) (the baseline build: SSE2 on x86-64); either way each lane
// --- takes the per-lane function's operations in its order, so both builds
// --- give that function's bits. The helpers are always inlined and take
// --- vectors by reference: a 4-lane vector passed or returned by value
// --- would change the calling convention of the baseline build.

typedef double V2 __attribute__((vector_size(16)));
typedef double V4 __attribute__((vector_size(32)));

#define KAIROS_LANES inline __attribute__((always_inline))

/// True when any lane of a comparison's result is set.
template <typename M>
KAIROS_LANES bool AnyLane(const M& m) {
  auto any = m[0];
  for (unsigned i = 1; i < sizeof(M) / sizeof(any); ++i) any |= m[i];
  return any != 0;
}

/// *u = std::min(*u, c) lane by lane: (c < u) ? c : u, NaN lanes included.
template <typename V>
KAIROS_LANES void Clip(double c, V* u) {
  *u = (c < *u) ? c : *u;
}

/// Samples t to t + width - 1 of an axis.
template <typename V>
KAIROS_LANES void Load(const AxisSeries& s, int t, V* v) {
  std::memcpy(v, s.base + t, sizeof(V));
  V w;
  if (s.minus != nullptr) {
    std::memcpy(&w, s.minus + t, sizeof(w));
    *v = *v - w;
  }
  if (s.plus != nullptr) {
    std::memcpy(&w, s.plus + t, sizeof(w));
    *v = *v + w;
  }
}

/// KernelExp's polynomial lane by lane, for lanes in its domain. (zero + c
/// puts c in every lane.)
template <typename V>
KAIROS_LANES void PolyExp(const V& x, V* p) {
  const V zero = {};
  const auto hi = x > kHalfLn2;
  const V r = (x - (hi ? kLn2Hi : zero)) - (hi ? kLn2Lo : zero);
  *p = zero + kExpCoeff[kExpDegree];
  for (int i = kExpDegree - 1; i >= 0; --i) *p = *p * r + kExpCoeff[i];
  *p = *p * (hi ? 2.0 : zero + 1.0);
}

/// Prices the samples at `at` into one vector's running sums, and clears
/// in *in_domain the lanes whose exp argument lies outside the polynomial's
/// domain. Lanes within every limit add +0.0 to the excess sum, where the
/// per-lane function adds nothing; with no lane over a limit the divisions
/// are skipped. `clip` and `one` are kClip and 1.0.
template <typename V, typename M>
KAIROS_LANES void PriceVector(const PricingConstants& k, bool disk,
                              const AxisSeries& cpu_in,
                              const AxisSeries& ram_in,
                              const AxisSeries& rate_in, int at, double clip,
                              double one, V* exp_sum, V* excess_sum,
                              M* in_domain) {
  const V zero = {};
  V cpu, ram, rate = {};
  Load(cpu_in, at, &cpu);
  Load(ram_in, at, &ram);
  if (disk) Load(rate_in, at, &rate);
  cpu = cpu + k.cpu_overhead;
  ram = ram + k.ram_overhead;
  V u_cpu = cpu / k.cpu_full, u_ram = ram / k.ram_full, u_disk = {};
  if (disk) u_disk = rate / k.disk_full;
  Clip(clip, &u_cpu);
  Clip(clip, &u_ram);
  Clip(clip, &u_disk);
  V load = (k.cpu_weight * u_cpu + k.ram_weight * u_ram +
            k.disk_weight * u_disk) /
           k.weight_sum;
  Clip(one, &load);
  V p;
  PolyExp(load, &p);
  *exp_sum += p;
  *in_domain &= load >= kKernelExpLo;
  const M over_cpu = cpu > k.cpu_limit, over_ram = ram > k.ram_limit;
  M over_rate = {};
  if (disk) over_rate = rate > k.disk_limit;
  if (!AnyLane(over_cpu | over_ram | over_rate)) return;
  *excess_sum += over_cpu ? cpu / k.cpu_limit - 1.0 : zero;
  *excess_sum += over_ram ? ram / k.ram_limit - 1.0 : zero;
  if (disk) *excess_sum += over_rate ? rate / k.disk_limit - 1.0 : zero;
}

/// Prices the whole groups of four samples as 4 / width vectors of type
/// V, then the tail through PriceLanes. A block with a lane outside the
/// polynomial's domain (a negative sample) is priced again by PriceLanes
/// alone, which gives those lanes std::exp.
template <typename V>
KAIROS_LANES PricingSums PriceGroups(const PricingConstants& k,
                                     const AxisSeries& cpu,
                                     const AxisSeries& ram,
                                     const AxisSeries& rate, int samples) {
  using M = decltype(V{} < V{});
  constexpr int kWidth = sizeof(V) / sizeof(double);
  constexpr int kParts = 4 / kWidth;
  const bool disk = k.disk_full > 0;
  const int vector_end = samples - samples % 4;
  // With a constant bound GCC compiles Clip to a compare and a blend; an
  // opaque one gives a single min instruction.
  double clip = kClip, one = 1.0;
  asm("" : "+m"(clip), "+m"(one));
  V exp_sum[kParts] = {}, excess_sum[kParts] = {};
  M in_domain = ~M{};
  for (int t = 0; t < vector_end; t += 4) {
    for (int h = 0; h < kParts; ++h) {
      PriceVector(k, disk, cpu, ram, rate, t + h * kWidth, clip, one,
                  &exp_sum[h], &excess_sum[h], &in_domain);
    }
  }
  LaneSums lanes;
  if (AnyLane(~in_domain)) {
    PriceLanes(k, cpu, ram, rate, 0, samples, &lanes);
  } else {
    std::memcpy(lanes.exp_sum, exp_sum, sizeof(exp_sum));
    std::memcpy(lanes.excess_sum, excess_sum, sizeof(excess_sum));
    PriceLanes(k, cpu, ram, rate, vector_end, samples, &lanes);
  }
  return Fold(lanes);
}

/// The body built for the target's baseline: SSE2 on x86-64.
PricingSums PriceBaseline(const PricingConstants& k, const AxisSeries& cpu,
                          const AxisSeries& ram, const AxisSeries& rate,
                          int samples) {
  return PriceGroups<V2>(k, cpu, ram, rate, samples);
}

#ifdef KAIROS_PRICING_X86
/// The body built for AVX2. The target enables AVX2 without FMA, so no
/// multiply and add is fused and the path keeps the baseline's roundings.
__attribute__((target("avx2"))) PricingSums PriceAvx2(
    const PricingConstants& k, const AxisSeries& cpu, const AxisSeries& ram,
    const AxisSeries& rate, int samples) {
  return PriceGroups<V4>(k, cpu, ram, rate, samples);
}
#endif

using KernelFn = PricingSums (*)(const PricingConstants&, const AxisSeries&,
                                 const AxisSeries&, const AxisSeries&, int);

KernelFn KernelOf(PricingKernel kernel) {
#ifdef KAIROS_PRICING_X86
  if (kernel == PricingKernel::kAvx2) return PriceAvx2;
#endif
  return PriceBaseline;
}

}  // namespace

double KernelExp(double x) {
  if (!(x >= kKernelExpLo)) return std::exp(x);
  const bool hi = x > kHalfLn2;
  const double r = (x - (hi ? kLn2Hi : 0.0)) - (hi ? kLn2Lo : 0.0);
  double p = kExpCoeff[kExpDegree];
  for (int i = kExpDegree - 1; i >= 0; --i) p = p * r + kExpCoeff[i];
  return p * (hi ? 2.0 : 1.0);
}

PricingKernel ActivePricingKernel() {
  static const PricingKernel kernel = [] {
#ifdef KAIROS_PRICING_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return PricingKernel::kAvx2;
#endif
    return PricingKernel::kBaseline;
  }();
  return kernel;
}

const char* PricingKernelName(PricingKernel kernel) {
  if (kernel == PricingKernel::kAvx2) return "avx2";
#ifdef KAIROS_PRICING_X86
  return "sse2";
#else
  return "portable";
#endif
}

const char* PricingKernelName() {
  return PricingKernelName(ActivePricingKernel());
}

bool PricingKernelRuns(PricingKernel kernel) {
  return kernel == PricingKernel::kBaseline ||
         ActivePricingKernel() == PricingKernel::kAvx2;
}

PricingSums PriceSamples(const PricingConstants& constants,
                         const AxisSeries& cpu, const AxisSeries& ram,
                         const AxisSeries& rate, int samples) {
  static const KernelFn active = KernelOf(ActivePricingKernel());
  return active(constants, cpu, ram, rate, samples);
}

PricingSums PriceSamplesOn(PricingKernel kernel,
                           const PricingConstants& constants,
                           const AxisSeries& cpu, const AxisSeries& ram,
                           const AxisSeries& rate, int samples) {
  assert(PricingKernelRuns(kernel));
  return KernelOf(kernel)(constants, cpu, ram, rate, samples);
}

}  // namespace kairos::core
