#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"
#include "numerics/integration.hpp"
#include "numerics/optimize.hpp"
#include "numerics/special_functions.hpp"
#include "processes/lsv_map.hpp"
#include "processes/noncausal_ma.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace kernel {
namespace {

class KernelSweepTest : public testing::TestWithParam<KernelType> {};

TEST_P(KernelSweepTest, UnitMass) {
  const Kernel k(GetParam());
  const double mass = numerics::IntegrateFunction(
      [&](double u) { return k.Evaluate(u); }, -k.support_radius(),
      k.support_radius(), 4096);
  EXPECT_NEAR(mass, 1.0, 1e-6);
}

TEST_P(KernelSweepTest, Symmetry) {
  const Kernel k(GetParam());
  for (double u : {0.1, 0.33, 0.8, 0.99}) {
    EXPECT_DOUBLE_EQ(k.Evaluate(u), k.Evaluate(-u));
  }
}

TEST_P(KernelSweepTest, CdfEndpointsAndMidpoint) {
  const Kernel k(GetParam());
  EXPECT_DOUBLE_EQ(k.Cdf(-k.support_radius() - 1.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Cdf(k.support_radius() + 1.0), 1.0);
  EXPECT_NEAR(k.Cdf(0.0), 0.5, 1e-6);
}

TEST_P(KernelSweepTest, EvaluateManyBitIdenticalToScalar) {
  const Kernel k(GetParam());
  stats::Rng rng(71);
  std::vector<double> us;
  for (int i = 0; i < 500; ++i) {
    us.push_back(rng.Uniform(-k.support_radius() - 1.0, k.support_radius() + 1.0));
  }
  // The exact branch points of the scalar paths.
  us.push_back(-k.support_radius());
  us.push_back(k.support_radius());
  us.push_back(-1.0);
  us.push_back(0.0);
  us.push_back(1.0);
  std::vector<double> batch(us.size());
  k.EvaluateMany(us, batch);
  for (size_t i = 0; i < us.size(); ++i) {
    EXPECT_EQ(batch[i], k.Evaluate(us[i])) << k.name() << " u=" << us[i];
  }
  k.CdfMany(us, batch);
  for (size_t i = 0; i < us.size(); ++i) {
    EXPECT_EQ(batch[i], k.Cdf(us[i])) << k.name() << " u=" << us[i];
  }
}

TEST_P(KernelSweepTest, SelfConvolutionIsADensity) {
  const Kernel k(GetParam());
  const double mass = numerics::IntegrateFunction(
      [&](double t) { return k.SelfConvolution(t); }, -2.0 * k.support_radius(),
      2.0 * k.support_radius(), 4096);
  EXPECT_NEAR(mass, 1.0, 1e-4);
  EXPECT_GT(k.Roughness(), 0.0);
  // K*K peaks at 0 for symmetric unimodal kernels.
  EXPECT_GE(k.SelfConvolution(0.0), k.SelfConvolution(0.5));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSweepTest,
                         testing::Values(KernelType::kEpanechnikov,
                                         KernelType::kGaussian, KernelType::kBiweight,
                                         KernelType::kTriangular));

TEST(EpanechnikovTest, ClosedFormValues) {
  const Kernel k(KernelType::kEpanechnikov);
  EXPECT_DOUBLE_EQ(k.Evaluate(0.0), 0.75);
  EXPECT_DOUBLE_EQ(k.Evaluate(0.5), 0.75 * 0.75);
  EXPECT_DOUBLE_EQ(k.Evaluate(1.1), 0.0);
  // CDF closed form: (2 + 3u − u³)/4 inside the support, saturated outside;
  // Cdf ≡ CdfMany bitwise is pinned by the kernel sweep above.
  for (int i = -1100; i <= 1100; ++i) {
    const double u = static_cast<double>(i) / 1000.0;
    const long double lu = u;
    const long double exact =
        u <= -1.0 ? 0.0L : (u >= 1.0 ? 1.0L : 0.25L * (2.0L + 3.0L * lu - lu * lu * lu));
    EXPECT_NEAR(k.Cdf(u), static_cast<double>(exact), 1e-15) << "u=" << u;
  }
  // Roughness ∫K² = 3/5.
  EXPECT_NEAR(k.Roughness(), 0.6, 1e-5);
}

TEST(EpanechnikovTest, SelfConvolutionClosedForm) {
  const Kernel k(KernelType::kEpanechnikov);
  // (K*K)(t) = (3/160)(2−|t|)³(t² + 6|t| + 4) on |t| ≤ 2.
  for (double t : {0.0, 0.4, 1.0, 1.7}) {
    const double a = std::fabs(t);
    const double expected =
        3.0 / 160.0 * std::pow(2.0 - a, 3.0) * (a * a + 6.0 * a + 4.0);
    EXPECT_NEAR(k.SelfConvolution(t), expected, 1e-5) << "t=" << t;
    EXPECT_NEAR(k.SelfConvolution(-t), expected, 1e-5);
  }
  EXPECT_NEAR(k.SelfConvolution(2.1), 0.0, 1e-12);
}

TEST(GaussianKernelTest, SelfConvolutionIsWiderGaussian) {
  const Kernel k(KernelType::kGaussian);
  // K*K for N(0,1) is the N(0,2) density.
  for (double t : {0.0, 0.7, 1.9}) {
    EXPECT_NEAR(k.SelfConvolution(t),
                numerics::NormalPdf(t / std::sqrt(2.0)) / std::sqrt(2.0), 1e-6);
  }
}

// ---------------------------------------------------------------------- KDE

TEST(KdeTest, RejectsBadInput) {
  const Kernel k(KernelType::kEpanechnikov);
  EXPECT_FALSE(KernelDensityEstimator::Create(k, 0.1, {}).ok());
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_FALSE(KernelDensityEstimator::Create(k, 0.0, xs).ok());
  EXPECT_FALSE(KernelDensityEstimator::Create(k, -1.0, xs).ok());
}

TEST(KdeTest, RejectsNonFiniteSamples) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> hostile = {
      {0.1, 0.2, nan, 0.4, 0.5}, {nan, 0.2, 0.3}, {0.1, 0.2, nan},
      {0.1, 0.2, 1e300, inf},    {-inf, 0.1, 0.2}, {0.1, inf, inf},
      {nan}};
  for (KernelType type : {KernelType::kEpanechnikov, KernelType::kGaussian}) {
    const Kernel k(type);
    for (const std::vector<double>& xs : hostile) {
      const Result<KernelDensityEstimator> created =
          KernelDensityEstimator::Create(k, 0.1, xs);
      ASSERT_FALSE(created.ok()) << k.name();
      EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
      const Result<KernelDensityEstimator> adopted =
          KernelDensityEstimator::FromSorted(k, 0.1, xs, nullptr);
      ASSERT_FALSE(adopted.ok()) << k.name();
      EXPECT_EQ(adopted.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ------------------------------------------------- Epanechnikov moment tree

/// F̂(x) = n⁻¹ Σ K_cdf((x − X_i)/h) in long double over every sample.
double DirectCubicCdf(std::span<const double> xs, double x, double h) {
  long double acc = 0.0L;
  for (double xi : xs) {
    const long double u = (static_cast<long double>(x) - xi) / h;
    if (u >= 1.0L) {
      acc += 1.0L;
    } else if (u > -1.0L) {
      acc += 0.5L + u * (0.75L - 0.25L * u * u);
    }
  }
  return static_cast<double>(acc / static_cast<long double>(xs.size()));
}

/// The documented CdfAt bound ε·(2 + 16·(B + 64·⌈log₂ L⌉)·w/n), with w
/// the samples strictly inside the kernel window around x.
double CdfAtBound(std::span<const double> sorted, double x, double h) {
  const size_t n = sorted.size();
  size_t window = 0;
  for (double xi : sorted) {
    const double u = (x - xi) / h;
    if (u > -1.0 && u < 1.0) ++window;
  }
  const size_t leaves =
      (n + KernelDensityEstimator::kLeafSize - 1) / KernelDensityEstimator::kLeafSize;
  size_t log_leaves = 0;
  while ((size_t{1} << log_leaves) < leaves) ++log_leaves;
  const double b = static_cast<double>(KernelDensityEstimator::kLeafSize);
  return std::numeric_limits<double>::epsilon() *
         (2.0 + 16.0 * (b + 64.0 * static_cast<double>(log_leaves)) *
                    static_cast<double>(window) / static_cast<double>(n));
}

/// Probes below, across and above the data: a uniform sweep plus every
/// window edge of a few samples.
std::vector<double> ProbesFor(std::span<const double> sorted, double h) {
  const double lo = sorted.front() - 2.0 * h;
  const double hi = sorted.back() + 2.0 * h;
  std::vector<double> xs;
  for (int i = 0; i <= 200; ++i) xs.push_back(lo + (hi - lo) * i / 200.0);
  for (size_t i = 0; i < sorted.size(); i += std::max<size_t>(1, sorted.size() / 7)) {
    for (double offset : {-h, -0.5 * h, 0.0, 0.5 * h, h}) {
      xs.push_back(sorted[i] + offset);
    }
  }
  return xs;
}

void ExpectTreeMatchesOracle(std::vector<double> data, double h) {
  const Result<KernelDensityEstimator> kde =
      KernelDensityEstimator::Create(Kernel::Shared(KernelType::kEpanechnikov), h, data);
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  const std::span<const double> sorted = kde->samples();
  for (double x : ProbesFor(sorted, h)) {
    const double got = kde->CdfAt(x);
    EXPECT_NEAR(got, DirectCubicCdf(sorted, x, h), CdfAtBound(sorted, x, h))
        << "n=" << sorted.size() << " h=" << h << " x=" << x;
    EXPECT_GE(got, -1e-15);
    EXPECT_LE(got, 1.0 + 1e-15);
  }
  EXPECT_EQ(kde->CdfAt(sorted.front() - 2.0 * h), 0.0);
  EXPECT_EQ(kde->CdfAt(sorted.back() + 2.0 * h), 1.0);
}

std::vector<double> UniformSample(uint64_t seed, size_t n, double lo, double hi) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.Uniform(lo, hi);
  return xs;
}

TEST(KdeMomentTreeTest, MatchesDirectCubicSumAcrossSizes) {
  // Sizes around the leaf width (one partial leaf, exactly one leaf, one
  // full leaf plus one sample) and well past it.
  for (size_t n : {size_t{4}, size_t{63}, size_t{64}, size_t{65}, size_t{4097},
                   size_t{200000}}) {
    std::vector<double> xs = UniformSample(41 + n, n, 0.0, 1.0);
    ExpectTreeMatchesOracle(xs, RuleOfThumbBandwidth(xs));
  }
}

TEST(KdeMomentTreeTest, WindowsInsideOneLeafAndAcrossManyLeaves) {
  const std::vector<double> xs = UniformSample(43, 4097, 0.0, 1.0);
  // ~0.08 samples per window: nearly every window sits inside one leaf.
  ExpectTreeMatchesOracle(xs, 1e-5);
  // Most of the sample in every window: dozens of covering nodes.
  ExpectTreeMatchesOracle(xs, 0.3);
  // Wider than the data: no sample ever saturates.
  ExpectTreeMatchesOracle(xs, 5.0);
}

TEST(KdeMomentTreeTest, DuplicateHeavyData) {
  // 20000 samples on 17 distinct values: leaves and whole subtrees of equal
  // keys, windows whose edges fall inside runs of duplicates.
  std::vector<double> xs = UniformSample(47, 20000, 0.0, 1.0);
  for (double& x : xs) x = std::round(x * 16.0) / 16.0;
  ExpectTreeMatchesOracle(xs, 0.05);
  ExpectTreeMatchesOracle(xs, 0.0625);
  ExpectTreeMatchesOracle(xs, 0.4);
}

TEST(KdeMomentTreeTest, ShiftedDomainKeepsTheBound) {
  // Data at [1e6, 1e6 + 1]: a global-shift prefix sum would lose ~20 bits
  // to cancellation here; node-centred moments lose none.
  std::vector<double> xs = UniformSample(53, 50000, 1e6, 1e6 + 1.0);
  ExpectTreeMatchesOracle(xs, RuleOfThumbBandwidth(xs));
  ExpectTreeMatchesOracle(xs, 0.2);
}

TEST(KdeMomentTreeTest, TinyBandwidth) {
  // h = 1e-200 over [0, 1]: nodes spanning distinct values overflow their
  // moments, and no window may ever read them. Only duplicate runs share a
  // window, so those runs must be counted exactly.
  std::vector<double> xs = UniformSample(59, 30000, 0.0, 1.0);
  for (double& x : xs) x = std::round(x * 8.0) / 8.0;
  const double h = 1e-200;
  const Result<KernelDensityEstimator> kde =
      KernelDensityEstimator::Create(Kernel::Shared(KernelType::kEpanechnikov), h, xs);
  ASSERT_TRUE(kde.ok());
  const std::span<const double> sorted = kde->samples();
  for (double x : {-1.0, 0.0, 0.0625, 0.125, 0.5, 0.75, 1.0, 2.0}) {
    for (double offset : {-0.5 * h, 0.0, 0.5 * h}) {
      EXPECT_NEAR(kde->CdfAt(x + offset), DirectCubicCdf(sorted, x + offset, h),
                  CdfAtBound(sorted, x + offset, h))
          << "x=" << x << " offset=" << offset;
    }
  }
  ExpectTreeMatchesOracle(UniformSample(61, 5000, 0.0, 1.0), 1e-9);
}

TEST(KdeMomentTreeTest, AgreesWithIntegrateRangeAndIsDeterministic) {
  const std::vector<double> xs = UniformSample(67, 20000, 0.0, 1.0);
  const double h = RuleOfThumbBandwidth(xs);
  const Result<KernelDensityEstimator> kde =
      KernelDensityEstimator::Create(Kernel::Shared(KernelType::kEpanechnikov), h, xs);
  ASSERT_TRUE(kde.ok());
  // The same sorted buffer always rebuilds the same tree: a FromSorted twin
  // answers bitwise-identically.
  const Result<KernelDensityEstimator> twin = KernelDensityEstimator::FromSorted(
      Kernel::Shared(KernelType::kEpanechnikov), h, kde->samples(), nullptr);
  ASSERT_TRUE(twin.ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : ProbesFor(kde->samples(), h)) {
    EXPECT_EQ(twin->CdfAt(x), kde->CdfAt(x)) << "x=" << x;
    EXPECT_NEAR(kde->CdfAt(x), kde->IntegrateRange(-inf, x), 1e-12) << "x=" << x;
  }
}

TEST(KdeMomentTreeTest, KdeRotQuantileAndCdfRoundTrip) {
  selectivity::KdeSelectivity est(selectivity::KdeSelectivity::Options{});
  stats::Rng rng(71);
  for (int i = 0; i < 100000; ++i) {
    est.Insert(rng.Bernoulli(0.5) ? rng.Gaussian(0.3, 0.05) : rng.Gaussian(0.7, 0.1));
  }
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = est.Answer(selectivity::Query::Quantile(p));
    EXPECT_NEAR(est.Answer(selectivity::Query::Cdf(q)), p, 1e-9) << "p=" << p;
  }
}

/// f̂(x) = (nh)⁻¹ Σ ¾(1 − u²) in long double over every sample.
double DirectDensity(std::span<const double> xs, double x, double h) {
  long double acc = 0.0L;
  for (double xi : xs) {
    const long double u = (static_cast<long double>(x) - xi) / h;
    if (u > -1.0L && u < 1.0L) acc += 0.75L * (1.0L - u * u);
  }
  return static_cast<double>(acc / (static_cast<long double>(xs.size()) * h));
}

TEST(KdeMomentTreeTest, CdfAndDensityAtSharesCdfAtAndTracksTheDensity) {
  // The CDF half is CdfAt bitwise. The density half sums derivative
  // polynomials whose coefficients are at most 3× the CDF's, so it inherits
  // CdfAt's bound scaled by 3/h (one more ε-term for the final division).
  const std::vector<std::pair<std::vector<double>, double>> cases = {
      {UniformSample(73, 4097, 0.0, 1.0), 0.0},
      {UniformSample(79, 200000, 0.0, 1.0), 0.0},
      {UniformSample(83, 50000, 1e6, 1e6 + 1.0), 0.0},
      {UniformSample(89, 4097, 0.0, 1.0), 1e-5},
      {UniformSample(97, 4097, 0.0, 1.0), 0.3},
  };
  for (const auto& [data, fixed_h] : cases) {
    const double h = fixed_h > 0.0 ? fixed_h : RuleOfThumbBandwidth(data);
    const Result<KernelDensityEstimator> kde = KernelDensityEstimator::Create(
        Kernel::Shared(KernelType::kEpanechnikov), h, data);
    ASSERT_TRUE(kde.ok());
    const std::span<const double> sorted = kde->samples();
    for (double x : ProbesFor(sorted, h)) {
      const KernelDensityEstimator::CdfAndDensity fused = kde->CdfAndDensityAt(x);
      EXPECT_EQ(fused.cdf, kde->CdfAt(x)) << "n=" << sorted.size() << " x=" << x;
      const double bound =
          3.0 * CdfAtBound(sorted, x, h) / h +
          std::numeric_limits<double>::epsilon() * std::fabs(fused.density);
      EXPECT_NEAR(fused.density, DirectDensity(sorted, x, h), bound)
          << "n=" << sorted.size() << " h=" << h << " x=" << x;
    }
  }
  // Kernels without a moment tree answer CdfAt and Evaluate.
  const std::vector<double> xs = UniformSample(101, 3000, 0.0, 1.0);
  const Result<KernelDensityEstimator> gaussian =
      KernelDensityEstimator::Create(Kernel::Shared(KernelType::kGaussian), 0.05, xs);
  ASSERT_TRUE(gaussian.ok());
  for (double x : ProbesFor(gaussian->samples(), 0.05)) {
    EXPECT_EQ(gaussian->CdfAndDensityAt(x).cdf, gaussian->CdfAt(x)) << "x=" << x;
    EXPECT_EQ(gaussian->CdfAndDensityAt(x).density, gaussian->Evaluate(x)) << "x=" << x;
  }
}

// ------------------------------------------------------ saturation split

/// The split as two std::partition_point searches with the predicates of
/// Kernel::Cdf's saturation branches: the reference SaturationSplit must
/// reproduce bitwise.
std::pair<size_t, size_t> PartitionPointSplit(std::span<const double> sorted,
                                              double x, double h, double radius) {
  const auto ones_end = std::partition_point(
      sorted.begin(), sorted.end(),
      [&](double xi) { return (x - xi) / h >= radius; });
  const auto zeros_begin = std::partition_point(
      ones_end, sorted.end(), [&](double xi) { return (x - xi) / h > -radius; });
  return {static_cast<size_t>(ones_end - sorted.begin()),
          static_cast<size_t>(zeros_begin - sorted.begin())};
}

/// Probes that put x ∓ R·h on, and a few ulps around, every `stride`-th
/// sample, plus the uniform sweep of ProbesFor and points far outside the
/// data.
std::vector<double> SplitProbesFor(std::span<const double> sorted, double reach,
                                   size_t stride) {
  std::vector<double> xs = ProbesFor(sorted, reach);
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < sorted.size(); i += stride) {
    for (double centre : {sorted[i] - reach, sorted[i], sorted[i] + reach}) {
      double below = centre;
      double above = centre;
      xs.push_back(centre);
      for (int ulp = 0; ulp < 3; ++ulp) {
        below = std::nextafter(below, -inf);
        above = std::nextafter(above, inf);
        xs.push_back(below);
        xs.push_back(above);
      }
    }
  }
  for (double far : {1e6, 1e300, std::numeric_limits<double>::max(), inf}) {
    xs.push_back(sorted.back() + far);
    xs.push_back(sorted.front() - far);
  }
  return xs;
}

void ExpectSplitMatchesPartitionPoint(KernelType type, std::vector<double> data,
                                      double h, size_t stride = 0) {
  const Result<KernelDensityEstimator> kde =
      KernelDensityEstimator::Create(Kernel::Shared(type), h, data);
  ASSERT_TRUE(kde.ok()) << kde.status().ToString();
  const std::span<const double> sorted = kde->samples();
  const double radius = kde->kernel().support_radius();
  if (stride == 0) stride = std::max<size_t>(1, sorted.size() / 61);
  for (double x : SplitProbesFor(sorted, radius * h, stride)) {
    const std::pair<size_t, size_t> want = PartitionPointSplit(sorted, x, h, radius);
    ASSERT_EQ(kde->SaturationSplit(x), want)
        << kde->kernel().name() << " n=" << sorted.size() << " h=" << h
        << " x=" << x;
    ASSERT_EQ(kde->CdfAt(x), kde->CdfFromSplit(x, want)) << "x=" << x;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(kde->SaturationSplit(nan), PartitionPointSplit(sorted, nan, h, radius));
}

TEST(KdeSaturationSplitTest, SizesAroundTheLeafWidth) {
  constexpr size_t kB = KernelDensityEstimator::kLeafSize;
  // n < B, n = B, n not a multiple of B, and several leaves.
  for (size_t n : {size_t{1}, size_t{2}, kB - 1, kB, kB + 1, 3 * kB + 17,
                   size_t{4097}, size_t{20000}}) {
    const std::vector<double> xs = UniformSample(201 + n, n, 0.0, 1.0);
    for (KernelType type : {KernelType::kEpanechnikov, KernelType::kGaussian}) {
      ExpectSplitMatchesPartitionPoint(type, xs, 0.02);
    }
  }
}

TEST(KdeSaturationSplitTest, KeysWithinRoundingOfASample) {
  // x = fl(X_i ± R·h) and its ulp neighbours put a sample within rounding of
  // a key at every probe. At these bandwidths a few percent of such samples
  // compare `<` against the key the opposite way from the exact predicate,
  // so a split without the margin's fix-up goes wrong here.
  const std::vector<double> xs = UniformSample(233, 1200, 0.0, 1.0);
  for (double h : {0.07, 0.3, 0.81}) {
    for (KernelType type : {KernelType::kEpanechnikov, KernelType::kGaussian}) {
      ExpectSplitMatchesPartitionPoint(type, xs, h, /*stride=*/1);
    }
  }
}

TEST(KdeSaturationSplitTest, DuplicateRunsLongerThanALeafStraddleTheKeys) {
  // 9 distinct values 1/8 apart, runs of ~5·B samples. With R·h = 1/8 every
  // x on the lattice puts both x ∓ R·h exactly on a run; with R·h = 3/16
  // the keys land between runs; at 0.07 inside one run's neighbourhood.
  std::vector<double> xs = UniformSample(211, 3000, 0.0, 1.0);
  for (double& x : xs) x = std::round(x * 8.0) / 8.0;
  for (double h : {0.125, 0.1875, 0.07}) {
    ExpectSplitMatchesPartitionPoint(KernelType::kEpanechnikov, xs, h);
  }
  // Every sample equal: one run spanning all leaves.
  ExpectSplitMatchesPartitionPoint(KernelType::kEpanechnikov,
                                   std::vector<double>(1000, 0.25), 0.25);
}

TEST(KdeSaturationSplitTest, ExtremeBandwidths) {
  std::vector<double> xs = UniformSample(223, 5000, 0.0, 1.0);
  for (double& x : xs) x = std::round(x * 64.0) / 64.0;
  // h = 1e-200: the margin dwarfs R·h, so every duplicate run on x goes
  // through the exact fix-up. h ≫ the data range: nothing saturates.
  for (double h : {1e-200, 1e-9, 1e3, 1e200}) {
    ExpectSplitMatchesPartitionPoint(KernelType::kEpanechnikov, xs, h);
  }
}

TEST(KdeSaturationSplitTest, ShiftedDomain) {
  // Data at [1e6, 1e6 + 1]: x ∓ R·h rounds at ~1.2e-10, far above the
  // rounding of u near ±R.
  const std::vector<double> xs = UniformSample(227, 20000, 1e6, 1e6 + 1.0);
  for (double h : {0.02, 1e-9}) {
    ExpectSplitMatchesPartitionPoint(KernelType::kEpanechnikov, xs, h);
    ExpectSplitMatchesPartitionPoint(KernelType::kGaussian, xs, h);
  }
}

// ------------------------------------------------------ kde-rot quantiles

constexpr double kQuantileTolerance = 1e-12;

/// A fitted kde-rot estimator and the sorted samples and bandwidth it fitted,
/// rebuilt here for the long double oracle.
struct FittedKdeRot {
  FittedKdeRot(const std::vector<double>& values, double domain_lo = 0.0,
               double domain_hi = 1.0)
      : est(selectivity::KdeSelectivity::Options{domain_lo, domain_hi}) {
    est.InsertBatch(values);
    est.ForceRefit();
    for (double x : values) sorted.push_back(std::clamp(x, domain_lo, domain_hi));
    std::sort(sorted.begin(), sorted.end());
    h = RuleOfThumbBandwidthSorted(sorted);
    if (h == 0.0) h = est.EqualityWidth();
  }

  /// F̃(x) = clamp(CdfAt(x), 0, 1), the kde-rot CDF answer.
  double Cdf(double x) const { return est.Answer(selectivity::Query::Cdf(x)); }

  double Quantile(double p) const {
    return est.Answer(selectivity::Query::Quantile(p));
  }

  /// BisectMonotone over the Domain() bracket of the answered CDF: the
  /// algorithm kde-rot quantiles used before the Newton solver.
  double BisectedQuantile(double p) const {
    const selectivity::RangeQuery domain = est.Domain();
    return numerics::BisectMonotone([&](double x) { return Cdf(x); }, p,
                                    domain.lo, domain.hi);
  }

  selectivity::KdeSelectivity est;
  std::vector<double> sorted;
  double h = 0.0;
};

/// Every answer q lies in the domain and carries the bracket certificate
/// in its exact form: with F̂ the long double oracle and B CdfAt's rounding
/// bound, F̂(q − tol/2) < p + B and F̂(q + tol/2) >= p − B (an end past the
/// domain edge counts as met). F̂ is monotone, so this follows from the
/// solver's bracket [lo, hi] ∋ q, hi − lo <= tol, F̃(lo) < p <= F̃(hi)
/// whatever the rounding. Where F̃ − p changes sign once (`single_crossing`),
/// the certificate also holds for F̃ itself and the answer is within the
/// tolerance of the bisection's.
void ExpectCertifiedQuantiles(const FittedKdeRot& fit,
                              const std::vector<double>& levels,
                              bool single_crossing, const std::string& what) {
  // The oracle's samples and bandwidth are the estimator's.
  const Result<KernelDensityEstimator> mirror = KernelDensityEstimator::Create(
      Kernel::Shared(KernelType::kEpanechnikov), fit.h, fit.sorted);
  ASSERT_TRUE(mirror.ok()) << what;
  for (double x : {fit.sorted.front(), fit.sorted[fit.sorted.size() / 2],
                   fit.sorted.back() - 0.5 * fit.h}) {
    ASSERT_EQ(fit.Cdf(x), std::clamp(mirror->CdfAt(x), 0.0, 1.0)) << what;
  }
  const selectivity::RangeQuery domain = fit.est.Domain();
  const double half = 0.5 * kQuantileTolerance;
  const double slack = 4.0 * std::numeric_limits<double>::epsilon();
  for (double p : levels) {
    const double q = fit.Quantile(p);
    EXPECT_GE(q, domain.lo) << what << " p=" << p;
    EXPECT_LE(q, domain.hi) << what << " p=" << p;
    if (q - half > domain.lo) {
      const double x = q - half;
      EXPECT_LT(DirectCubicCdf(fit.sorted, x, fit.h),
                p + CdfAtBound(fit.sorted, x, fit.h) + slack)
          << what << " p=" << p << " q=" << q;
      if (single_crossing) {
        EXPECT_LT(fit.Cdf(x), p) << what << " p=" << p << " q=" << q;
      }
    }
    if (q + half < domain.hi) {
      const double x = q + half;
      EXPECT_GE(DirectCubicCdf(fit.sorted, x, fit.h),
                p - CdfAtBound(fit.sorted, x, fit.h) - slack)
          << what << " p=" << p << " q=" << q;
      if (single_crossing) {
        EXPECT_GE(fit.Cdf(x), p) << what << " p=" << p << " q=" << q;
      }
    }
    if (single_crossing) {
      EXPECT_LE(std::fabs(q - fit.BisectedQuantile(p)), kQuantileTolerance)
          << what << " p=" << p << " q=" << q;
    }
  }
}

/// Levels on a 1/64 grid, random levels, and levels equal to F̃ at a few
/// points (a crossing exactly at an attained CDF value).
std::vector<double> SmoothLevels(const FittedKdeRot& fit, uint64_t seed) {
  std::vector<double> levels{1e-9, 1.0 - 1e-9};
  for (int i = 1; i < 64; ++i) levels.push_back(i / 64.0);
  stats::Rng rng(seed);
  for (int i = 0; i < 64; ++i) levels.push_back(rng.UniformDouble());
  for (double x : {0.05, 0.25, 0.5, 0.75, 0.95}) levels.push_back(fit.Cdf(x));
  return levels;
}

TEST(KdeRotQuantileTest, CertifiedAndWithinToleranceOfBisection) {
  stats::Rng rng(103);
  std::vector<double> bimodal(20000);
  for (double& x : bimodal) {
    x = rng.Bernoulli(0.5) ? rng.Gaussian(0.3, 0.05) : rng.Gaussian(0.7, 0.1);
  }
  // The paper's dependent streams: Case 3's non-causal MA and the LSV map,
  // whose mass piles up at 0 and spills past the domain's lower edge.
  const std::vector<double> noncausal_ma =
      processes::NoncausalMaProcess(0.02).Path(20000, rng);
  const std::vector<double> lsv = processes::LsvMapProcess(0.8).Path(20000, rng);
  const std::vector<std::pair<const char*, const std::vector<double>*>> streams = {
      {"iid bimodal", &bimodal}, {"noncausal-ma", &noncausal_ma}, {"lsv", &lsv}};
  for (const auto& [name, values] : streams) {
    const FittedKdeRot fit(*values);
    ExpectCertifiedQuantiles(fit, SmoothLevels(fit, 107), true, name);
  }
}

TEST(KdeRotQuantileTest, PlateauAtTheLevelFollowsTheBisectionCrossingRule) {
  // Two clusters more than 2h apart: F̃ is exactly the left cluster's mass
  // k/n on the gap. At p = k/n the crossing is the first x with F̃(x) >= p,
  // the gap's left end x_e = X_(k) + h, where F̂ meets p tangentially:
  // F̂(x_e − δ) = p − ¾(δ/h)²/n. Within δ_band = h·√(2nB/0.75) of x_e that
  // gap is below twice CdfAt's rounding bound B, so F̃ − p may change sign
  // more than once there, and Newton and bisection may settle on different
  // changes. Both must sit in that band, not elsewhere on the plateau.
  std::vector<double> values = UniformSample(109, 1000, 0.10, 0.20);
  const std::vector<double> right = UniformSample(113, 1000, 0.80, 0.90);
  values.insert(values.end(), right.begin(), right.end());
  const FittedKdeRot fit(values);
  ASSERT_GT(0.80 - 0.20, 2.0 * fit.h);
  const double p = 1000.0 / 2000.0;
  ASSERT_EQ(fit.Cdf(0.5), p);
  ExpectCertifiedQuantiles(fit, {p}, false, "plateau");
  const double edge = fit.sorted[999] + fit.h;
  const double band =
      fit.h * std::sqrt(2.0 * 2000.0 * CdfAtBound(fit.sorted, edge, fit.h) / 0.75);
  for (double q : {fit.Quantile(p), fit.BisectedQuantile(p)}) {
    EXPECT_GE(q, edge - band - kQuantileTolerance) << "q=" << q;
    EXPECT_LE(q, edge + kQuantileTolerance) << "q=" << q;
  }
}

TEST(KdeRotQuantileTest, EdgeCases) {
  // p = 0 and p = 1 on smooth data whose CDF reaches 1 inside the domain:
  // 0 answers the lower edge, 1 meets F̂ = 1 tangentially at X_(n) + h.
  const FittedKdeRot inner(UniformSample(157, 5000, 0.3, 0.6));
  ExpectCertifiedQuantiles(inner, {0.0, 1.0}, false, "p in {0, 1}");
  EXPECT_EQ(inner.Quantile(0.0), 0.0);
  EXPECT_LE(inner.Quantile(1.0), inner.sorted.back() + inner.h + kQuantileTolerance);
  // n = 4, the smallest sample kde-rot fits (levels off its plateaus).
  const FittedKdeRot four({0.2, 0.4, 0.45, 0.9});
  ExpectCertifiedQuantiles(four, {0.1, 0.3, 0.6, 0.7, 0.8, 0.95}, true, "n=4");
  ExpectCertifiedQuantiles(four, {0.0, 0.25, 0.5, 0.75, 1.0}, false, "n=4 plateaus");
  // All samples equal: no rule-of-thumb bandwidth exists, and the declared
  // resolution, domain/1024, smooths the point mass.
  const FittedKdeRot equal(std::vector<double>(500, 0.375));
  EXPECT_EQ(equal.h, 1.0 / 1024.0);
  EXPECT_EQ(equal.Cdf(0.375 - 0.01), 0.0);
  EXPECT_EQ(equal.Cdf(0.375 + 0.01), 1.0);
  ExpectCertifiedQuantiles(equal, SmoothLevels(equal, 127), true, "all equal");
  // Mass spilling past both domain edges: F̃(lo) > 0 and F̃(hi) < 1, so low
  // and high levels cross at the edges themselves. The clusters' masses
  // differ so the plateau between them sits at 0.4, checked on its own.
  std::vector<double> spill = UniformSample(131, 4000, 0.0, 0.05);
  const std::vector<double> top = UniformSample(137, 6000, 0.95, 1.0);
  spill.insert(spill.end(), top.begin(), top.end());
  const FittedKdeRot edges(spill);
  const double below = edges.Cdf(0.0);
  const double above = edges.Cdf(1.0);
  ASSERT_GT(below, 0.01);
  ASSERT_LT(above, 0.99);
  std::vector<double> levels{0.5 * below, below, 0.5 * (1.0 + above), above};
  for (int i = 1; i < 64; ++i) levels.push_back(i / 64.0);
  ExpectCertifiedQuantiles(edges, levels, true, "spill");
  ExpectCertifiedQuantiles(edges, {0.0, 0.4, 1.0}, false, "spill plateau");
  EXPECT_EQ(edges.Quantile(0.5 * below), 0.0);
  EXPECT_EQ(edges.Quantile(0.5 * (1.0 + above)), 1.0);
  // A shifted domain keeps the bracket's absolute tolerance meaningful.
  const FittedKdeRot shifted(UniformSample(149, 5000, -3.0, 5.0), -3.0, 5.0);
  ExpectCertifiedQuantiles(shifted, SmoothLevels(shifted, 163), true, "shifted");
}

TEST(KdeTest, IntegratesToOne) {
  stats::Rng rng(3);
  std::vector<double> xs(500);
  for (double& x : xs) x = rng.UniformDouble();
  const auto kde = KernelDensityEstimator::Create(
      Kernel(KernelType::kEpanechnikov), 0.1, xs);
  ASSERT_TRUE(kde.ok());
  const double mass = numerics::IntegrateFunction(
      [&](double x) { return kde->Evaluate(x); }, -0.5, 1.5, 4096);
  EXPECT_NEAR(mass, 1.0, 1e-3);
  EXPECT_NEAR(kde->IntegrateRange(-0.5, 1.5), 1.0, 1e-6);
}

TEST(KdeTest, SinglePointMass) {
  const std::vector<double> xs{0.5};
  const auto kde = KernelDensityEstimator::Create(
      Kernel(KernelType::kEpanechnikov), 0.25, xs);
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->Evaluate(0.5), 0.75 / 0.25, 1e-12);  // K(0)/h
  EXPECT_DOUBLE_EQ(kde->Evaluate(0.76), 0.0);
  EXPECT_DOUBLE_EQ(kde->Evaluate(0.24), 0.0);
}

TEST(KdeTest, RecoversGaussianDensity) {
  stats::Rng rng(5);
  std::vector<double> xs(8000);
  for (double& x : xs) x = rng.Gaussian();
  const double h = RuleOfThumbBandwidth(xs);
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), h, xs);
  ASSERT_TRUE(kde.ok());
  for (double x : {-1.0, 0.0, 1.0}) {
    EXPECT_NEAR(kde->Evaluate(x), numerics::NormalPdf(x), 0.03) << "x=" << x;
  }
}

TEST(KdeTest, IntegrateRangeMatchesQuadrature) {
  stats::Rng rng(7);
  std::vector<double> xs(300);
  for (double& x : xs) x = rng.UniformDouble();
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), 0.07, xs);
  ASSERT_TRUE(kde.ok());
  const double direct = numerics::IntegrateFunction(
      [&](double x) { return kde->Evaluate(x); }, 0.2, 0.7, 4096);
  EXPECT_NEAR(kde->IntegrateRange(0.2, 0.7), direct, 1e-5);
}

TEST(KdeTest, GridEvaluationMatchesPointwise) {
  const std::vector<double> xs{0.2, 0.5, 0.8};
  const auto kde =
      KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov), 0.2, xs);
  ASSERT_TRUE(kde.ok());
  const std::vector<double> grid = kde->EvaluateOnGrid(0.0, 1.0, 11);
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid[i], kde->Evaluate(0.1 * static_cast<double>(i)));
  }
}

// ---------------------------------------------------------------- bandwidth

TEST(BandwidthTest, RuleOfThumbFormula) {
  // Deterministic sample with known MATLAB quartiles.
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const double q1 = stats::Quantile(xs, 0.25, stats::QuantileMethod::kMatlab);
  const double q3 = stats::Quantile(xs, 0.75, stats::QuantileMethod::kMatlab);
  const double expected =
      (q3 - q1) / (2.0 * 0.6745) * std::pow(4.0 / (3.0 * 100.0), 0.2);
  EXPECT_NEAR(RuleOfThumbBandwidth(xs), expected, 1e-12);
}

TEST(BandwidthTest, RuleOfThumbIsZeroWithoutSpread) {
  // Zero spread answers 0, which every KDE constructor rejects, instead of
  // aborting; a spread that underflows counts as zero.
  const std::vector<double> equal(40, 0.25);
  EXPECT_EQ(RuleOfThumbBandwidth(equal), 0.0);
  EXPECT_EQ(RuleOfThumbBandwidthSorted(equal), 0.0);
  const std::vector<double> underflow{0.0, 0.0, 0.0, 5e-324};
  EXPECT_EQ(RuleOfThumbBandwidthSorted(underflow), 0.0);
  EXPECT_FALSE(KernelDensityEstimator::Create(Kernel(KernelType::kEpanechnikov),
                                              RuleOfThumbBandwidth(equal), equal)
                   .ok());
}

TEST(BandwidthTest, SelectedRuleOfThumbEqualsTheSortedOneBitwise) {
  // Selecting the four order statistics the IQR reads gives the bandwidth a
  // full sort gives, bitwise, at every small n (where the quartile indices
  // collide or hit the ends), with heavy ties, and through the zero-IQR
  // StdDev fallback, whose sum runs in sorted order.
  stats::Rng rng(13);
  for (size_t n = 2; n < 70; ++n) {
    for (const int levels : {2, 5, 1000000}) {
      std::vector<double> xs(n);
      for (double& x : xs) x = static_cast<double>(rng.UniformInt(levels));
      if (levels == 2) xs[0] = 0.5;  // mostly ties: the IQR is often zero
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      const double want = RuleOfThumbBandwidthSorted(sorted);
      std::vector<double> selected = xs;
      EXPECT_EQ(RuleOfThumbBandwidthSelect(selected), want)
          << "n=" << n << " levels=" << levels;
      EXPECT_EQ(RuleOfThumbBandwidth(xs), want);
    }
  }
}

TEST(BandwidthTest, RuleOfThumbShrinksWithN) {
  stats::Rng rng(11);
  std::vector<double> small(100), large(10000);
  for (double& x : small) x = rng.Gaussian();
  for (double& x : large) x = rng.Gaussian();
  EXPECT_GT(RuleOfThumbBandwidth(small), RuleOfThumbBandwidth(large));
}

TEST(BandwidthTest, SilvermanCloseToRuleOfThumbOnGaussian) {
  stats::Rng rng(13);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.Gaussian();
  const double rot = RuleOfThumbBandwidth(xs);
  const double silverman = SilvermanBandwidth(xs);
  EXPECT_NEAR(silverman / rot, 0.85, 0.15);  // both ~ c·σ·n^{-1/5}
}

TEST(BandwidthTest, LscvCriterionMatchesBruteForce) {
  stats::Rng rng(17);
  std::vector<double> xs(60);
  for (double& x : xs) x = rng.UniformDouble();
  std::sort(xs.begin(), xs.end());
  const Kernel k(KernelType::kEpanechnikov);
  const double h = 0.08;
  // Brute force: ∫f̂² by quadrature, leave-one-out by the double loop.
  const auto kde = KernelDensityEstimator::Create(k, h, xs);
  ASSERT_TRUE(kde.ok());
  const double int_f2 = numerics::IntegrateFunction(
      [&](double x) {
        const double f = kde->Evaluate(x);
        return f * f;
      },
      -0.5, 1.5, 8192);
  double loo = 0.0;
  const double n = static_cast<double>(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    double fi = 0.0;
    for (size_t j = 0; j < xs.size(); ++j) {
      if (i == j) continue;
      fi += k.Evaluate((xs[i] - xs[j]) / h);
    }
    loo += fi / ((n - 1.0) * h);
  }
  const double brute = int_f2 - 2.0 * loo / n;
  EXPECT_NEAR(LeastSquaresCvCriterion(k, xs, h), brute, 5e-4);
}

TEST(BandwidthTest, LscvPicksSmallerBandwidthForBimodalData) {
  // The rule of thumb oversmooths a sharp mixture; LSCV should undercut it.
  stats::Rng rng(19);
  std::vector<double> xs(1500);
  for (double& x : xs) {
    x = rng.Bernoulli(0.5) ? rng.Gaussian(0.3, 0.03) : rng.Gaussian(0.7, 0.03);
  }
  const Kernel k(KernelType::kEpanechnikov);
  const double rot = RuleOfThumbBandwidth(xs);
  const double lscv = LeastSquaresCvBandwidth(k, xs);
  EXPECT_LT(lscv, 0.8 * rot);
}

TEST(BandwidthTest, LscvNearOptimalForGaussian) {
  // For Gaussian data LSCV should land within a factor ~2 of the asymptotic
  // optimum h_AMISE = (40√π)^{1/5} σ n^{-1/5} for the Epanechnikov kernel.
  stats::Rng rng(23);
  std::vector<double> xs(2000);
  for (double& x : xs) x = rng.Gaussian();
  const Kernel k(KernelType::kEpanechnikov);
  const double lscv = LeastSquaresCvBandwidth(k, xs);
  const double amise =
      std::pow(40.0 * std::sqrt(M_PI), 0.2) * std::pow(2000.0, -0.2);
  EXPECT_GT(lscv, amise / 2.0);
  EXPECT_LT(lscv, amise * 2.0);
}

}  // namespace
}  // namespace kernel
}  // namespace wde
