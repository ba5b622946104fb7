// Tier-1 tests for the multi-dimensional estimation subsystem: the pure 2-D
// lattice and product-KDE math in src/multidim (cell indexing, summed-area
// prefix tables, lex sorting and the incremental tail merge, adaptive
// bandwidth factors, the cell-pruned product-kernel rectangle sum vs a
// no-pruning reference and a long double oracle, the exactness of every
// pruned cell), the correlated synthetic-data generators, and the
// estimator-level contracts of the two registered 2-D tags: rectangle
// accuracy against analytic truth, correlation capture on the anti-product
// distribution (where any product-of-marginals answer is badly wrong),
// merge-of-disjoint-substreams ≡ sequential bitwise, and the sharded engine
// over a 2-D prototype.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "kernel/kernels.hpp"
#include "multidim/grid2d.hpp"
#include "multidim/prod_kde2d.hpp"
#include "multidim/synthetic2d.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"

namespace wde {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double NormalCdf(double x, double mean, double stddev) {
  return 0.5 * std::erfc((mean - x) / (stddev * std::sqrt(2.0)));
}

// ----------------------------------------------------------- grid2d lattice

TEST(Grid2dMathTest, CellIndexClampsAndCoversTheDomain) {
  EXPECT_EQ(multidim::CellIndex1d(0.0, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(0.124, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(0.126, 0.0, 1.0, 8), 1u);
  // The last cell is closed: hi lands in g-1, not g.
  EXPECT_EQ(multidim::CellIndex1d(1.0, 0.0, 1.0, 8), 7u);
  EXPECT_EQ(multidim::CellIndex1d(-5.0, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(multidim::CellIndex1d(5.0, 0.0, 1.0, 8), 7u);
}

TEST(Grid2dMathTest, CellSpaceClampsInfinitiesToTheEdges) {
  EXPECT_EQ(multidim::CellSpace1d(-kInf, 0.0, 1.0, 8), 0.0);
  EXPECT_EQ(multidim::CellSpace1d(kInf, 0.0, 1.0, 8), 8.0);
  EXPECT_EQ(multidim::CellSpace1d(0.5, 0.0, 1.0, 8), 4.0);
  EXPECT_EQ(multidim::CellSpace1d(-3.0, 0.0, 1.0, 8), 0.0);
  EXPECT_EQ(multidim::CellSpace1d(42.0, 0.0, 1.0, 8), 8.0);
}

TEST(Grid2dMathTest, InclusivePrefixMatchesBruteForce) {
  stats::Rng rng(31);
  const size_t g = 8;
  std::vector<double> counts(g * g);
  for (double& c : counts) c = static_cast<double>(rng.UniformInt(9));
  std::vector<double> prefix(g * g);
  multidim::InclusivePrefix2d(counts, prefix, g);
  for (size_t i = 0; i < g; ++i) {
    for (size_t j = 0; j < g; ++j) {
      double want = 0.0;
      for (size_t a = 0; a <= i; ++a) {
        for (size_t b = 0; b <= j; ++b) want += counts[a * g + b];
      }
      // Integer-valued counts: every partial sum is exact, so the table is
      // equal to ANY summation order, not merely close.
      EXPECT_EQ(prefix[i * g + j], want) << i << "," << j;
    }
  }
}

TEST(Grid2dMathTest, RectCountIsExactOnCellAlignedRectanglesAndClamps) {
  stats::Rng rng(37);
  const size_t g = 8;
  std::vector<double> counts(g * g);
  for (double& c : counts) c = static_cast<double>(rng.UniformInt(5));
  std::vector<double> prefix(g * g);
  multidim::InclusivePrefix2d(counts, prefix, g);
  const double total = prefix[g * g - 1];
  // The all-space rectangle is the total count, exactly.
  EXPECT_EQ(multidim::RectCount(prefix, g, -kInf, kInf, -kInf, kInf, 0.0, 1.0,
                                0.0, 1.0),
            total);
  // Cell-aligned rectangles hit lattice corners, where the bilinear CDF is
  // the table value itself: the answer is the exact cell-block sum.
  for (int rep = 0; rep < 32; ++rep) {
    size_t i0 = rng.UniformInt(g), i1 = rng.UniformInt(g);
    size_t j0 = rng.UniformInt(g), j1 = rng.UniformInt(g);
    if (i1 < i0) std::swap(i0, i1);
    if (j1 < j0) std::swap(j0, j1);
    double want = 0.0;
    for (size_t a = i0; a <= i1; ++a) {
      for (size_t b = j0; b <= j1; ++b) want += counts[a * g + b];
    }
    const double got = multidim::RectCount(
        prefix, g, static_cast<double>(i0) / g, static_cast<double>(i1 + 1) / g,
        static_cast<double>(j0) / g, static_cast<double>(j1 + 1) / g, 0.0, 1.0,
        0.0, 1.0);
    EXPECT_EQ(got, want) << i0 << ".." << i1 << " x " << j0 << ".." << j1;
  }
  // Degenerate and off-domain rectangles answer 0, never negative.
  EXPECT_EQ(multidim::RectCount(prefix, g, 0.3, 0.3, 0.2, 0.2, 0.0, 1.0, 0.0,
                                1.0),
            0.0);
  EXPECT_EQ(multidim::RectCount(prefix, g, 2.0, 3.0, 2.0, 3.0, 0.0, 1.0, 0.0,
                                1.0),
            0.0);
}

// -------------------------------------------------------- lex sort / merge

TEST(ProdKde2dMathTest, MergeSortedTailMatchesFullSortBitwise) {
  stats::Rng rng(41);
  for (const size_t n : {size_t{5}, size_t{64}, size_t{513}}) {
    for (const size_t split : {size_t{0}, size_t{1}, n / 2, n - 1, n}) {
      std::vector<double> xs(n), ys(n);
      // Coarse values force ties in x (and some full (x, y) ties), the cases
      // where lex order and multiset-determinism actually bite.
      for (double& x : xs) x = static_cast<double>(rng.UniformInt(16)) / 16.0;
      for (double& y : ys) y = static_cast<double>(rng.UniformInt(16)) / 16.0;
      std::vector<double> fx = xs, fy = ys;
      multidim::SortPointsLex(fx, fy);
      ASSERT_TRUE(multidim::IsLexSorted(fx, fy));

      std::vector<double> mx = xs, my = ys;
      multidim::SortPointsLex(std::span<double>(mx).first(split),
                              std::span<double>(my).first(split));
      multidim::MergeSortedTailLex(mx, my, split);
      EXPECT_EQ(mx, fx) << "n=" << n << " split=" << split;
      EXPECT_EQ(my, fy) << "n=" << n << " split=" << split;
    }
  }
}

TEST(ProdKde2dMathTest, IsLexSortedRejectsDisorderAndNonFinite) {
  std::vector<double> xs = {0.1, 0.2, 0.2, 0.5};
  std::vector<double> ys = {0.9, 0.1, 0.4, 0.2};
  EXPECT_TRUE(multidim::IsLexSorted(xs, ys));
  std::swap(ys[1], ys[2]);  // tie in x, y out of order
  EXPECT_FALSE(multidim::IsLexSorted(xs, ys));
  std::swap(ys[1], ys[2]);
  xs[3] = 0.0;  // x out of order
  EXPECT_FALSE(multidim::IsLexSorted(xs, ys));
  xs[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(multidim::IsLexSorted(xs, ys));
  xs[3] = kInf;
  EXPECT_FALSE(multidim::IsLexSorted(xs, ys));
}

TEST(ProdKde2dMathTest, AdaptiveLambdasSharpenDenseRegions) {
  // A dense clump plus sparse outliers: the clump's pilot density is far
  // above the geometric mean, so its λ must be below the outliers' λ.
  std::vector<double> xs, ys;
  stats::Rng rng(43);
  for (int i = 0; i < 400; ++i) {
    xs.push_back(0.25 + 0.02 * rng.UniformDouble());
    ys.push_back(0.25 + 0.02 * rng.UniformDouble());
  }
  for (int i = 0; i < 8; ++i) {
    xs.push_back(rng.Uniform(0.6, 1.0));
    ys.push_back(rng.Uniform(0.6, 1.0));
  }
  std::vector<double> lambdas(xs.size());
  multidim::AdaptiveLambdas(xs, ys, 0.0, 1.0, 0.0, 1.0, 0.5, 5, lambdas);
  for (const double l : lambdas) {
    EXPECT_GE(l, multidim::kMinLambda);
    EXPECT_LE(l, multidim::kMaxLambda);
  }
  EXPECT_LT(lambdas[0], lambdas[xs.size() - 1]);  // clump sharper than outlier

  // α = 0 disables adaptivity entirely.
  multidim::AdaptiveLambdas(xs, ys, 0.0, 1.0, 0.0, 1.0, 0.0, 5, lambdas);
  for (const double l : lambdas) EXPECT_EQ(l, 1.0);
}

TEST(ProdKde2dMathTest, CellPrunedRectSumMatchesNoPruningReference) {
  stats::Rng rng(47);
  const size_t n = 500;
  std::vector<double> xs(n), ys(n), lambdas(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble();
    ys[i] = rng.UniformDouble();
  }
  multidim::SortPointsLex(xs, ys);
  for (double& l : lambdas) l = rng.Uniform(0.25, 4.0);
  const kernel::Kernel k(kernel::KernelType::kEpanechnikov);
  const double hx = 0.04, hy = 0.07;
  const multidim::ProdKde2dCells cells(xs, ys, lambdas, hx, hy, 0.0, 1.0, 0.0,
                                       1.0);
  for (int rep = 0; rep < 64; ++rep) {
    double lo0 = rng.Uniform(-0.2, 1.2), hi0 = rng.Uniform(-0.2, 1.2);
    double lo1 = rng.Uniform(-0.2, 1.2), hi1 = rng.Uniform(-0.2, 1.2);
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    if (rep % 7 == 0) lo0 = -kInf;
    if (rep % 11 == 0) hi1 = kInf;
    const double got = cells.RectSum(k, lo0, hi0, lo1, hi1);
    double want = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double sx = hx * lambdas[i];
      const double sy = hy * lambdas[i];
      const double fx = (std::isinf(hi0) ? 1.0 : k.Cdf((hi0 - xs[i]) / sx)) -
                        (std::isinf(lo0) ? 0.0 : k.Cdf((lo0 - xs[i]) / sx));
      const double fy = (std::isinf(hi1) ? 1.0 : k.Cdf((hi1 - ys[i]) / sy)) -
                        (std::isinf(lo1) ? 0.0 : k.Cdf((lo1 - ys[i]) / sy));
      want += fx * fy;
    }
    EXPECT_NEAR(got, want, 1e-11 * static_cast<double>(n)) << "rep " << rep;
  }
  // The all-space rectangle is exactly n: the compact-support CDF saturates
  // to exactly 0/1, so no tolerance is needed.
  EXPECT_EQ(cells.RectSum(k, -kInf, kInf, -kInf, kInf), static_cast<double>(n));
}

/// The kernel CDF factor of one point on one axis, in long double straight
/// from the definition: no pruning, no saturation shortcuts beyond the
/// kernel's own support.
long double DirectFactor(double c, double lambda, double h, double lo,
                         double hi) {
  const auto cdf = [&](double e) -> long double {
    if (std::isinf(e)) return e > 0.0 ? 1.0L : 0.0L;
    const long double u = (static_cast<long double>(e) - c) /
                          (static_cast<long double>(h) * lambda);
    if (u <= -1.0L) return 0.0L;
    if (u >= 1.0L) return 1.0L;
    return 0.5L + 0.75L * u - 0.25L * u * u * u;
  };
  return cdf(hi) - cdf(lo);
}

struct PointSet {
  std::string what;
  std::vector<double> xs, ys, lambdas;
};

/// Point sets whose geometry stresses the cell index: points exactly on
/// cell boundaries and on the domain's upper edges (the closed last cell),
/// every point in one cell, λ pinned at either end of its range.
std::vector<PointSet> AdversarialPointSets() {
  std::vector<PointSet> sets;
  const double g = static_cast<double>(multidim::ProdKde2dCells::kGrid);
  stats::Rng rng(59);
  {
    PointSet s{"cell boundaries and upper edges", {}, {}, {}};
    for (int i = 0; i <= 64; i += 3) {
      for (int j = 0; j <= 64; j += 5) {
        s.xs.push_back(i / g);
        s.ys.push_back(j / g);
      }
    }
    for (int r = 0; r < 40; ++r) {
      s.xs.push_back(1.0);  // clamped onto the upper edge
      s.ys.push_back(rng.UniformDouble());
      s.xs.push_back(rng.UniformDouble());
      s.ys.push_back(1.0);
    }
    s.xs.push_back(1.0);
    s.ys.push_back(1.0);
    for (size_t i = 0; i < s.xs.size(); ++i) {
      s.lambdas.push_back(rng.Uniform(0.25, 4.0));
    }
    sets.push_back(std::move(s));
  }
  {
    PointSet s{"one cell", {}, {}, {}};
    for (int i = 0; i < 600; ++i) {  // > one CdfMany chunk
      s.xs.push_back(0.5 + rng.UniformDouble() / (2.0 * g));
      s.ys.push_back(0.25 + rng.UniformDouble() / (2.0 * g));
      s.lambdas.push_back(rng.Uniform(0.25, 4.0));
    }
    sets.push_back(std::move(s));
  }
  for (const double lambda : {multidim::kMinLambda, multidim::kMaxLambda}) {
    PointSet s{"lambda " + std::to_string(lambda), {}, {}, {}};
    for (int i = 0; i < 800; ++i) {
      s.xs.push_back(rng.UniformDouble());
      s.ys.push_back(rng.UniformDouble() * rng.UniformDouble());
      s.lambdas.push_back(lambda);
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

struct Rect {
  double lo0, hi0, lo1, hi1;
};

/// Rectangles whose edges sit at a cell's inflated box: each of the four
/// saturation thresholds c ± R·scale, nudged by 0 and ±1 ulp, and by
/// ±1e-6 and ±1e-3 of the scale (the Epanechnikov CDF is flat at its support
/// edge, so a threshold loosened by less than ~1e-8 cannot change a value);
/// plus ±inf bounds and lo == hi.
std::vector<Rect> AdversarialRects(const multidim::ProdKde2dCells& cells,
                                   stats::Rng& rng) {
  std::vector<Rect> rects;
  const auto nudged = [](double v, double scale, int step) {
    switch (step) {
      case 0: return v;
      case 1: return std::nextafter(v, kInf);
      case 2: return std::nextafter(v, -kInf);
      case 3: return v + 1e-6 * scale;
      case 4: return v - 1e-6 * scale;
      case 5: return v + 1e-3 * scale;
      default: return v - 1e-3 * scale;
    }
  };
  const std::span<const multidim::ProdKde2dCells::Cell> all = cells.cells();
  for (size_t c = 0; c < all.size(); c += std::max<size_t>(1, all.size() / 12)) {
    const multidim::ProdKde2dCells::Cell& cell = all[c];
    const double xs = cell.x_scale, ys = cell.y_scale;  // reach at R = 1
    for (int step = 0; step < 7; ++step) {
      // Covered thresholds: hi at x_max + reach, lo at x_min − reach.
      rects.push_back({nudged(cell.x_min - xs, xs, step),
                       nudged(cell.x_max + xs, xs, step),
                       nudged(cell.y_min - ys, ys, step),
                       nudged(cell.y_max + ys, ys, step)});
      // Disjoint thresholds: hi at x_min − reach, lo at x_max + reach.
      rects.push_back({-kInf, nudged(cell.x_min - xs, xs, step),
                       nudged(cell.y_max + ys, ys, step), kInf});
      rects.push_back({nudged(cell.x_max + xs, xs, step), kInf, -kInf,
                       nudged(cell.y_min - ys, ys, step)});
    }
  }
  for (int r = 0; r < 24; ++r) {
    double lo0 = rng.Uniform(-0.2, 1.2), hi0 = rng.Uniform(-0.2, 1.2);
    double lo1 = rng.Uniform(-0.2, 1.2), hi1 = rng.Uniform(-0.2, 1.2);
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    rects.push_back({lo0, hi0, lo1, hi1});
    rects.push_back({lo0, lo0, lo1, hi1});  // lo == hi
  }
  rects.push_back({-kInf, kInf, -kInf, kInf});
  rects.push_back({-kInf, -kInf, -kInf, kInf});
  rects.push_back({kInf, kInf, -kInf, kInf});
  rects.push_back({-kInf, kInf, 0.3, 0.3});
  rects.push_back({0.2, kInf, -kInf, 0.7});
  return rects;
}

TEST(ProdKde2dMathTest, CellPrunedRectSumMatchesLongDoubleOracleOnAdversarialGeometry) {
  const kernel::Kernel k(kernel::KernelType::kEpanechnikov);
  stats::Rng rng(61);
  for (const PointSet& set : AdversarialPointSets()) {
    SCOPED_TRACE(set.what);
    std::vector<double> xs = set.xs, ys = set.ys;
    multidim::SortPointsLex(xs, ys);
    const size_t n = xs.size();
    for (const double h : {0.004, 0.05}) {
      const multidim::ProdKde2dCells cells(xs, ys, set.lambdas, h, 1.5 * h, 0.0,
                                           1.0, 0.0, 1.0);
      for (const Rect& r : AdversarialRects(cells, rng)) {
        long double want = 0.0L;
        for (size_t i = 0; i < n; ++i) {
          want += DirectFactor(xs[i], set.lambdas[i], h, r.lo0, r.hi0) *
                  DirectFactor(ys[i], set.lambdas[i], 1.5 * h, r.lo1, r.hi1);
        }
        const double got = cells.RectSum(k, r.lo0, r.hi0, r.lo1, r.hi1);
        EXPECT_NEAR(got, static_cast<double>(want),
                    1e-12 * static_cast<double>(n))
            << "h=" << h << " rect [" << r.lo0 << "," << r.hi0 << "]x["
            << r.lo1 << "," << r.hi1 << "]";
        if (r.lo0 == r.hi0 || r.lo1 == r.hi1) {
          // F(hi) − F(lo) of one argument: every factor is exactly 0.
          EXPECT_EQ(got, 0.0);
        }
      }
      EXPECT_EQ(cells.RectSum(k, -kInf, kInf, -kInf, kInf),
                static_cast<double>(n));
    }
  }
}

TEST(ProdKde2dMathTest, SkippedCellsHaveExactlyUnitOrZeroFactors) {
  // Every point of a cell the index counts (covered) or skips (disjoint)
  // must have a per-point factor product of exactly 1 or exactly 0 — the
  // claim that makes the pruning exact rather than approximate.
  const kernel::Kernel k(kernel::KernelType::kEpanechnikov);
  stats::Rng rng(67);
  size_t covered = 0, disjoint = 0, straddling = 0;
  std::vector<PointSet> sets = AdversarialPointSets();
  {
    PointSet anti{"anti-product", {}, {}, {}};
    std::vector<double> data;
    multidim::SampleAntiProduct2d(rng, 4000, 0.05, &data);
    for (size_t i = 0; i < data.size(); i += 2) {
      anti.xs.push_back(std::clamp(data[i], 0.0, 1.0));
      anti.ys.push_back(std::clamp(data[i + 1], 0.0, 1.0));
    }
    multidim::SortPointsLex(anti.xs, anti.ys);
    anti.lambdas.resize(anti.xs.size());
    multidim::AdaptiveLambdas(anti.xs, anti.ys, 0.0, 1.0, 0.0, 1.0, 0.5, 5,
                              anti.lambdas);
    sets.push_back(std::move(anti));
  }
  for (const PointSet& set : sets) {
    SCOPED_TRACE(set.what);
    std::vector<double> xs = set.xs, ys = set.ys;
    multidim::SortPointsLex(xs, ys);
    const double hx = 0.02, hy = 0.03;
    const multidim::ProdKde2dCells cells(xs, ys, set.lambdas, hx, hy, 0.0, 1.0,
                                         0.0, 1.0);
    for (const Rect& r : AdversarialRects(cells, rng)) {
      for (const multidim::ProdKde2dCells::Cell& cell : cells.cells()) {
        const multidim::ProdKde2dCells::Cover cover =
            cells.Classify(k, cell, r.lo0, r.hi0, r.lo1, r.hi1);
        if (cover == multidim::ProdKde2dCells::Cover::kStraddling) {
          ++straddling;
          continue;
        }
        const bool is_covered =
            cover == multidim::ProdKde2dCells::Cover::kCovered;
        ++(is_covered ? covered : disjoint);
        for (size_t j = cell.begin; j < cell.end; ++j) {
          const size_t i = cells.order()[j];
          const double product =
              multidim::AxisFactor(k, xs[i], set.lambdas[i], hx, r.lo0,
                                   r.hi0) *
              multidim::AxisFactor(k, ys[i], set.lambdas[i], hy, r.lo1, r.hi1);
          ASSERT_EQ(product, is_covered ? 1.0 : 0.0)
              << "point " << i << " rect [" << r.lo0 << "," << r.hi0 << "]x["
              << r.lo1 << "," << r.hi1 << "]";
        }
      }
    }
  }
  // All three verdicts occur, so the check is not vacuous.
  EXPECT_GT(covered, 0u);
  EXPECT_GT(disjoint, 0u);
  EXPECT_GT(straddling, 0u);
}

TEST(ProdKde2dMathTest, CellIndexIsAStableCellMajorPermutation) {
  stats::Rng rng(71);
  std::vector<double> xs(3000), ys(3000), lambdas(3000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.UniformDouble();
    ys[i] = rng.UniformDouble() * rng.UniformDouble();
    lambdas[i] = rng.Uniform(0.25, 4.0);
  }
  multidim::SortPointsLex(xs, ys);
  const multidim::ProdKde2dCells cells(xs, ys, lambdas, 0.03, 0.03, 0.0, 1.0,
                                       0.0, 1.0);
  const size_t g = multidim::ProdKde2dCells::kGrid;
  std::vector<bool> seen(xs.size(), false);
  size_t expected_begin = 0;
  size_t previous = 0;
  for (const multidim::ProdKde2dCells::Cell& cell : cells.cells()) {
    ASSERT_EQ(cell.begin, expected_begin);
    ASSERT_LT(cell.begin, cell.end);
    const size_t first = cells.order()[cell.begin];
    const size_t id = multidim::CellIndex1d(xs[first], 0.0, 1.0, g) * g +
                      multidim::CellIndex1d(ys[first], 0.0, 1.0, g);
    if (cell.begin > 0) {
      ASSERT_GT(id, previous);  // cell-major, ascending
    }
    previous = id;
    for (size_t j = cell.begin; j < cell.end; ++j) {
      const size_t i = cells.order()[j];
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
      EXPECT_EQ(multidim::CellIndex1d(xs[i], 0.0, 1.0, g) * g +
                    multidim::CellIndex1d(ys[i], 0.0, 1.0, g),
                id);
      EXPECT_GE(xs[i], cell.x_min);
      EXPECT_LE(xs[i], cell.x_max);
      EXPECT_GE(ys[i], cell.y_min);
      EXPECT_LE(ys[i], cell.y_max);
      EXPECT_LE(0.03 * lambdas[i], cell.x_scale);
      // Stable: input order survives inside a cell.
      if (j > cell.begin) {
        EXPECT_LT(cells.order()[j - 1], i);
      }
    }
    expected_begin = cell.end;
  }
  EXPECT_EQ(expected_begin, xs.size());
}

// --------------------------------------------------------- synthetic data

TEST(Synthetic2dTest, GaussianPairRealizesTheRequestedCorrelation) {
  stats::Rng rng(53);
  const size_t n = 20000;
  for (const double rho : {-0.8, 0.0, 0.6}) {
    double sum0 = 0.0, sum1 = 0.0, sum00 = 0.0, sum11 = 0.0, sum01 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double z0 = 0.0, z1 = 0.0;
      rng.GaussianPair(rho, &z0, &z1);
      sum0 += z0;
      sum1 += z1;
      sum00 += z0 * z0;
      sum11 += z1 * z1;
      sum01 += z0 * z1;
    }
    const double m0 = sum0 / n, m1 = sum1 / n;
    const double v0 = sum00 / n - m0 * m0, v1 = sum11 / n - m1 * m1;
    const double cov = sum01 / n - m0 * m1;
    EXPECT_NEAR(cov / std::sqrt(v0 * v1), rho, 0.03) << "rho=" << rho;
  }
  // ρ = ±1 are exact, not statistical.
  double z0 = 0.0, z1 = 0.0;
  rng.GaussianPair(1.0, &z0, &z1);
  EXPECT_EQ(z1, z0);
  rng.GaussianPair(-1.0, &z0, &z1);
  EXPECT_EQ(z1, -z0);
}

TEST(Synthetic2dTest, GeneratorsAreDeterministicAndInterleaved) {
  const std::vector<multidim::GaussianComponent2d> components = {
      {1.0, 0.3, 0.3, 0.05, 0.08, 0.5}, {2.0, 0.7, 0.6, 0.1, 0.05, -0.3}};
  std::vector<double> a, b;
  stats::Rng rng_a(61), rng_b(61);
  multidim::SampleGaussianMixture2d(rng_a, components, 500, &a);
  multidim::SampleGaussianMixture2d(rng_b, components, 500, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 1000u);

  std::vector<double> c, d;
  stats::Rng rng_c(62), rng_d(62);
  multidim::SampleAntiProduct2d(rng_c, 300, 0.05, &c);
  multidim::SampleAntiProduct2d(rng_d, 300, 0.05, &d);
  EXPECT_EQ(c, d);
  EXPECT_EQ(c.size(), 600u);
  for (size_t i = 0; i < c.size(); i += 2) {
    EXPECT_GE(c[i + 1], 0.0);  // y reflected into [0, 1]
    EXPECT_LE(c[i + 1], 1.0);
  }
}

TEST(Synthetic2dTest, AntiProductConcentratesOnTheDiagonals) {
  stats::Rng rng(67);
  std::vector<double> data;
  const size_t n = 10000;
  multidim::SampleAntiProduct2d(rng, n, 0.03, &data);
  size_t on_diagonals = 0;
  double x_sum = 0.0, y_sum = 0.0;
  for (size_t i = 0; i < 2 * n; i += 2) {
    const double x = data[i], y = data[i + 1];
    if (std::fabs(y - x) < 0.1 || std::fabs(y - (1.0 - x)) < 0.1) {
      ++on_diagonals;
    }
    x_sum += x;
    y_sum += y;
  }
  EXPECT_GT(static_cast<double>(on_diagonals) / n, 0.9);
  // ... while both marginals stay centered like uniforms.
  EXPECT_NEAR(x_sum / n, 0.5, 0.02);
  EXPECT_NEAR(y_sum / n, 0.5, 0.02);
}

// ------------------------------------------------------ estimator contracts

std::unique_ptr<selectivity::SelectivityEstimator> Make2d(
    const std::string& tag) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  spec.dims = 2;
  spec.grid_log2 = 6;
  spec.refit_interval = 512;
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(est.ok(), est.status().ToString().c_str());
  return std::move(est).value();
}

const char* const k2dTags[] = {"grid2d", "kde2d-prod"};

TEST(MultiDimEstimatorTest, RegistryDeclaresNativeDims) {
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("grid2d"), 2);
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("kde2d-prod"),
            2);
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("equi-width"),
            1);
  EXPECT_EQ(selectivity::EstimatorRegistry::Global().NativeDims("no-such"), 0);
  for (const char* tag : k2dTags) {
    EXPECT_EQ(Make2d(tag)->dims(), 2) << tag;
  }
}

TEST(MultiDimEstimatorTest, RectAnswersMatchAnalyticTruthOnAMixture) {
  // Uncorrelated components so the rect truth factors per component:
  // P(rect) = Σ w_k · [Φ_x(hi0) − Φ_x(lo0)] · [Φ_y(hi1) − Φ_y(lo1)].
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.6, 0.3, 0.35, 0.07, 0.06, 0.0}, {0.4, 0.7, 0.65, 0.06, 0.08, 0.0}};
  stats::Rng rng(71);
  std::vector<double> data;
  multidim::SampleGaussianMixture2d(rng, components, 20000, &data);
  const auto truth = [&](double lo0, double hi0, double lo1, double hi1) {
    double p = 0.0;
    for (const auto& c : components) {
      p += c.weight *
           (NormalCdf(hi0, c.mean_x, c.stddev_x) -
            NormalCdf(lo0, c.mean_x, c.stddev_x)) *
           (NormalCdf(hi1, c.mean_y, c.stddev_y) -
            NormalCdf(lo1, c.mean_y, c.stddev_y));
    }
    return p;
  };
  for (const char* tag : k2dTags) {
    std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d(tag);
    est->InsertBatch(data);
    stats::Rng query_rng(73);
    for (int rep = 0; rep < 40; ++rep) {
      double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
      double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
      if (hi0 < lo0) std::swap(lo0, hi0);
      if (hi1 < lo1) std::swap(lo1, hi1);
      const double got =
          est->Answer(selectivity::Query::Rect(lo0, hi0, lo1, hi1));
      EXPECT_NEAR(got, truth(lo0, hi0, lo1, hi1), 0.04)
          << tag << " rect [" << lo0 << "," << hi0 << "]x[" << lo1 << ","
          << hi1 << "]";
    }
  }
}

TEST(MultiDimEstimatorTest, BothEstimatorsCaptureAntiProductCorrelation) {
  // The discriminating case for 2-D estimation: the anti-product joint puts
  // ~5x more mass in the central square than the product of its marginals
  // claims. Any estimator that factorizes would answer ~0.04 here.
  stats::Rng rng(79);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 20000, 0.03, &data);
  for (const char* tag : k2dTags) {
    std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d(tag);
    est->InsertBatch(data);
    const double joint =
        est->Answer(selectivity::Query::Rect(0.4, 0.6, 0.4, 0.6));
    const double m0 = est->Answer(selectivity::Query::Marginal(0, 0.4, 0.6));
    const double m1 = est->Answer(selectivity::Query::Marginal(1, 0.4, 0.6));
    EXPECT_GT(joint, 2.5 * m0 * m1) << tag;
    EXPECT_NEAR(m0, 0.2, 0.05) << tag;  // marginals still near-uniform
    EXPECT_NEAR(m1, 0.2, 0.05) << tag;
  }
}

TEST(MultiDimEstimatorTest, MergeOfDisjointSubstreamsMatchesSequentialBitwise) {
  // Answers are functions of the observation multiset for both 2-D tags, so
  // CloneEmpty + per-substream ingest + MergeFrom must be indistinguishable
  // from one sequential estimator — bitwise, after both quiesce.
  stats::Rng rng(83);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 3000, 0.05, &data);
  const size_t cut = 2 * 1000;  // observation-aligned split
  const std::span<const double> head(data.data(), cut);
  const std::span<const double> tail(data.data() + cut, data.size() - cut);
  stats::Rng query_rng(89);
  for (const char* tag : k2dTags) {
    std::unique_ptr<selectivity::SelectivityEstimator> sequential = Make2d(tag);
    sequential->InsertBatch(data);
    std::unique_ptr<selectivity::SelectivityEstimator> merged = Make2d(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> peer =
        merged->CloneEmpty();
    merged->InsertBatch(head);
    peer->InsertBatch(tail);
    ASSERT_TRUE(merged->MergeFrom(*peer).ok()) << tag;
    ASSERT_EQ(merged->count(), sequential->count()) << tag;
    sequential->ForceRefit();
    merged->ForceRefit();
    for (int rep = 0; rep < 32; ++rep) {
      double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
      double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
      if (hi0 < lo0) std::swap(lo0, hi0);
      if (hi1 < lo1) std::swap(lo1, hi1);
      const selectivity::Query q =
          selectivity::Query::Rect(lo0, hi0, lo1, hi1);
      EXPECT_EQ(merged->Answer(q), sequential->Answer(q)) << tag;
    }
  }
}

TEST(MultiDimEstimatorTest, ShardedEngineOverA2dPrototypeMatchesSequential) {
  // The sharded engine splits the interleaved stream into blocks; Create
  // guarantees block_size % dims == 0, so observations never straddle
  // shards, and the grid's integer cell counts make the merged view
  // bit-identical to sequential ingest.
  stats::Rng rng(97);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 10000, 0.05, &data);
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "grid2d";
  spec.dims = 2;
  spec.grid_log2 = 6;
  spec.shards = 3;
  spec.block_size = 128;
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> sharded =
      selectivity::MakeEstimator(spec);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->dims(), 2);
  std::unique_ptr<selectivity::SelectivityEstimator> plain = Make2d("grid2d");
  (*sharded)->InsertBatch(data);
  plain->InsertBatch(data);
  EXPECT_EQ((*sharded)->count(), plain->count());
  stats::Rng query_rng(101);
  for (int rep = 0; rep < 32; ++rep) {
    double lo0 = query_rng.UniformDouble(), hi0 = query_rng.UniformDouble();
    double lo1 = query_rng.UniformDouble(), hi1 = query_rng.UniformDouble();
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    const selectivity::Query q = selectivity::Query::Rect(lo0, hi0, lo1, hi1);
    EXPECT_EQ((*sharded)->Answer(q), plain->Answer(q)) << "rep " << rep;
  }
}

TEST(MultiDimEstimatorTest, InterleaveParitySurvivesNonFiniteCoordinates) {
  // A non-finite value anywhere in the pair drops the WHOLE observation;
  // dropping a single coordinate would shift the interleave and silently
  // pair x's with the wrong y's forever after.
  for (const char* tag : k2dTags) {
    std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d(tag);
    std::unique_ptr<selectivity::SelectivityEstimator> clean = Make2d(tag);
    const double nan = std::nan("");
    est->InsertBatch(std::vector<double>{0.1, 0.2, nan, 0.9, 0.3, 0.4, 0.5,
                                         kInf, 0.7, 0.8});
    clean->InsertBatch(std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.7, 0.8});
    EXPECT_EQ(est->count(), 3u) << tag;
    const selectivity::Query q = selectivity::Query::Rect(0.0, 0.45, 0.0, 0.45);
    EXPECT_EQ(est->Answer(q), clean->Answer(q)) << tag;
  }
}

TEST(MultiDimEstimatorTest, Kde2dAnswersAreBoundedAndSplitAdditive) {
  // Metamorphic properties that hold for any data: every mass answer lies
  // in [0, 1]; splitting a rectangle at any cut on either axis preserves
  // its mass (F(b) − F(m) + F(m) − F(a) = F(b) − F(a) per point); every
  // conditional answer lies in [0, 1].
  stats::Rng rng(103);
  std::vector<double> data;
  multidim::SampleAntiProduct2d(rng, 20000, 0.05, &data);
  std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d("kde2d-prod");
  est->InsertBatch(data);
  est->ForceRefit();
  stats::Rng query_rng(107);
  for (int rep = 0; rep < 200; ++rep) {
    double lo0 = query_rng.Uniform(-0.1, 1.1), hi0 = query_rng.Uniform(-0.1, 1.1);
    double lo1 = query_rng.Uniform(-0.1, 1.1), hi1 = query_rng.Uniform(-0.1, 1.1);
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    if (rep % 9 == 0) lo0 = -kInf;
    if (rep % 13 == 0) hi1 = kInf;
    const double whole =
        est->Answer(selectivity::Query::Rect(lo0, hi0, lo1, hi1));
    EXPECT_GE(whole, 0.0);
    EXPECT_LE(whole, 1.0);
    const double cut0 = query_rng.Uniform(std::max(lo0, -0.1), hi0);
    const double cut1 = query_rng.Uniform(lo1, std::min(hi1, 1.1));
    const double split0 =
        est->Answer(selectivity::Query::Rect(lo0, cut0, lo1, hi1)) +
        est->Answer(selectivity::Query::Rect(cut0, hi0, lo1, hi1));
    const double split1 =
        est->Answer(selectivity::Query::Rect(lo0, hi0, lo1, cut1)) +
        est->Answer(selectivity::Query::Rect(lo0, hi0, cut1, hi1));
    EXPECT_NEAR(split0, whole, 1e-12) << "rep " << rep;
    EXPECT_NEAR(split1, whole, 1e-12) << "rep " << rep;
    const double conditional = est->Answer(
        selectivity::Query::Conditional(lo0, hi0, lo1, hi1));
    EXPECT_GE(conditional, 0.0);
    EXPECT_LE(conditional, 1.0);
  }
}

}  // namespace
}  // namespace wde
