// Tier-1 tests for the multi-dimensional estimation subsystem: the pure 2-D
// lattice and product-KDE math in src/multidim (cell indexing, summed-area
// prefix tables, quadrant-major sorting and the incremental tail merge,
// adaptive
// bandwidth factors, the moment-node quadtree's rectangle sum vs a
// no-pruning reference and a long double oracle within its documented
// rounding bound, the exactness of every counted or skipped node and the
// certification of every moment node), the correlated synthetic-data
// generators, and the estimator-level contracts of the two registered 2-D
// tags: rectangle accuracy against analytic truth, correlation capture on
// the anti-product distribution (where any product-of-marginals answer is
// badly wrong), merge-of-disjoint-substreams ≡ sequential bitwise, and the
// sharded engine over a 2-D prototype.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
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

// ------------------------------------------- quadrant-major sort / merge

/// The reference order: a lexicographic (x, y) sort, then a stable
/// counting sort by the Morton key of the 256×256 CellIndex1d cells (x bit
/// above y bit), keyed independently of multidim::QuadrantKey.
void ReferenceQuadrantMajor(std::vector<double>& xs, std::vector<double>& ys,
                            double lo0, double hi0, double lo1, double hi1) {
  std::vector<std::pair<double, double>> lex(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) lex[i] = {xs[i], ys[i]};
  std::sort(lex.begin(), lex.end());
  const auto key = [&](const std::pair<double, double>& p) {
    const size_t cx = multidim::CellIndex1d(p.first, lo0, hi0, 256);
    const size_t cy = multidim::CellIndex1d(p.second, lo1, hi1, 256);
    size_t k = 0;
    for (int bit = 7; bit >= 0; --bit) {
      k = k << 2 | ((cx >> bit) & 1) << 1 | ((cy >> bit) & 1);
    }
    return k;
  };
  std::vector<size_t> start(256 * 256 + 1, 0);
  for (const auto& p : lex) ++start[key(p) + 1];
  for (size_t k = 0; k < 256 * 256; ++k) start[k + 1] += start[k];
  for (const auto& p : lex) {
    const size_t at = start[key(p)]++;
    xs[at] = p.first;
    ys[at] = p.second;
  }
}

/// Coordinate sets that stress the order: 256-grid cell boundaries (exact
/// multiples of 1/256), coarse values with many duplicate points, points
/// clamped onto both edges of a non-unit domain, and both perf_multidim
/// data sets (seeds, components and noise) as Insert clamps them.
struct OrderCase {
  std::string what;
  std::vector<double> xs, ys;
  double lo0 = 0.0, hi0 = 1.0, lo1 = 0.0, hi1 = 1.0;
};

std::vector<OrderCase> OrderCases() {
  std::vector<OrderCase> cases;
  stats::Rng rng(41);
  {
    OrderCase c;
    c.what = "cell boundaries";
    for (int i = 0; i < 3000; ++i) {
      const double x = static_cast<double>(rng.UniformInt(257)) / 256.0;
      const double y = static_cast<double>(rng.UniformInt(257)) / 256.0;
      c.xs.push_back(i % 3 == 0 ? std::nextafter(x, 0.0) : x);
      c.ys.push_back(i % 5 == 0 ? std::nextafter(y, 2.0) : y);
    }
    cases.push_back(std::move(c));
  }
  {
    OrderCase c;
    c.what = "duplicates";
    for (int i = 0; i < 2000; ++i) {
      c.xs.push_back(static_cast<double>(rng.UniformInt(16)) / 16.0);
      c.ys.push_back(static_cast<double>(rng.UniformInt(16)) / 16.0);
    }
    cases.push_back(std::move(c));
  }
  {
    OrderCase c;
    c.what = "clamped domain edges";
    c.lo0 = -3.0, c.hi0 = 5.0, c.lo1 = 10.0, c.hi1 = 10.5;
    for (int i = 0; i < 2000; ++i) {
      const double x = rng.Uniform(-4.0, 6.0);
      const double y = rng.Uniform(9.9, 10.6);
      c.xs.push_back(std::clamp(x, c.lo0, c.hi0));
      c.ys.push_back(std::clamp(y, c.lo1, c.hi1));
    }
    cases.push_back(std::move(c));
  }
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.45, 0.30, 0.35, 0.08, 0.06, 0.6},
      {0.35, 0.70, 0.60, 0.07, 0.09, -0.5},
      {0.20, 0.50, 0.80, 0.12, 0.05, 0.0}};
  std::vector<double> mixture, anti;
  stats::Rng mixture_rng(1);
  multidim::SampleGaussianMixture2d(mixture_rng, components, 200000, &mixture);
  stats::Rng anti_rng(2);
  multidim::SampleAntiProduct2d(anti_rng, 200000, 0.03, &anti);
  for (const auto& [what, data] :
       {std::pair{"mixture", &mixture}, std::pair{"anti-product", &anti}}) {
    OrderCase c;
    c.what = what;
    for (size_t i = 0; i < data->size(); i += 2) {
      c.xs.push_back(std::clamp((*data)[i], 0.0, 1.0));
      c.ys.push_back(std::clamp((*data)[i + 1], 0.0, 1.0));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(ProdKde2dMathTest, QuadrantMajorOrderEqualsLexThenStableCountingSort) {
  for (OrderCase& c : OrderCases()) {
    SCOPED_TRACE(c.what);
    std::vector<double> want_x = c.xs, want_y = c.ys;
    ReferenceQuadrantMajor(want_x, want_y, c.lo0, c.hi0, c.lo1, c.hi1);
    multidim::SortPointsQuadrantMajor(c.xs, c.ys, c.lo0, c.hi0, c.lo1, c.hi1);
    // Bitwise: EXPECT_EQ on vectors of doubles compares with ==, and no
    // coordinate is NaN or a signed zero.
    EXPECT_EQ(c.xs, want_x);
    EXPECT_EQ(c.ys, want_y);
    EXPECT_TRUE(multidim::IsQuadrantMajor(c.xs, c.ys, c.lo0, c.hi0, c.lo1,
                                          c.hi1));
  }
}

TEST(ProdKde2dMathTest, MergeSortedTailMatchesFullSortBitwise) {
  for (OrderCase& c : OrderCases()) {
    SCOPED_TRACE(c.what);
    const size_t n = std::min<size_t>(c.xs.size(), 20000);
    c.xs.resize(n);
    c.ys.resize(n);
    std::vector<double> fx = c.xs, fy = c.ys;
    multidim::SortPointsQuadrantMajor(fx, fy, c.lo0, c.hi0, c.lo1, c.hi1);
    // Refit-sized tails (the default interval and a bench's 4096) and the
    // extremes.
    for (const size_t split : {size_t{0}, size_t{1}, size_t{2}, n / 7, n / 2,
                               n - std::min<size_t>(n, 4096), n - 1024,
                               n - 2, n - 1, n}) {
      std::vector<double> mx = c.xs, my = c.ys;
      multidim::SortPointsQuadrantMajor(std::span<double>(mx).first(split),
                                        std::span<double>(my).first(split),
                                        c.lo0, c.hi0, c.lo1, c.hi1);
      multidim::SortPointsQuadrantMajor(mx, my, c.lo0, c.hi0, c.lo1, c.hi1,
                                        split);
      EXPECT_EQ(mx, fx) << "split=" << split;
      EXPECT_EQ(my, fy) << "split=" << split;
    }
  }
}

TEST(ProdKde2dMathTest, IsQuadrantMajorRejectsDisorderAndNonFinite) {
  // Quadrants (x half, y half) 00, 01, 11, 11, 11 on the unit square; the
  // third and fourth points share a 256-grid cell and are in (x, y) order.
  const std::vector<double> xs = {0.1, 0.1, 0.5, 0.5001, 0.9};
  const std::vector<double> ys = {0.1, 0.6, 0.5, 0.5, 0.9};
  const auto ordered = [](std::vector<double> x, std::vector<double> y) {
    return multidim::IsQuadrantMajor(x, y, 0.0, 1.0, 0.0, 1.0);
  };
  EXPECT_TRUE(ordered(xs, ys));
  // Lex order is not quadrant-major: quadrant 11 before quadrant 10.
  EXPECT_FALSE(ordered({0.6, 0.9}, {0.9, 0.1}));
  std::vector<double> x = xs, y = ys;
  std::swap(x[2], x[3]);  // one cell's points out of (x, y) order
  EXPECT_FALSE(ordered(x, y));
  x = xs;
  std::swap(y[0], y[1]);  // a key out of order
  EXPECT_FALSE(ordered(x, y));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf}) {
    x = xs;
    x[4] = bad;
    EXPECT_FALSE(ordered(x, ys));
  }
}

TEST(ProdKde2dMathDeathTest, TreeRejectsColumnsOutOfQuadrantMajorOrder) {
  // Lex order, not quadrant-major: (0.6, 0.9) lies in a later quadrant than
  // (0.9, 0.1). The tree's ranges would be wrong, so it refuses to build.
  const std::vector<double> xs = {0.6, 0.9}, ys = {0.9, 0.1}, lambdas = {1, 1};
  EXPECT_DEATH(multidim::ProdKde2dTree(xs, ys, lambdas, 0.1, 0.1, 0.0, 1.0,
                                       0.0, 1.0),
               "quadrant-major");
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

struct Rect {
  double lo0, hi0, lo1, hi1;
};

struct PointSet {
  std::string what;
  std::vector<double> xs, ys, lambdas;
  double hx = 0.0, hy = 0.0;

  /// Σ_i fx_i·fy_i in long double (the oracle RectSum is held to).
  double Oracle(const Rect& r) const {
    long double want = 0.0L;
    for (size_t i = 0; i < xs.size(); ++i) {
      want += DirectFactor(xs[i], lambdas[i], hx, r.lo0, r.hi0) *
              DirectFactor(ys[i], lambdas[i], hy, r.lo1, r.hi1);
    }
    return static_cast<double>(want);
  }
};

/// Sorts a set's points into quadrant-major order (as a fit does) and
/// attaches its λ column: `lambda` < 0 asks for AdaptiveLambdas at α = 0.5,
/// as a live fit makes.
PointSet Fitted(std::string what, std::vector<double> xs,
                std::vector<double> ys, double lambda, double hx, double hy) {
  multidim::SortPointsQuadrantMajor(xs, ys, 0.0, 1.0, 0.0, 1.0);
  std::vector<double> lambdas(xs.size(), lambda);
  if (lambda < 0.0) {
    multidim::AdaptiveLambdas(xs, ys, 0.0, 1.0, 0.0, 1.0, 0.5,
                              multidim::kPilotLog2, lambdas);
  }
  return PointSet{std::move(what), std::move(xs), std::move(ys),
                  std::move(lambdas), hx, hy};
}

multidim::ProdKde2dTree TreeOf(const PointSet& set) {
  return multidim::ProdKde2dTree(set.xs, set.ys, set.lambdas, set.hx, set.hy,
                                 0.0, 1.0, 0.0, 1.0);
}

/// The documented RectSum bound ε·n·(n + 64 + 2^9·(K + 32)), with K the
/// largest moment node of the tree (at least the largest one a walk uses).
double RectSumBound(const multidim::ProdKde2dTree& tree) {
  size_t k_max = 0;
  for (const multidim::ProdKde2dTree::Node& node : tree.nodes()) {
    if (node.has_moments != 0) {
      k_max = std::max<size_t>(k_max, node.end - node.begin);
    }
  }
  const double n = static_cast<double>(tree.nodes()[0].end);
  return std::ldexp(n, -53) *
         (n + 64.0 + 512.0 * (static_cast<double>(k_max) + 32.0));
}

/// Per-verdict node counts of the walk RectSum makes for `r`: the same
/// Classify verdicts, descending where it descends.
struct WalkCounts {
  size_t covered = 0, disjoint = 0, moments = 0, leaves = 0;
};

void CountWalk(const multidim::ProdKde2dTree& tree, const Rect& r,
               uint32_t id, WalkCounts* counts) {
  using Cover = multidim::ProdKde2dTree::Cover;
  const multidim::ProdKde2dTree::Node& node = tree.nodes()[id];
  switch (multidim::ProdKde2dTree::Classify(node, r.lo0, r.hi0, r.lo1,
                                            r.hi1)) {
    case Cover::kDisjoint: ++counts->disjoint; return;
    case Cover::kCovered: ++counts->covered; return;
    case Cover::kMoments: ++counts->moments; return;
    case Cover::kDescend: break;
  }
  if (node.children == 0) {
    ++counts->leaves;
    return;
  }
  for (uint32_t c = node.first_child; c < node.first_child + node.children;
       ++c) {
    CountWalk(tree, r, c, counts);
  }
}

/// Visits every node with its depth (the root is level 0).
template <typename Fn>
void ForEachNode(const multidim::ProdKde2dTree& tree, uint32_t id, int level,
                 const Fn& fn) {
  const multidim::ProdKde2dTree::Node& node = tree.nodes()[id];
  fn(node, level);
  for (uint32_t c = node.first_child; c < node.first_child + node.children;
       ++c) {
    ForEachNode(tree, c, level + 1, fn);
  }
}

TEST(ProdKde2dMathTest, TreeRectSumMatchesNoPruningReference) {
  stats::Rng rng(47);
  const size_t n = 500;
  std::vector<double> xs(n), ys(n), lambdas(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble();
    ys[i] = rng.UniformDouble();
  }
  multidim::SortPointsQuadrantMajor(xs, ys, 0.0, 1.0, 0.0, 1.0);
  for (double& l : lambdas) l = rng.Uniform(0.25, 4.0);
  const kernel::Kernel k(kernel::KernelType::kEpanechnikov);
  const double hx = 0.04, hy = 0.07;
  const multidim::ProdKde2dTree tree(xs, ys, lambdas, hx, hy, 0.0, 1.0, 0.0,
                                     1.0);
  for (int rep = 0; rep < 64; ++rep) {
    double lo0 = rng.Uniform(-0.2, 1.2), hi0 = rng.Uniform(-0.2, 1.2);
    double lo1 = rng.Uniform(-0.2, 1.2), hi1 = rng.Uniform(-0.2, 1.2);
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    if (rep % 7 == 0) lo0 = -kInf;
    if (rep % 11 == 0) hi1 = kInf;
    const double got = tree.RectSum(lo0, hi0, lo1, hi1);
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
  EXPECT_EQ(tree.RectSum(-kInf, kInf, -kInf, kInf), static_cast<double>(n));
}

/// Point sets whose geometry stresses the tree: points exactly on cell
/// boundaries and on the domain's upper edges (the closed last cell), every
/// point in one cell, λ pinned at either end of its range (λ = 4 makes
/// sparse moment nodes far narrower than their scale), a dyadic lattice
/// whose CDF arguments are exact, a level-8 cell dense enough to stay a
/// large moment leaf, and a live fit's adaptive λ on anti-product data.
/// Every set but the lattice comes at two bandwidth pairs: (0.004, 0.006),
/// scales well inside a 1/64 cell, and (0.05, 0.075), where λ = 4 gives
/// scales ~0.2 and whole groups of cells take the moment path.
std::vector<PointSet> AdversarialPointSets() {
  std::vector<PointSet> sets;
  const double g = static_cast<double>(multidim::ProdKde2dTree::kGrid);
  stats::Rng rng(59);
  const auto swept = [&sets](const PointSet& set) {
    for (const double h : {0.004, 0.05}) {
      PointSet copy = set;
      copy.what += " h=" + std::to_string(h);
      copy.hx = h;
      copy.hy = 1.5 * h;
      sets.push_back(std::move(copy));
    }
  };
  {
    std::vector<double> xs, ys;
    for (int i = 0; i <= 64; i += 3) {
      for (int j = 0; j <= 64; j += 5) {
        xs.push_back(i / g);
        ys.push_back(j / g);
      }
    }
    for (int r = 0; r < 40; ++r) {
      xs.push_back(1.0);  // clamped onto the upper edge
      ys.push_back(rng.UniformDouble());
      xs.push_back(rng.UniformDouble());
      ys.push_back(1.0);
    }
    xs.push_back(1.0);
    ys.push_back(1.0);
    PointSet s = Fitted("cell boundaries and upper edges", xs, ys, 1.0, 0.0,
                        0.0);
    for (double& l : s.lambdas) l = rng.Uniform(0.25, 4.0);
    swept(s);
  }
  {
    std::vector<double> xs, ys;
    for (int i = 0; i < 600; ++i) {  // > one CdfMany chunk
      xs.push_back(0.5 + rng.UniformDouble() / (2.0 * g));
      ys.push_back(0.25 + rng.UniformDouble() / (2.0 * g));
    }
    PointSet s = Fitted("one cell, mixed lambda", xs, ys, 1.0, 0.0, 0.0);
    for (double& l : s.lambdas) l = rng.Uniform(0.25, 4.0);
    swept(s);
  }
  for (const double lambda : {multidim::kMinLambda, multidim::kMaxLambda}) {
    std::vector<double> xs, ys;
    for (int i = 0; i < 800; ++i) {
      xs.push_back(rng.UniformDouble());
      ys.push_back(rng.UniformDouble() * rng.UniformDouble());
    }
    swept(Fitted("lambda " + std::to_string(lambda), xs, ys, lambda, 0.0,
                 0.0));
  }
  {
    std::vector<double> xs, ys;
    for (int i = 0; i < 128; i += 3) {
      for (int j = 0; j < 128; j += 2) {
        xs.push_back(i / 128.0);
        ys.push_back(j / 128.0);
      }
    }
    // h and λ powers of two: every argument (e − x)/(h·λ) at a lattice
    // edge is exact, so u = ±1 occurs exactly.
    sets.push_back(Fitted("dyadic lattice", xs, ys, 1.0, 1.0 / 64, 1.0 / 32));
  }
  {
    std::vector<double> xs, ys;
    for (int i = 0; i < 2000; ++i) {
      xs.push_back(0.5 + rng.UniformDouble() / 256.0);
      ys.push_back(0.25 + rng.UniformDouble() / 256.0);
    }
    for (int i = 0; i < 500; ++i) {
      xs.push_back(rng.UniformDouble());
      ys.push_back(rng.UniformDouble());
    }
    swept(Fitted("dense level-8 cell", xs, ys, 1.0, 0.0, 0.0));
  }
  {
    std::vector<double> data, xs, ys;
    multidim::SampleAntiProduct2d(rng, 20000, 0.03, &data);
    for (size_t i = 0; i < data.size(); i += 2) {
      xs.push_back(std::clamp(data[i], 0.0, 1.0));
      ys.push_back(std::clamp(data[i + 1], 0.0, 1.0));
    }
    swept(Fitted("fitted anti-product", xs, ys, -1.0, 0.0, 0.0));
  }
  return sets;
}

/// Rectangles whose edges sit where the tree's verdicts flip: for sampled
/// nodes, each saturation threshold c ± R·scale of the box corners and each
/// interior threshold (the moment certification's), nudged by 0 and ±1 ulp,
/// and by ±1e-6 and ±1e-3 of the scale (the Epanechnikov CDF is flat at its
/// support edge, so a threshold loosened by less than ~1e-8 cannot change a
/// value); edges exactly at a point ± its scale (|u| = 1); axis-0 and axis-1
/// marginals; plus ±inf bounds and lo == hi.
std::vector<Rect> AdversarialRects(const PointSet& set,
                                   const multidim::ProdKde2dTree& tree,
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
  const std::span<const multidim::ProdKde2dTree::Node> all = tree.nodes();
  for (size_t c = 0; c < all.size();
       c += std::max<size_t>(1, all.size() / 12)) {
    const multidim::ProdKde2dTree::Node& node = all[c];
    const double xs = 1.0 / node.x_inv, ys = 1.0 / node.y_inv;  // reach
    for (int step = 0; step < 7; ++step) {
      // Covered thresholds: hi at x_max + reach, lo at x_min − reach.
      rects.push_back({nudged(node.x_min - xs, xs, step),
                       nudged(node.x_max + xs, xs, step),
                       nudged(node.y_min - ys, ys, step),
                       nudged(node.y_max + ys, ys, step)});
      // Disjoint thresholds: hi at x_min − reach, lo at x_max + reach.
      rects.push_back({-kInf, nudged(node.x_min - xs, xs, step),
                       nudged(node.y_max + ys, ys, step), kInf});
      rects.push_back({nudged(node.x_max + xs, xs, step), kInf, -kInf,
                       nudged(node.y_min - ys, ys, step)});
      // Interior thresholds: an edge is interior to every point of the box
      // while it lies in (x_max − reach, x_min + reach).
      rects.push_back({nudged(node.x_max - xs, xs, step),
                       nudged(node.x_min + xs, xs, step),
                       nudged(node.y_max - ys, ys, step), kInf});
      rects.push_back({nudged(node.x_min + xs, xs, step), kInf, -kInf,
                       nudged(node.y_max - ys, ys, step)});
    }
  }
  const size_t n = set.xs.size();
  for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 16)) {
    const double sx = set.hx * set.lambdas[i];
    const double sy = set.hy * set.lambdas[i];
    rects.push_back({set.xs[i] - sx, set.xs[i] + sx, set.ys[i] - sy,
                     set.ys[i] + sy});
    rects.push_back({set.xs[i] + sx, kInf, -kInf, set.ys[i] - sy});
  }
  for (int r = 0; r < 24; ++r) {
    double lo0 = rng.Uniform(-0.2, 1.2), hi0 = rng.Uniform(-0.2, 1.2);
    double lo1 = rng.Uniform(-0.2, 1.2), hi1 = rng.Uniform(-0.2, 1.2);
    if (hi0 < lo0) std::swap(lo0, hi0);
    if (hi1 < lo1) std::swap(lo1, hi1);
    rects.push_back({lo0, hi0, lo1, hi1});
    rects.push_back({lo0, lo0, lo1, hi1});  // lo == hi
    rects.push_back({lo0, hi0, -kInf, kInf});  // axis-0 marginal
    rects.push_back({-kInf, kInf, lo1, hi1});  // axis-1 marginal
  }
  for (Rect& r : rects) {  // the interior thresholds cross on wide boxes
    if (r.hi0 < r.lo0) std::swap(r.lo0, r.hi0);
    if (r.hi1 < r.lo1) std::swap(r.lo1, r.hi1);
  }
  rects.push_back({-kInf, kInf, -kInf, kInf});
  rects.push_back({-kInf, -kInf, -kInf, kInf});
  rects.push_back({kInf, kInf, -kInf, kInf});
  rects.push_back({-kInf, kInf, 0.3, 0.3});
  rects.push_back({0.2, kInf, -kInf, 0.7});
  return rects;
}

TEST(ProdKde2dMathTest, TreeRectSumMatchesLongDoubleOracleOnAdversarialGeometry) {
  // Every answer — counted, skipped, moment-summed or per point — lies
  // within the documented bound of the long double oracle, and the walks
  // take every kind of verdict, so the bound is not vacuous.
  stats::Rng rng(61);
  WalkCounts total;
  for (const PointSet& set : AdversarialPointSets()) {
    SCOPED_TRACE(set.what);
    const multidim::ProdKde2dTree tree = TreeOf(set);
    const double bound = RectSumBound(tree);
    const size_t n = set.xs.size();
    for (const Rect& r : AdversarialRects(set, tree, rng)) {
      const double got = tree.RectSum(r.lo0, r.hi0, r.lo1, r.hi1);
      const double want = set.Oracle(r);
      EXPECT_NEAR(got, want, bound)
          << "rect [" << r.lo0 << "," << r.hi0 << "]x[" << r.lo1 << ","
          << r.hi1 << "]";
      // Far inside the worst case in practice.
      EXPECT_NEAR(got, want, 1e-12 * static_cast<double>(n));
      if (r.lo0 == r.hi0 || r.lo1 == r.hi1) {
        // F(hi) − F(lo) of one argument: every factor is exactly 0, and a
        // moment node's coefficients cancel exactly too.
        EXPECT_EQ(got, 0.0);
      }
      CountWalk(tree, r, 0, &total);
    }
    EXPECT_EQ(tree.RectSum(-kInf, kInf, -kInf, kInf),
              static_cast<double>(n));
  }
  EXPECT_GT(total.covered, 0u);
  EXPECT_GT(total.disjoint, 0u);
  EXPECT_GT(total.moments, 0u);
  EXPECT_GT(total.leaves, 0u);
}

TEST(ProdKde2dMathTest, TreeConditionalHalvesAndSplitsStayWithinTheBound) {
  // A conditional is joint / condition, two RectSums that ConditionalSums
  // gives bitwise from one walk; each half must lie within the bound, and
  // so must the ratio's propagated error. Splitting a
  // rectangle at any cut preserves its exact mass (per point,
  // F(b) − F(m) + F(m) − F(a) = F(b) − F(a)), so the pieces' sums must add
  // up to within three bounds.
  stats::Rng rng(63);
  for (const PointSet& set : AdversarialPointSets()) {
    SCOPED_TRACE(set.what);
    const multidim::ProdKde2dTree tree = TreeOf(set);
    const double bound = RectSumBound(tree);
    for (int rep = 0; rep < 48; ++rep) {
      double lo0 = rng.Uniform(-0.1, 1.1), hi0 = rng.Uniform(-0.1, 1.1);
      double lo1 = rng.Uniform(-0.1, 1.1), hi1 = rng.Uniform(-0.1, 1.1);
      if (hi0 < lo0) std::swap(lo0, hi0);
      if (hi1 < lo1) std::swap(lo1, hi1);
      if (rep % 5 == 0) lo0 = -kInf;
      if (rep % 7 == 0) hi1 = kInf;
      const Rect joint{lo0, hi0, lo1, hi1};
      const Rect condition{-kInf, kInf, lo1, hi1};
      const double a = tree.RectSum(lo0, hi0, lo1, hi1);
      const double b = tree.RectSum(-kInf, kInf, lo1, hi1);
      const auto sums = tree.ConditionalSums(lo0, hi0, lo1, hi1);
      EXPECT_EQ(sums.joint, a) << "rep " << rep;
      EXPECT_EQ(sums.condition, b) << "rep " << rep;
      const double want_a = set.Oracle(joint);
      const double want_b = set.Oracle(condition);
      EXPECT_NEAR(a, want_a, bound);
      EXPECT_NEAR(b, want_b, bound);
      if (b > bound && want_b > 0.0) {
        EXPECT_NEAR(a / b, want_a / want_b,
                    (bound + (want_a / want_b) * bound) / (b - bound) +
                        std::ldexp(1.0, -52))
            << "rep " << rep;
      }
      const double cut0 = rng.Uniform(std::max(lo0, -0.1), hi0);
      const double cut1 = rng.Uniform(lo1, std::min(hi1, 1.1));
      EXPECT_NEAR(tree.RectSum(lo0, cut0, lo1, hi1) +
                      tree.RectSum(cut0, hi0, lo1, hi1),
                  a, 3.0 * bound)
          << "rep " << rep;
      EXPECT_NEAR(tree.RectSum(lo0, hi0, lo1, cut1) +
                      tree.RectSum(lo0, hi0, cut1, hi1),
                  a, 3.0 * bound)
          << "rep " << rep;
    }
  }
}

TEST(ProdKde2dMathTest, WalkedNodesAreExactOrCertifiedInterior) {
  // Walking the tree as RectSum does: every point of a node it counts
  // (covered) or skips (disjoint) must have a per-point factor product of
  // exactly 1 or exactly 0 — the claim that makes those verdicts exact —
  // and every point of a moment node must have each axis factor equal to
  // exactly 1 (a saturated pair) or evaluate every finite endpoint strictly
  // inside the cubic (|u| < 1), where the moment polynomial is its value.
  using Cover = multidim::ProdKde2dTree::Cover;
  stats::Rng rng(67);
  size_t covered = 0, disjoint = 0, moments = 0;
  const auto interior_or_saturated = [](double c, double q, double lo,
                                        double hi) {
    const auto term = [&](double e, bool upper) {
      const double u = (e - c) * q;
      return (u > -1.0 && u < 1.0) || (upper ? u >= 1.0 : u <= -1.0);
    };
    return term(hi, true) && term(lo, false);
  };
  for (const PointSet& set : AdversarialPointSets()) {
    SCOPED_TRACE(set.what);
    const multidim::ProdKde2dTree tree = TreeOf(set);
    for (const Rect& r : AdversarialRects(set, tree, rng)) {
      const std::function<void(uint32_t)> walk = [&](uint32_t id) {
        const multidim::ProdKde2dTree::Node& node = tree.nodes()[id];
        const Cover cover = multidim::ProdKde2dTree::Classify(
            node, r.lo0, r.hi0, r.lo1, r.hi1);
        if (cover == Cover::kDescend) {
          for (uint32_t c = node.first_child;
               c < node.first_child + node.children; ++c) {
            walk(c);
          }
          return;
        }
        ++(cover == Cover::kCovered    ? covered
           : cover == Cover::kDisjoint ? disjoint
                                       : moments);
        for (uint32_t i = node.begin; i < node.end; ++i) {
          const double lambda = set.lambdas[i];
          if (cover == Cover::kMoments) {
            ASSERT_EQ(lambda, set.lambdas[node.begin]);
            ASSERT_TRUE(interior_or_saturated(set.xs[i],
                                              1.0 / (set.hx * lambda),
                                              r.lo0, r.hi0));
            ASSERT_TRUE(interior_or_saturated(set.ys[i],
                                              1.0 / (set.hy * lambda),
                                              r.lo1, r.hi1));
            continue;
          }
          const double product =
              multidim::AxisFactor(set.xs[i], lambda, set.hx, r.lo0, r.hi0) *
              multidim::AxisFactor(set.ys[i], lambda, set.hy, r.lo1, r.hi1);
          ASSERT_EQ(product, cover == Cover::kCovered ? 1.0 : 0.0)
              << "point " << i << " rect [" << r.lo0 << "," << r.hi0
              << "]x[" << r.lo1 << "," << r.hi1 << "]";
        }
      };
      walk(0);
    }
  }
  // All three verdicts occur, so the check is not vacuous.
  EXPECT_GT(covered, 0u);
  EXPECT_GT(disjoint, 0u);
  EXPECT_GT(moments, 0u);
}

TEST(ProdKde2dMathTest, TreeIsAStableQuadrantMajorPartition) {
  stats::Rng rng(71);
  std::vector<double> xs(6000), ys(6000), lambdas(6000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.UniformDouble();
    ys[i] = rng.UniformDouble() * rng.UniformDouble();
    lambdas[i] = i % 3 == 0 ? 1.0 : 2.0;
  }
  multidim::SortPointsQuadrantMajor(xs, ys, 0.0, 1.0, 0.0, 1.0);
  const double hx = 0.03, hy = 0.02;
  const multidim::ProdKde2dTree tree(xs, ys, lambdas, hx, hy, 0.0, 1.0, 0.0,
                                     1.0);
  using Tree = multidim::ProdKde2dTree;
  const size_t fine = size_t{1} << Tree::kMaxLevel;
  ASSERT_EQ(tree.nodes()[0].begin, 0u);
  ASSERT_EQ(tree.nodes()[0].end, xs.size());
  size_t visited = 0;
  ForEachNode(tree, 0, 0, [&](const Tree::Node& node, int level) {
    ++visited;
    ASSERT_LT(node.begin, node.end);
    const size_t count = node.end - node.begin;
    // Levels above the grid always split; below it only past kSplitAbove.
    const bool splits = level < Tree::kGridLog2 ||
                        (level < Tree::kMaxLevel && count > Tree::kSplitAbove);
    ASSERT_EQ(node.children != 0, splits) << "level " << level;
    if (splits) {
      // Children tile the parent's range in order.
      uint32_t at = node.begin;
      for (uint32_t c = node.first_child; c < node.first_child + node.children;
           ++c) {
        ASSERT_EQ(tree.nodes()[c].begin, at);
        at = tree.nodes()[c].end;
      }
      ASSERT_EQ(at, node.end);
    }
    const size_t cell_shift = static_cast<size_t>(Tree::kMaxLevel - level);
    const size_t first = node.begin;
    const size_t cx = multidim::CellIndex1d(xs[first], 0.0, 1.0, fine) >>
                      cell_shift;
    const size_t cy = multidim::CellIndex1d(ys[first], 0.0, 1.0, fine) >>
                      cell_shift;
    bool one_lambda = true;
    for (uint32_t i = node.begin; i < node.end; ++i) {
      EXPECT_EQ(multidim::CellIndex1d(xs[i], 0.0, 1.0, fine) >> cell_shift, cx);
      EXPECT_EQ(multidim::CellIndex1d(ys[i], 0.0, 1.0, fine) >> cell_shift, cy);
      EXPECT_GE(xs[i], node.x_min);
      EXPECT_LE(xs[i], node.x_max);
      EXPECT_GE(ys[i], node.y_min);
      EXPECT_LE(ys[i], node.y_max);
      EXPECT_GE(1.0 / (hx * lambdas[i]), node.x_inv);
      EXPECT_GE(1.0 / (hy * lambdas[i]), node.y_inv);
      one_lambda = one_lambda && lambdas[i] == lambdas[first];
      // Points of one finest cell keep their (x, y) order.
      if (i > node.begin && node.children == 0 &&
          multidim::CellIndex1d(xs[i - 1], 0.0, 1.0, fine) ==
              multidim::CellIndex1d(xs[i], 0.0, 1.0, fine) &&
          multidim::CellIndex1d(ys[i - 1], 0.0, 1.0, fine) ==
              multidim::CellIndex1d(ys[i], 0.0, 1.0, fine)) {
        EXPECT_LE(std::pair(xs[i - 1], ys[i - 1]), std::pair(xs[i], ys[i]));
      }
    }
    // Moments exactly where λ is one value and some axis is narrower than
    // two scales (the only boxes a query can certify interior).
    const bool narrow = (node.x_max - node.x_min) * node.x_inv < 2.0 ||
                        (node.y_max - node.y_min) * node.y_inv < 2.0;
    ASSERT_EQ(node.has_moments != 0, one_lambda && narrow)
        << "level " << level;
    if (node.has_moments == 0) return;
    EXPECT_EQ(node.m[0], static_cast<double>(count));
    const long double mx = std::midpoint(node.x_min, node.x_max);
    const long double my = std::midpoint(node.y_min, node.y_max);
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        long double want = 0.0L;
        for (uint32_t i = node.begin; i < node.end; ++i) {
          want += std::pow((xs[i] - mx) * node.x_inv, a) *
                  std::pow((ys[i] - my) * node.y_inv, b);
        }
        EXPECT_NEAR(node.m[4 * a + b], static_cast<double>(want),
                    1e-12 * static_cast<double>(count))
            << "moment " << a << "," << b;
      }
    }
  });
  EXPECT_EQ(visited, tree.nodes().size());
}

TEST(ProdKde2dMathTest, FittedGridCellsHaveOneLambdaOnTheBenchDataSets) {
  // The tree's grid nests the pilot grid, so a live fit's λ is constant on
  // every node at the grid level and below, and every one of them narrow
  // enough to be certified carries moments. The data are perf_multidim's
  // two sets (seeds, components and noise) at its bandwidth scale.
  const size_t n = 200000;
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.45, 0.30, 0.35, 0.08, 0.06, 0.6},
      {0.35, 0.70, 0.60, 0.07, 0.09, -0.5},
      {0.20, 0.50, 0.80, 0.12, 0.05, 0.0}};
  std::vector<double> mixture, anti;
  stats::Rng mixture_rng(1);
  multidim::SampleGaussianMixture2d(mixture_rng, components, n, &mixture);
  stats::Rng anti_rng(2);
  multidim::SampleAntiProduct2d(anti_rng, n, 0.03, &anti);
  using Tree = multidim::ProdKde2dTree;
  for (const auto* data : {&mixture, &anti}) {
    std::vector<double> xs, ys;
    for (size_t i = 0; i < data->size(); i += 2) {
      xs.push_back(std::clamp((*data)[i], 0.0, 1.0));  // as Insert clamps
      ys.push_back(std::clamp((*data)[i + 1], 0.0, 1.0));
    }
    const PointSet set = Fitted("bench", xs, ys, -1.0, 0.03, 0.03);
    const Tree tree = TreeOf(set);
    size_t grid_nodes = 0, with_moments = 0;
    ForEachNode(tree, 0, 0, [&](const Tree::Node& node, int level) {
      if (level < Tree::kGridLog2) return;
      grid_nodes += level == Tree::kGridLog2;
      const double lambda = set.lambdas[node.begin];
      for (uint32_t i = node.begin; i < node.end; ++i) {
        ASSERT_EQ(set.lambdas[i], lambda) << "level " << level;
      }
      const bool narrow = (node.x_max - node.x_min) * node.x_inv < 2.0 ||
                          (node.y_max - node.y_min) * node.y_inv < 2.0;
      EXPECT_EQ(node.has_moments != 0, narrow);
      with_moments += node.has_moments;
    });
    EXPECT_GT(grid_nodes, 1000u);
    EXPECT_GT(with_moments, grid_nodes);
  }
}

TEST(ProdKde2dMathTest, MixedLambdaInsideACellFallsBackPerPoint) {
  // A restored λ column may vary inside one grid cell (AdaptiveLambdas
  // never does that). Such a cell keeps no moments, its points answer per
  // point, and every answer stays within the bound of the oracle.
  stats::Rng rng(73);
  std::vector<double> xs, ys;
  for (int i = 0; i < 400; ++i) {
    xs.push_back(0.5 + rng.UniformDouble() / 64.0);
    ys.push_back(0.5 + rng.UniformDouble() / 64.0);
  }
  for (int i = 0; i < 400; ++i) {
    xs.push_back(rng.UniformDouble());
    ys.push_back(rng.UniformDouble());
  }
  PointSet set = Fitted("mixed cell", xs, ys, 1.0, 0.01, 0.01);
  const size_t cell = multidim::ProdKde2dTree::kGrid / 2;
  size_t mixed = 0;
  for (size_t i = 0; i < set.xs.size(); ++i) {
    if (multidim::CellIndex1d(set.xs[i], 0.0, 1.0, 64) == cell &&
        multidim::CellIndex1d(set.ys[i], 0.0, 1.0, 64) == cell) {
      set.lambdas[i] = mixed++ % 2 == 0 ? 1.0 : 2.0;
    }
  }
  ASSERT_GT(mixed, 100u);
  const multidim::ProdKde2dTree tree = TreeOf(set);
  ForEachNode(tree, 0, 0,
              [&](const multidim::ProdKde2dTree::Node& node, int) {
                const size_t first = node.begin;
                if (node.end - node.begin == mixed &&
                    multidim::CellIndex1d(set.xs[first], 0.0, 1.0, 64) ==
                        cell) {
                  EXPECT_EQ(node.has_moments, 0u);
                }
              });
  const double bound = RectSumBound(tree);
  const double centre = 0.5 + 0.5 / 64.0;
  for (const Rect& r : {Rect{centre, 1.0, -kInf, kInf},
                        Rect{-kInf, kInf, 0.0, centre},
                        Rect{0.4, centre, centre, 0.6},
                        Rect{centre - 0.003, centre + 0.003, 0.0, 1.0}}) {
    EXPECT_NEAR(tree.RectSum(r.lo0, r.hi0, r.lo1, r.hi1), set.Oracle(r),
                bound);
  }
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
  // conditional answer lies in [0, 1] and is bitwise the clamped ratio of
  // its rectangle and axis-1 marginal answers.
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
    // One walk answers the conditional exactly as the documented ratio of
    // its two rectangles.
    const double given =
        est->Answer(selectivity::Query::Marginal(1, lo1, hi1));
    EXPECT_EQ(conditional,
              given > 0.0 ? std::clamp(whole / given, 0.0, 1.0) : 0.0)
        << "rep " << rep;
  }
}

}  // namespace
}  // namespace wde
