#include "multidim/prod_kde2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "multidim/grid2d.hpp"
#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace multidim {
namespace {

/// Zip/unzip through a pair buffer: pair-keyed sorts and merges then reduce
/// to the standard library algorithms, and equal pairs are identical values,
/// so the resulting coordinate arrays are a function of the multiset alone.
std::vector<std::pair<double, double>> ZipPoints(std::span<const double> xs,
                                                 std::span<const double> ys) {
  std::vector<std::pair<double, double>> pairs(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) pairs[i] = {xs[i], ys[i]};
  return pairs;
}

void UnzipPoints(std::span<const std::pair<double, double>> pairs,
                 std::span<double> xs, std::span<double> ys) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    xs[i] = pairs[i].first;
    ys[i] = pairs[i].second;
  }
}

/// Points per CdfMany batch when a straddling cell is evaluated: the
/// arguments live in stack buffers, so a query allocates nothing.
constexpr size_t kChunk = 256;

/// F(e) of AxisFactor for an infinite endpoint: the exact CDF limit.
double InfiniteEndpoint(double e) { return e > 0.0 ? 1.0 : 0.0; }

/// True when F(e) is exactly 1 for every point of a box whose coordinates
/// are <= c_max and whose scales fl(h·λ) are <= scale. For finite e the
/// smallest argument any such point can have is fl(fl(e − c_max) / scale):
/// subtraction and division round monotonically, and a positive numerator
/// only grows when divided by a smaller scale.
bool AllUpper(double e, double c_max, double scale, double r) {
  return std::isfinite(e) ? (e - c_max) / scale >= r : e > 0.0;
}

/// True when F(e) is exactly 0 for every point of a box whose coordinates
/// are >= c_min and whose scales are <= scale (the mirror of AllUpper).
bool AllLower(double e, double c_min, double scale, double r) {
  return std::isfinite(e) ? (e - c_min) / scale <= -r : e < 0.0;
}

/// One axis of a box against [lo, hi]: which endpoint terms of every
/// point's factor F(hi) − F(lo) are certified constants.
struct AxisVerdict {
  /// Every factor is exactly 0: F(hi) ≡ 0 (then F(lo) ≡ 0 too, since
  /// lo <= hi and the arguments are monotone in the endpoint) or F(lo) ≡ 1
  /// (then F(hi) ≡ 1).
  bool disjoint = false;
  bool upper_one = false;   // F(hi) ≡ 1
  bool lower_zero = false;  // F(lo) ≡ 0

  bool covered() const { return upper_one && lower_zero; }
};

AxisVerdict Judge(double lo, double hi, double c_min, double c_max,
                  double scale, double r) {
  AxisVerdict v;
  v.disjoint = AllLower(hi, c_min, scale, r) || AllUpper(lo, c_max, scale, r);
  if (!v.disjoint) {
    v.upper_one = AllUpper(hi, c_max, scale, r);
    v.lower_zero = AllLower(lo, c_min, scale, r);
  }
  return v;
}

/// out[j] = AxisFactor(k, coords[j], lambdas[j], h, lo, hi) for j < m
/// (m <= kChunk), bit-identically: the same expressions, with CdfMany
/// standing in for Cdf, and a certified constant term (1 − F(lo), or
/// F(hi) − 0) not evaluated. A non-disjoint verdict certifies every
/// infinite endpoint (+inf upper, −inf lower), so only finite ones are
/// evaluated.
void AxisFactorChunk(const kernel::Kernel& k, const double* coords,
                     const double* lambdas, size_t m, double h, double lo,
                     double hi, const AxisVerdict& v, double* out) {
  double arg[kChunk];
  if (v.upper_one) {
    std::fill(out, out + m, 1.0);
  } else {
    WDE_SIMD_LOOP
    for (size_t j = 0; j < m; ++j) arg[j] = (hi - coords[j]) / (h * lambdas[j]);
    k.CdfMany(std::span<const double>(arg, m), std::span<double>(out, m));
  }
  if (!v.lower_zero) {
    double lower[kChunk];
    WDE_SIMD_LOOP
    for (size_t j = 0; j < m; ++j) arg[j] = (lo - coords[j]) / (h * lambdas[j]);
    k.CdfMany(std::span<const double>(arg, m), std::span<double>(lower, m));
    WDE_SIMD_LOOP
    for (size_t j = 0; j < m; ++j) out[j] -= lower[j];
  }
}

}  // namespace

void SortPointsLex(std::span<double> xs, std::span<double> ys) {
  WDE_CHECK_EQ(xs.size(), ys.size());
  auto pairs = ZipPoints(xs, ys);
  std::sort(pairs.begin(), pairs.end());
  UnzipPoints(pairs, xs, ys);
}

void MergeSortedTailLex(std::span<double> xs, std::span<double> ys,
                        size_t split) {
  WDE_CHECK_EQ(xs.size(), ys.size());
  WDE_CHECK_LE(split, xs.size());
  auto pairs = ZipPoints(xs, ys);
  const auto mid = pairs.begin() + static_cast<ptrdiff_t>(split);
  std::sort(mid, pairs.end());
  std::inplace_merge(pairs.begin(), mid, pairs.end());
  UnzipPoints(pairs, xs, ys);
}

bool IsLexSorted(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) return false;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(ys[i])) return false;
    if (i == 0) continue;
    if (xs[i] < xs[i - 1]) return false;
    if (xs[i] == xs[i - 1] && ys[i] < ys[i - 1]) return false;
  }
  return true;
}

void AdaptiveLambdas(std::span<const double> xs, std::span<const double> ys,
                     double lo0, double hi0, double lo1, double hi1,
                     double alpha, int pilot_log2, std::span<double> lambdas) {
  WDE_CHECK_EQ(xs.size(), lambdas.size());
  WDE_CHECK_EQ(ys.size(), lambdas.size());
  const size_t n = xs.size();
  if (n == 0) return;
  if (alpha == 0.0) {
    std::fill(lambdas.begin(), lambdas.end(), 1.0);
    return;
  }
  const size_t g = size_t{1} << pilot_log2;
  std::vector<double> cells(g * g, 0.0);
  std::vector<size_t> cell_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t cell = CellIndex1d(xs[i], lo0, hi0, g) * g +
                        CellIndex1d(ys[i], lo1, hi1, g);
    cell_of[i] = cell;
    cells[cell] += 1.0;
  }
  // Geometric mean of the per-point pilot masses, accumulated in index
  // order (one sequential chain — deterministic in the point sequence).
  double log_sum = 0.0;
  for (size_t i = 0; i < n; ++i) log_sum += std::log(cells[cell_of[i]]);
  const double geo_mean = std::exp(log_sum / static_cast<double>(n));
  for (size_t i = 0; i < n; ++i) {
    lambdas[i] = std::clamp(std::pow(cells[cell_of[i]] / geo_mean, -alpha),
                            kMinLambda, kMaxLambda);
  }
}

double AxisFactor(const kernel::Kernel& k, double c, double lambda, double h,
                  double lo, double hi) {
  const double upper =
      std::isfinite(hi) ? k.Cdf((hi - c) / (h * lambda)) : InfiniteEndpoint(hi);
  const double lower =
      std::isfinite(lo) ? k.Cdf((lo - c) / (h * lambda)) : InfiniteEndpoint(lo);
  return upper - lower;
}

ProdKde2dCells::ProdKde2dCells(std::span<const double> xs,
                               std::span<const double> ys,
                               std::span<const double> lambdas, double hx,
                               double hy, double lo0, double hi0, double lo1,
                               double hi1,
                               std::shared_ptr<const void> keepalive)
    : xs_(xs),
      ys_(ys),
      lambdas_(lambdas),
      keepalive_(std::move(keepalive)),
      hx_(hx),
      hy_(hy) {
  WDE_CHECK_EQ(xs.size(), ys.size());
  WDE_CHECK_EQ(xs.size(), lambdas.size());
  const size_t n = xs.size();
  WDE_CHECK_LE(n, size_t{UINT32_MAX});
  constexpr size_t g = kGrid;
  // Stable counting sort by cell: per-cell counts, exclusive offsets, one
  // scatter in input order.
  std::vector<uint16_t> cell_of(n);
  std::vector<size_t> offset(g * g + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t cell =
        CellIndex1d(xs[i], lo0, hi0, g) * g + CellIndex1d(ys[i], lo1, hi1, g);
    cell_of[i] = static_cast<uint16_t>(cell);
    ++offset[cell + 1];
  }
  for (size_t c = 0; c < g * g; ++c) offset[c + 1] += offset[c];
  order_.resize(n);
  std::vector<size_t> next(offset.begin(), offset.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    order_[next[cell_of[i]]++] = static_cast<uint32_t>(i);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t col = 0; col < g; ++col) {
    Column column{cells_.size(), cells_.size(), kInf, -kInf, 0.0};
    for (size_t c = col * g; c < (col + 1) * g; ++c) {
      if (offset[c] == offset[c + 1]) continue;
      Cell cell{offset[c], offset[c + 1], kInf, -kInf, kInf, -kInf, 0.0, 0.0};
      double lambda_max = 0.0;
      for (size_t j = cell.begin; j < cell.end; ++j) {
        const uint32_t i = order_[j];
        cell.x_min = std::min(cell.x_min, xs[i]);
        cell.x_max = std::max(cell.x_max, xs[i]);
        cell.y_min = std::min(cell.y_min, ys[i]);
        cell.y_max = std::max(cell.y_max, ys[i]);
        lambda_max = std::max(lambda_max, lambdas[i]);
      }
      // fl(h·λ) is monotone in λ, so these bound every point's scale.
      cell.x_scale = hx * lambda_max;
      cell.y_scale = hy * lambda_max;
      column.x_min = std::min(column.x_min, cell.x_min);
      column.x_max = std::max(column.x_max, cell.x_max);
      column.x_scale = std::max(column.x_scale, cell.x_scale);
      cells_.push_back(cell);
    }
    column.cell_end = cells_.size();
    if (column.cell_end != column.cell_begin) columns_.push_back(column);
  }
}

ProdKde2dCells::Cover ProdKde2dCells::Classify(const kernel::Kernel& k,
                                               const Cell& cell, double lo0,
                                               double hi0, double lo1,
                                               double hi1) {
  const double r = k.support_radius();
  const AxisVerdict x =
      Judge(lo0, hi0, cell.x_min, cell.x_max, cell.x_scale, r);
  const AxisVerdict y =
      Judge(lo1, hi1, cell.y_min, cell.y_max, cell.y_scale, r);
  if (x.disjoint || y.disjoint) return Cover::kDisjoint;
  return x.covered() && y.covered() ? Cover::kCovered : Cover::kStraddling;
}

double ProdKde2dCells::RectSum(const kernel::Kernel& k, double lo0, double hi0,
                               double lo1, double hi1) const {
  const double r = k.support_radius();
  double coord[kChunk];
  double lambda[kChunk];
  double fx[kChunk];
  double fy[kChunk];
  // One sequential chain in cell-major order: covered cells add their
  // counts, straddling cells their points' products, nothing else is added.
  double sum = 0.0;
  for (const Column& column : columns_) {
    // The column's box holds all of its cells' boxes, so its verdict on x
    // holds for each of them.
    const AxisVerdict column_x =
        Judge(lo0, hi0, column.x_min, column.x_max, column.x_scale, r);
    if (column_x.disjoint) continue;
    for (size_t c = column.cell_begin; c < column.cell_end; ++c) {
      const Cell& cell = cells_[c];
      const AxisVerdict x =
          column_x.covered()
              ? column_x
              : Judge(lo0, hi0, cell.x_min, cell.x_max, cell.x_scale, r);
      if (x.disjoint) continue;
      const AxisVerdict y =
          Judge(lo1, hi1, cell.y_min, cell.y_max, cell.y_scale, r);
      if (y.disjoint) continue;
      if (x.covered() && y.covered()) {
        sum += static_cast<double>(cell.end - cell.begin);
        continue;
      }
      // A covered axis has factors of exactly 1 and 1·f == f, so only the
      // straddling axes are gathered and evaluated.
      for (size_t b = cell.begin; b < cell.end; b += kChunk) {
        const size_t m = std::min(kChunk, cell.end - b);
        const uint32_t* at = &order_[b];
        for (size_t j = 0; j < m; ++j) lambda[j] = lambdas_[at[j]];
        if (!x.covered()) {
          for (size_t j = 0; j < m; ++j) coord[j] = xs_[at[j]];
          AxisFactorChunk(k, coord, lambda, m, hx_, lo0, hi0, x, fx);
        }
        if (!y.covered()) {
          for (size_t j = 0; j < m; ++j) coord[j] = ys_[at[j]];
          AxisFactorChunk(k, coord, lambda, m, hy_, lo1, hi1, y, fy);
        }
        if (x.covered()) {
          for (size_t j = 0; j < m; ++j) sum += fy[j];
        } else if (y.covered()) {
          for (size_t j = 0; j < m; ++j) sum += fx[j];
        } else {
          for (size_t j = 0; j < m; ++j) sum += fx[j] * fy[j];
        }
      }
    }
  }
  return sum;
}

}  // namespace multidim
}  // namespace wde
