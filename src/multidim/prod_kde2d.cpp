#include "multidim/prod_kde2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "kernel/kernels.hpp"
#include "multidim/grid2d.hpp"
#include "util/check.hpp"

namespace wde {
namespace multidim {
namespace {

/// A point with its quadrant-major key, ordered by (key, x, y): sorts and
/// merges reduce to the standard library algorithms, and equal tuples are
/// identical values (the key is a function of (x, y)), so the resulting
/// coordinate arrays are a function of the multiset alone.
using KeyedPoint = std::tuple<uint32_t, double, double>;

KeyedPoint Keyed(double x, double y, double lo0, double hi0, double lo1,
                 double hi1) {
  return {QuadrantKey(x, y, lo0, hi0, lo1, hi1), x, y};
}

/// The bits of an 8-bit cell index moved to the even positions of 16, so
/// Spread(ix) << 1 | Spread(iy) interleaves a Morton key, x bit above y bit.
static_assert(ProdKde2dTree::kMaxLevel == 8, "Spread interleaves 8 bits");
size_t Spread(size_t v) {
  v = (v | v << 4) & 0x0F0F;
  v = (v | v << 2) & 0x3333;
  return (v | v << 1) & 0x5555;
}

/// The Epanechnikov CDF K_cdf(u): exactly 0 for u <= −1, exactly 1 for
/// u >= 1, the interior cubic between — the expression Kernel::Cdf and
/// Kernel::CdfMany evaluate, so an infinite argument saturates too.
double EpanechnikovCdf(double u) {
  return u <= -1.0 ? 0.0
                   : (u >= 1.0 ? 1.0 : kernel::EpanechnikovCdfInterior(u));
}

/// One axis of a box against [lo, hi]. Every point's CDF argument is
/// fl(fl(e − x)·q) with q = fl(1/fl(h·λ)); subtraction and multiplication
/// round monotonically, so over a box [c_min, c_max] whose points all have
/// q >= q_box (λ <= the box's largest λ) the four corner arguments
/// fl(fl(e − c)·q_box) bound every point's: an argument of either sign only
/// grows in magnitude under a larger q. ±inf endpoints give ±inf arguments,
/// so they judge like any other.
struct AxisVerdict {
  enum : unsigned {
    /// Every factor is exactly 0: F(hi) ≡ 0 (then F(lo) ≡ 0 too, since
    /// lo <= hi and the arguments are monotone in the endpoint) or F(lo) ≡ 1
    /// (then F(hi) ≡ 1).
    kDisjoint = 1,
    kUpperOne = 2,   // F(hi) ≡ 1
    kLowerZero = 4,  // F(lo) ≡ 0
    /// |u| < 1 at every point for hi (lo): with one λ in the box, F(hi)
    /// (F(lo)) is the interior cubic everywhere.
    kUpperInterior = 8,
    kLowerInterior = 16,
  };
  unsigned bits = 0;

  bool disjoint() const { return (bits & kDisjoint) != 0; }
  bool upper_one() const { return (bits & kUpperOne) != 0; }
  bool lower_zero() const { return (bits & kLowerZero) != 0; }
  bool covered() const {
    return (bits & (kUpperOne | kLowerZero)) == (kUpperOne | kLowerZero);
  }
  /// Both endpoint terms are constants or interior cubics.
  bool polynomial() const {
    return (bits & (kUpperOne | kUpperInterior)) != 0 &&
           (bits & (kLowerZero | kLowerInterior)) != 0;
  }
};

/// Branch-free: the five flags are set from the four corner arguments.
AxisVerdict Judge(double lo, double hi, double c_min, double c_max,
                  double q) {
  const double hi_far = (hi - c_min) * q;   // hi's largest argument
  const double hi_near = (hi - c_max) * q;  // hi's smallest argument
  const double lo_far = (lo - c_min) * q;
  const double lo_near = (lo - c_max) * q;
  const auto flag = [](bool b, unsigned bit) { return b ? bit : 0u; };
  return {flag((hi_far <= -1.0) | (lo_near >= 1.0), AxisVerdict::kDisjoint) |
          flag(hi_near >= 1.0, AxisVerdict::kUpperOne) |
          flag(lo_far <= -1.0, AxisVerdict::kLowerZero) |
          flag((hi_far < 1.0) & (hi_near > -1.0),
               AxisVerdict::kUpperInterior) |
          flag((lo_far < 1.0) & (lo_near > -1.0),
               AxisVerdict::kLowerInterior)};
}

/// AxisFactor of one point with inverse scale q, bit-identically, skipping
/// the endpoint terms the verdict certified constant (1 − F(lo), or
/// F(hi) − 0).
double Factor(const AxisVerdict& v, double c, double q, double lo,
              double hi) {
  const double upper = v.upper_one() ? 1.0 : EpanechnikovCdf((hi - c) * q);
  return v.lower_zero() ? upper : upper - EpanechnikovCdf((lo - c) * q);
}

}  // namespace

uint32_t QuadrantKey(double x, double y, double lo0, double hi0, double lo1,
                     double hi1) {
  constexpr size_t g = size_t{1} << ProdKde2dTree::kMaxLevel;
  return static_cast<uint32_t>(Spread(CellIndex1d(x, lo0, hi0, g)) << 1 |
                               Spread(CellIndex1d(y, lo1, hi1, g)));
}

void SortPointsQuadrantMajor(std::span<double> xs, std::span<double> ys,
                             double lo0, double hi0, double lo1, double hi1,
                             size_t sorted_prefix) {
  WDE_CHECK_EQ(xs.size(), ys.size());
  WDE_CHECK_LE(sorted_prefix, xs.size());
  std::vector<KeyedPoint> points(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    points[i] = Keyed(xs[i], ys[i], lo0, hi0, lo1, hi1);
  }
  const auto mid = points.begin() + static_cast<ptrdiff_t>(sorted_prefix);
  std::sort(mid, points.end());
  std::inplace_merge(points.begin(), mid, points.end());
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::get<1>(points[i]);
    ys[i] = std::get<2>(points[i]);
  }
}

bool IsQuadrantMajor(std::span<const double> xs, std::span<const double> ys,
                     double lo0, double hi0, double lo1, double hi1) {
  if (xs.size() != ys.size()) return false;
  KeyedPoint prev;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!std::isfinite(xs[i]) || !std::isfinite(ys[i])) return false;
    const KeyedPoint point = Keyed(xs[i], ys[i], lo0, hi0, lo1, hi1);
    if (i > 0 && point < prev) return false;
    prev = point;
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
  // Geometric mean of the per-point pilot masses, Σ_i log pilot_i grouped
  // by cell: a function of the cell counts alone, whatever the point
  // order. λ is a function of the cell: one pow per cell, then a gather.
  double log_sum = 0.0;
  for (const double c : cells) log_sum += c > 0.0 ? c * std::log(c) : 0.0;
  const double geo_mean = std::exp(log_sum / static_cast<double>(n));
  for (double& cell : cells) {
    cell = std::clamp(std::pow(cell / geo_mean, -alpha), kMinLambda,
                      kMaxLambda);
  }
  for (size_t i = 0; i < n; ++i) lambdas[i] = cells[cell_of[i]];
}

double AxisFactor(double c, double lambda, double h, double lo, double hi) {
  const double q = 1.0 / (h * lambda);
  return EpanechnikovCdf((hi - c) * q) - EpanechnikovCdf((lo - c) * q);
}

/// The union of a node's boxes and its λ range, combined bottom-up.
struct ProdKde2dTree::Extent {
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -std::numeric_limits<double>::infinity();
  double y_min = std::numeric_limits<double>::infinity();
  double y_max = -std::numeric_limits<double>::infinity();
  double lambda_min = std::numeric_limits<double>::infinity();
  double lambda_max = 0.0;

  void Add(const Extent& e) {
    x_min = std::min(x_min, e.x_min);
    x_max = std::max(x_max, e.x_max);
    y_min = std::min(y_min, e.y_min);
    y_max = std::max(y_max, e.y_max);
    lambda_min = std::min(lambda_min, e.lambda_min);
    lambda_max = std::max(lambda_max, e.lambda_max);
  }
};

ProdKde2dTree::ProdKde2dTree(std::span<const double> xs,
                             std::span<const double> ys,
                             std::span<const double> lambdas, double hx,
                             double hy, double lo0, double hi0, double lo1,
                             double hi1, std::shared_ptr<const void> keepalive)
    : xs_(xs),
      ys_(ys),
      lambdas_(lambdas),
      keepalive_(std::move(keepalive)),
      hx_(hx),
      hy_(hy) {
  WDE_CHECK_EQ(xs.size(), ys.size());
  WDE_CHECK_EQ(xs.size(), lambdas.size());
  const size_t n = xs.size();
  WDE_CHECK_LT(n, size_t{UINT32_MAX});
  // The columns are sorted by Morton key, so every node is a contiguous key
  // range, hence index range: count the points per key, prefix-sum.
  constexpr size_t keys = size_t{1} << (2 * kMaxLevel);
  std::vector<uint32_t> offset(keys + 1, 0);
  uint32_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = QuadrantKey(xs[i], ys[i], lo0, hi0, lo1, hi1);
    WDE_CHECK_GE(key, prev, "the columns must be in quadrant-major order");
    prev = key;
    ++offset[key + 1];
  }
  for (size_t c = 0; c < keys; ++c) offset[c + 1] += offset[c];
  // Sized exactly: the nodes live as long as the fit.
  nodes_.reserve(CountNodes(0, 0, offset));
  nodes_.emplace_back();
  if (n == 0) return;
  Build(0, 0, 0, offset);
  for (Node& node : nodes_) {
    if (node.has_moments != 0) FillMoments(node);
  }
}

namespace {

/// The index range of the node covering Morton cell `cell` of `level`.
std::pair<uint32_t, uint32_t> CellRange(int level, uint32_t cell,
                                        std::span<const uint32_t> offset) {
  const int shift = 2 * (ProdKde2dTree::kMaxLevel - level);
  return {offset[size_t{cell} << shift], offset[size_t{cell + 1} << shift]};
}

bool Splits(int level, uint32_t count) {
  return level < ProdKde2dTree::kGridLog2 ||
         (level < ProdKde2dTree::kMaxLevel &&
          count > ProdKde2dTree::kSplitAbove);
}

}  // namespace

size_t ProdKde2dTree::CountNodes(int level, uint32_t cell,
                                 std::span<const uint32_t> offset) {
  const auto [begin, end] = CellRange(level, cell, offset);
  size_t count = 1;
  if (!Splits(level, end - begin)) return count;
  for (uint32_t child = 4 * cell; child < 4 * cell + 4; ++child) {
    const auto [child_begin, child_end] = CellRange(level + 1, child, offset);
    if (child_begin != child_end) count += CountNodes(level + 1, child, offset);
  }
  return count;
}

ProdKde2dTree::Extent ProdKde2dTree::Build(int level, uint32_t cell,
                                           uint32_t id,
                                           std::span<const uint32_t> offset) {
  const auto [begin, end] = CellRange(level, cell, offset);
  nodes_[id].begin = begin;
  nodes_[id].end = end;
  Extent extent;
  if (Splits(level, end - begin)) {
    // Reserve the non-empty quadrants' slots contiguously, then fill them.
    const auto first = static_cast<uint32_t>(nodes_.size());
    uint32_t children[4];
    size_t count = 0;
    for (uint32_t child = 4 * cell; child < 4 * cell + 4; ++child) {
      const auto [child_begin, child_end] = CellRange(level + 1, child, offset);
      if (child_begin != child_end) children[count++] = child;
    }
    nodes_.resize(nodes_.size() + count);
    nodes_[id].first_child = first;
    nodes_[id].children = static_cast<uint16_t>(count);
    for (size_t c = 0; c < count; ++c) {
      extent.Add(Build(level + 1, children[c],
                       first + static_cast<uint32_t>(c), offset));
    }
  } else {
    for (uint32_t i = begin; i < end; ++i) {
      extent.Add({xs_[i], xs_[i], ys_[i], ys_[i], lambdas_[i], lambdas_[i]});
    }
  }
  Node& node = nodes_[id];
  node.x_min = extent.x_min;
  node.x_max = extent.x_max;
  node.y_min = extent.y_min;
  node.y_max = extent.y_max;
  // fl(1/fl(h·λ)) is antitone in λ, so these bound every point's inverse
  // scale from below; with one λ they ARE every point's.
  node.x_inv = 1.0 / (hx_ * extent.lambda_max);
  node.y_inv = 1.0 / (hy_ * extent.lambda_max);
  // Moments serve only a node with one λ (one scale per axis) and only an
  // axis narrower than two scales can be certified interior, so a node
  // wider than that on both axes would never read them. Marked here and
  // filled once every node is in place.
  if (extent.lambda_min == extent.lambda_max &&
      ((node.x_max - node.x_min) * node.x_inv < 2.0 ||
       (node.y_max - node.y_min) * node.y_inv < 2.0)) {
    node.has_moments = 1;
  }
  return extent;
}

void ProdKde2dTree::FillMoments(Node& node) const {
  const double cx = std::midpoint(node.x_min, node.x_max);
  const double cy = std::midpoint(node.y_min, node.y_max);
  // Sixteen independent sequential chains, in local accumulators.
  double m[16] = {};
  for (uint32_t i = node.begin; i < node.end; ++i) {
    const double z = (xs_[i] - cx) * node.x_inv;
    const double t = (ys_[i] - cy) * node.y_inv;
    const double zp[4] = {1.0, z, z * z, z * z * z};
    const double tp[4] = {1.0, t, t * t, t * t * t};
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) m[4 * a + b] += zp[a] * tp[b];
    }
  }
  std::copy(m, m + 16, node.m);
}

namespace {

/// A moment node's axis factor as a polynomial Σ_a p[a]·zᵃ in the points'
/// offsets z = fl(fl(x − c)·q) from the box midpoint c: each endpoint term
/// is a constant or, when interior, the cubic F(d − z) with
/// d = fl(fl(e − c)·q), expanded in z. `degree` is 0 for a covered axis
/// (the constant 1), 3 otherwise.
struct AxisPoly {
  double p[4] = {0.0, 0.0, 0.0, 0.0};
  int degree = 3;
};

/// Adds sign·F(d − z) to `poly`, F the Epanechnikov interior cubic.
void AddCubic(double d, double sign, AxisPoly* poly) {
  poly->p[0] += sign * kernel::EpanechnikovCdfInterior(d);
  poly->p[1] += sign * (0.75 * (d * d - 1.0));
  poly->p[2] += sign * (-0.75 * d);
  poly->p[3] += sign * 0.25;
}

/// The polynomial of an axis whose verdict is polynomial().
AxisPoly Expand(const AxisVerdict& v, double lo, double hi, double c_min,
                double c_max, double q) {
  AxisPoly poly;
  if (v.covered()) {
    poly.p[0] = 1.0;
    poly.degree = 0;
    return poly;
  }
  const double c = std::midpoint(c_min, c_max);
  if (v.upper_one()) {
    poly.p[0] = 1.0;
  } else {
    AddCubic((hi - c) * q, 1.0, &poly);
  }
  if (!v.lower_zero()) AddCubic((lo - c) * q, -1.0, &poly);
  return poly;
}

/// The verdict Judge gives the whole axis (−inf, +inf): both endpoint
/// terms saturated, every factor exactly 1.
constexpr AxisVerdict kWholeAxis{AxisVerdict::kUpperOne |
                                 AxisVerdict::kLowerZero};

/// The cover of a node whose axes judged x and y — the one judgement
/// RectSum, ConditionalSums and Classify share.
ProdKde2dTree::Cover Resolve(const ProdKde2dTree::Node& node,
                             const AxisVerdict& x, const AxisVerdict& y) {
  using Cover = ProdKde2dTree::Cover;
  if (x.disjoint() || y.disjoint()) return Cover::kDisjoint;
  if (x.covered() && y.covered()) return Cover::kCovered;
  if (node.has_moments != 0 && x.polynomial() && y.polynomial()) {
    return Cover::kMoments;
  }
  return Cover::kDescend;
}

}  // namespace

/// One traversal for a rectangle and, optionally, its condition band
/// (−inf, +inf) × [lo1, hi1]: each open sum takes the terms its own walk
/// would take, in the same order, and a node is descended while either sum
/// still needs it.
struct ProdKde2dTree::Walk {
  const ProdKde2dTree& tree;
  double lo0, hi0, lo1, hi1;
  double joint = 0.0;      // over [lo0, hi0] × [lo1, hi1]
  double condition = 0.0;  // over (−inf, +inf) × [lo1, hi1]

  void Visit(uint32_t id, bool want_joint, bool want_condition) {
    const Node& node = tree.nodes_[id];
    const AxisVerdict y =
        Judge(lo1, hi1, node.y_min, node.y_max, node.y_inv);
    const AxisVerdict x =
        want_joint ? Judge(lo0, hi0, node.x_min, node.x_max, node.x_inv)
                   : kWholeAxis;
    want_joint = want_joint && Settle(node, x, y, &joint);
    want_condition = want_condition && Settle(node, kWholeAxis, y, &condition);
    if (!want_joint && !want_condition) return;
    if (node.children == 0) {
      Leaf(node, x, y, want_joint, want_condition);
      return;
    }
    const uint32_t last = node.first_child + node.children;
    for (uint32_t c = node.first_child; c < last; ++c) {
      Visit(c, want_joint, want_condition);
    }
  }

  /// Adds the node's whole term to *sum when its cover allows; true when
  /// the sum must descend instead.
  bool Settle(const Node& node, const AxisVerdict& x, const AxisVerdict& y,
              double* sum) const {
    switch (Resolve(node, x, y)) {
      case Cover::kDisjoint:
        return false;
      case Cover::kCovered:
        *sum += static_cast<double>(node.end - node.begin);
        return false;
      case Cover::kMoments:
        *sum += MomentSum(
            node.m, Expand(x, lo0, hi0, node.x_min, node.x_max, node.x_inv),
            Expand(y, lo1, hi1, node.y_min, node.y_max, node.y_inv));
        return false;
      case Cover::kDescend:
        break;
    }
    return true;
  }

  /// Σ_a p_a Σ_b q_b M_ab over the terms a covered axis (degree 0) keeps:
  /// its other moments may span a box far wider than its scale and are
  /// never read.
  static double MomentSum(const double* m, const AxisPoly& px,
                          const AxisPoly& py) {
    const double* p = px.p;
    const double* q = py.p;
    if (px.degree == 0) {
      return q[0] * m[0] + q[1] * m[1] + q[2] * m[2] + q[3] * m[3];
    }
    if (py.degree == 0) {
      return p[0] * m[0] + p[1] * m[4] + p[2] * m[8] + p[3] * m[12];
    }
    double sum = 0.0;
    for (int a = 0; a < 4; ++a) {
      const double* row = m + 4 * a;
      sum += p[a] * (q[0] * row[0] + q[1] * row[1] + q[2] * row[2] +
                     q[3] * row[3]);
    }
    return sum;
  }

  /// The node's points one by one, AxisFactor's arithmetic bitwise. A
  /// node with moments has one λ, whose inverse scales are every point's,
  /// bitwise; a node without may mix λ, and each point's inverse scales
  /// come from its own. A covered axis has factors of exactly 1 (1·f == f):
  /// it is skipped, coordinate load included, and the condition's term is
  /// the y factor alone. (Per-point scales and loads on single-λ nodes
  /// measured ~40% slower on perf_multidim.)
  void Leaf(const Node& node, const AxisVerdict& x, const AxisVerdict& y,
            bool want_joint, bool want_condition) {
    const double* xs = tree.xs_.data();
    const double* ys = tree.ys_.data();
    if (node.has_moments == 0) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const double lambda = tree.lambdas_[i];
        const double fy = Factor(y, ys[i], 1.0 / (tree.hy_ * lambda), lo1, hi1);
        if (want_condition) condition += fy;
        if (want_joint) {
          joint += Factor(x, xs[i], 1.0 / (tree.hx_ * lambda), lo0, hi0) * fy;
        }
      }
      return;
    }
    const double qx = node.x_inv;
    const double qy = node.y_inv;
    if (!want_joint || x.covered()) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const double fy = Factor(y, ys[i], qy, lo1, hi1);
        if (want_condition) condition += fy;
        if (want_joint) joint += fy;
      }
    } else if (y.covered()) {  // then the condition is settled already
      for (uint32_t i = node.begin; i < node.end; ++i) {
        joint += Factor(x, xs[i], qx, lo0, hi0);
      }
    } else {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const double fy = Factor(y, ys[i], qy, lo1, hi1);
        if (want_condition) condition += fy;
        joint += Factor(x, xs[i], qx, lo0, hi0) * fy;
      }
    }
  }
};

ProdKde2dTree::Cover ProdKde2dTree::Classify(const Node& node, double lo0,
                                             double hi0, double lo1,
                                             double hi1) {
  return Resolve(node, Judge(lo0, hi0, node.x_min, node.x_max, node.x_inv),
                 Judge(lo1, hi1, node.y_min, node.y_max, node.y_inv));
}

double ProdKde2dTree::RectSum(double lo0, double hi0, double lo1,
                              double hi1) const {
  if (xs_.empty()) return 0.0;
  Walk walk{*this, lo0, hi0, lo1, hi1};
  walk.Visit(0, true, false);
  return walk.joint;
}

ProdKde2dTree::ConditionSums ProdKde2dTree::ConditionalSums(
    double lo0, double hi0, double lo1, double hi1) const {
  if (xs_.empty()) return {};
  Walk walk{*this, lo0, hi0, lo1, hi1};
  walk.Visit(0, true, true);
  return {walk.joint, walk.condition};
}

}  // namespace multidim
}  // namespace wde
