/// \file multidim/prod_kde2d.hpp
/// Pure math behind the "kde2d-prod" estimator: a product-kernel 2-D KDE
/// with per-dimension bandwidths and per-point adaptive bandwidth factors,
///
///   f̂(x, y) = (1/n) Σ_i K((x−x_i)/(hx·λ_i)) · K((y−y_i)/(hy·λ_i))
///                       / (hx·λ_i · hy·λ_i),
///
/// K the Epanechnikov kernel (support [−1, 1], cubic CDF),
/// in the Mazeika/Böhlen/Trivellato product/adaptive style: the two
/// bandwidths come from the paper's per-dimension rule of thumb (optionally
/// refined by least-squares CV), and λ_i = (pilot_i / ḡ)^(−α) sharpens the
/// kernel where a binned pilot density says the data is dense. Rectangle
/// masses are sums of products of per-axis kernel-CDF differences, answered
/// from a dyadic quadtree (ProdKde2dTree): the compact kernel support lets
/// whole nodes add their count or nothing exactly, and nodes along an edge
/// add a closed-form polynomial in their bivariate moments.
///
/// No estimator/IO dependencies — the selectivity adapter owns storage,
/// refit pacing and snapshots; these kernels are deterministic functions of
/// their spans, so fitted state restored from a snapshot answers
/// bit-identically to the live fit that produced it.
#ifndef WDE_MULTIDIM_PROD_KDE2D_HPP_
#define WDE_MULTIDIM_PROD_KDE2D_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>


namespace wde {
namespace multidim {

/// A point's 256×256-grid cell (CellIndex1d per axis) as a Morton key, x
/// bit above y bit: every ProdKde2dTree node is one range of keys.
uint32_t QuadrantKey(double x, double y, double lo0, double hi0, double lo1,
                     double hi1);

/// Sorts the parallel coordinate arrays into quadrant-major order: by
/// (QuadrantKey, x, y) — the stable counting sort by key of the
/// lexicographic (x, y) order. Equal (x, y) pairs are indistinguishable,
/// so the sorted sequence — and everything derived from it — is a function
/// of the point multiset alone. Every coordinate must be finite. A prefix
/// [0, sorted_prefix) already in that order is kept: only the tail is
/// sorted, then one stable merge — O(Δ log Δ + n), the same sequence as a
/// full sort (the incremental refit's path, refit_equivalence).
void SortPointsQuadrantMajor(std::span<double> xs, std::span<double> ys,
                             double lo0, double hi0, double lo1, double hi1,
                             size_t sorted_prefix = 0);

/// True when (xs, ys) is finite and in quadrant-major order — the check
/// snapshot loads run before adopting fitted columns.
bool IsQuadrantMajor(std::span<const double> xs, std::span<const double> ys,
                     double lo0, double hi0, double lo1, double hi1);

/// Per-point adaptive bandwidth factors from a binned pilot density: the
/// points are binned on a 2^pilot_log2 × 2^pilot_log2 grid over the domain,
/// the pilot mass at point i is its cell's count (always >= 1 — the point
/// itself), ḡ = exp(mean_i log pilot_i) is the geometric mean, and
///   λ_i = clamp((pilot_i / ḡ)^(−α), 1/4, 4)
/// (Abramson-style with exponent scaled by α ∈ [0, 1]; α = 0 short-circuits
/// to λ ≡ 1). Normalizing constants cancel inside the ratio, so raw cell
/// counts stand in for the pilot density. ḡ's log-sum is taken per cell
/// (Σ_c count_c · log count_c), so λ is the same whatever the point order.
void AdaptiveLambdas(std::span<const double> xs, std::span<const double> ys,
                     double lo0, double hi0, double lo1, double hi1,
                     double alpha, int pilot_log2, std::span<double> lambdas);

/// The λ range AdaptiveLambdas can produce; restored fitted columns are
/// validated against it.
inline constexpr double kMinLambda = 0.25;
inline constexpr double kMaxLambda = 4.0;

/// The per-point axis factor of the product kernel for one axis interval
/// [lo, hi] (lo <= hi, neither NaN):
///
///   F(hi) − F(lo),  F(e) = Kcdf(fl(fl(e − c) · q)),  q = fl(1 / fl(h·λ)),
///
/// Kcdf the Epanechnikov CDF as kernel::Kernel::Cdf evaluates it, so a
/// rectangle's un-normalized mass is Σ_i fx_i · fy_i. An infinite endpoint
/// gives an infinite argument, which the CDF saturates to its exact limit
/// (F(+inf) = 1, F(−inf) = 0).
double AxisFactor(double c, double lambda, double h, double lo, double hi);

/// Pilot grid resolution of the adaptive factors: AdaptiveLambdas bins the
/// points on a 2^kPilotLog2 × 2^kPilotLog2 grid over the domain, so λ is a
/// function of the pilot cell.
inline constexpr int kPilotLog2 = 5;

/// Rectangle sums over a fitted point set from a dyadic quadtree of
/// bivariate moment nodes:
///
///   RectSum(rect) = Σ_i fx_i · fy_i   (see AxisFactor; the caller divides
///                                       by n)
///
/// Layout: node 0 is the domain; every node at level L < kGridLog2 splits
/// into its non-empty quadrants, so level kGridLog2 is the 64×64 grid, and a
/// node at level L ∈ [kGridLog2, kMaxLevel) splits again only when it holds
/// more than kSplitAbove points. A node's non-empty children are
/// contiguous in nodes(), in quadrant order (x-half major, y-half minor).
/// The tree borrows quadrant-major columns (SortPointsQuadrantMajor): every
/// node owns a contiguous index range of them, found by one scan of the
/// points' keys, and reads its points in place. Every node keeps its
/// points' tight bounding box and, per axis, the inverse scale
/// q = fl(1/fl(h·λ_max)) of its largest λ. A node whose points share one λ
/// and whose box is narrower than two scales on some axis (only such an
/// axis can ever be certified interior) also keeps the 16 moments Σ zᵃtᵇ
/// (a, b ≤ 3) of z = fl(fl(x − cx)·qx), t = fl(fl(y − cy)·qy) about its box
/// midpoint (cx, cy), i.e. in units of its scales h·λ. The pilot grid nests
/// in the tree (2^kGridLog2 = 2^(kGridLog2 − kPilotLog2) · 2^kPilotLog2, and
/// CellIndex1d scales by powers of two exactly), so on a fit by
/// AdaptiveLambdas every node at level >= kPilotLog2 has one λ, as does any
/// coarser node whose pilot cells share a λ (the clamp at kMaxLambda makes
/// that common in sparse regions). A restored λ column may vary inside a
/// cell; such nodes simply have no moments. O(n), deterministic in the
/// point sequence.
///
/// Query: one walk from the root in node order. An axis of a node is judged
/// by evaluating the per-point CDF arguments at the box's extreme corners
/// with the box's smallest inverse scale, in the same floating-point
/// operations the per-point factors use. Correctly rounded subtraction and
/// multiplication are monotone in each operand, so those evaluations bound
/// every point's argument:
///   - a node whose every point saturates the CDF on some endpoint so that
///     its factor is exactly 0 (disjoint) adds nothing;
///   - a node whose every point has factors of exactly 1 (covered) adds its
///     count;
///   - a moment node whose every finite endpoint is either saturated or
///     strictly interior (|u| < 1 for every point, judged the same way)
///     adds Σ_ab p_a q_b M_ab: each axis factor is then the cubic F(d − z)
///     (or a constant) in the point's offset z, so the node's sum is a
///     polynomial in its moments;
///   - anything else descends to its children, or, at a leaf, evaluates its
///     points one by one (AxisFactor's arithmetic, bitwise), skipping a
///     covered axis (1·f == f exactly).
/// The terms accumulate in one sequential chain in walk order, so the sum is
/// a deterministic function of (points, bandwidths, domain, rectangle) —
/// batch ≡ scalar, restore ≡ live. Covered and disjoint nodes are exact;
/// a moment node of k points differs from the exact real sum of its
/// per-point products by at most 2^9·k·(k + 32)·ε (ε = 2^−53), the rounding
/// of its moments, coefficients and dot product (docs/ARCHITECTURE.md
/// derives it). Hence, with K the largest moment node used,
///   |RectSum − Σ_i fx_i·fy_i| ≤ ε·n·(n + 64 + 2^9·(K + 32)),
/// the n² term being the worst case of the one sequential chain.
///
/// Requires bandwidths with h·kMinLambda > 0 and both 1/(h·kMinLambda) and
/// h·kMaxLambda finite, λ_i ∈ [kMinLambda, kMaxLambda], finite coordinates
/// (points outside the domain still answer correctly, but land in an edge
/// cell and weaken its pruning), quadrant-major columns (checked) and fewer
/// than 2^32 points. Immutable after construction, so concurrent queries
/// over one instance are safe.
class ProdKde2dTree {
 public:
  /// Level of the 64×64 grid every node above it splits down to.
  static constexpr int kGridLog2 = 6;
  static constexpr size_t kGrid = size_t{1} << kGridLog2;
  /// Deepest level (the 256×256 grid).
  static constexpr int kMaxLevel = 8;
  /// A node at level >= kGridLog2 splits only when it holds more points.
  static constexpr size_t kSplitAbove = 128;
  static_assert(kGridLog2 >= kPilotLog2,
                "every pruning-grid cell must lie inside one pilot cell, so "
                "fitted λ is constant on moment nodes");
  /// How RectSum treats a node on reaching it.
  enum class Cover { kDisjoint, kCovered, kMoments, kDescend };

  /// One node: the range, box and inverse scales every visit judges, then
  /// the moments only a moment node reads. (Plain alignment: over-aligned
  /// node arrays fragmented the heap measurably.)
  struct Node {
    uint32_t begin = 0;        // the node's points are [begin, end)
    uint32_t end = 0;
    uint32_t first_child = 0;  // children: nodes()[first_child, + children)
    uint16_t children = 0;     // 0: a leaf
    uint16_t has_moments = 0;  // 1: m holds the moments
    double x_min = 0.0;
    double x_max = 0.0;
    double y_min = 0.0;
    double y_max = 0.0;
    double x_inv = 0.0;  // fl(1 / fl(hx · max λ)) over the node
    double y_inv = 0.0;  // fl(1 / fl(hy · max λ)) over the node
    /// m[4a + b] = Σ zᵃtᵇ over the node's points (m[0] is its count).
    double m[16] = {};
  };

  /// Indexes the quadrant-major columns (xs, ys, λ) without copying them:
  /// the spans must stay valid for the tree's lifetime, which `keepalive`
  /// (e.g. the owning arena's storage handle) may guarantee.
  ProdKde2dTree(std::span<const double> xs, std::span<const double> ys,
                std::span<const double> lambdas, double hx, double hy,
                double lo0, double hi0, double lo1, double hi1,
                std::shared_ptr<const void> keepalive = nullptr);

  /// Σ_i fx_i · fy_i over [lo0, hi0] × [lo1, hi1] (lo <= hi per axis, no
  /// NaN; ±inf allowed).
  double RectSum(double lo0, double hi0, double lo1, double hi1) const;

  /// A conditional query's two sums from one walk.
  struct ConditionSums {
    double joint = 0.0;      // RectSum(lo0, hi0, lo1, hi1)
    double condition = 0.0;  // RectSum(−inf, +inf, lo1, hi1)
  };
  /// Both sums bitwise as the two RectSum calls give them: each takes the
  /// same terms in the same order, but the walk judges every node's y
  /// interval once and a leaf point's y factor serves both.
  ConditionSums ConditionalSums(double lo0, double hi0, double lo1,
                                double hi1) const;

  /// The verdict RectSum acts on when it reaches `node`.
  static Cover Classify(const Node& node, double lo0, double hi0, double lo1,
                        double hi1);

  std::span<const Node> nodes() const { return nodes_; }

 private:
  struct Walk;
  struct Extent;

  /// Nodes under Morton cell `cell` of `level`, itself included, given the
  /// per-key start offsets into the columns.
  static size_t CountNodes(int level, uint32_t cell,
                           std::span<const uint32_t> offset);
  /// Fills node `id` (and its subtree) for that cell; returns its extent.
  Extent Build(int level, uint32_t cell, uint32_t id,
               std::span<const uint32_t> offset);
  /// Sums the moments of a node marked has_moments over its points.
  void FillMoments(Node& node) const;

  std::span<const double> xs_;
  std::span<const double> ys_;
  std::span<const double> lambdas_;
  std::shared_ptr<const void> keepalive_;
  double hx_;
  double hy_;
  std::vector<Node> nodes_;
};

}  // namespace multidim
}  // namespace wde

#endif  // WDE_MULTIDIM_PROD_KDE2D_HPP_
