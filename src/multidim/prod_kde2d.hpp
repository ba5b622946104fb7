/// \file multidim/prod_kde2d.hpp
/// Pure math behind the "kde2d-prod" estimator: a product-kernel 2-D KDE
/// with per-dimension bandwidths and per-point adaptive bandwidth factors,
///
///   f̂(x, y) = (1/n) Σ_i K((x−x_i)/(hx·λ_i)) · K((y−y_i)/(hy·λ_i))
///                       / (hx·λ_i · hy·λ_i),
///
/// in the Mazeika/Böhlen/Trivellato product/adaptive style: the two
/// bandwidths come from the paper's per-dimension rule of thumb (optionally
/// refined by least-squares CV), and λ_i = (pilot_i / ḡ)^(−α) sharpens the
/// kernel where a binned pilot density says the data is dense. Rectangle
/// masses are products of per-axis kernel-CDF differences, summed over the
/// cells of a 64×64 grid that straddle the rectangle's edges — the compact
/// kernel support makes the pruning exact, not approximate
/// (ProdKde2dCells).
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

#include "kernel/kernels.hpp"

namespace wde {
namespace multidim {

/// Sorts the parallel coordinate arrays lexicographically by (x, y).
/// Equal (x, y) pairs are indistinguishable, so the sorted sequence — and
/// everything derived from it — is a function of the point multiset alone.
void SortPointsLex(std::span<double> xs, std::span<double> ys);

/// Restores lex order after appending a tail at `split` to arrays whose
/// prefix [0, split) is already lex-sorted: sort the tail, one stable merge.
/// O(Δ log Δ + n) against a full sort's O(n log n), identical sequence —
/// the incremental-refit counterpart of SortPointsLex (refit_equivalence).
void MergeSortedTailLex(std::span<double> xs, std::span<double> ys,
                        size_t split);

/// True when (xs, ys) is lex-sorted by (x, y) with every coordinate finite —
/// the validation fast-snapshot loads run before adopting fitted columns.
bool IsLexSorted(std::span<const double> xs, std::span<const double> ys);

/// Per-point adaptive bandwidth factors from a binned pilot density: the
/// points are binned on a 2^pilot_log2 × 2^pilot_log2 grid over the domain,
/// the pilot mass at point i is its cell's count (always >= 1 — the point
/// itself), ḡ = exp(mean_i log pilot_i) is the geometric mean, and
///   λ_i = clamp((pilot_i / ḡ)^(−α), 1/4, 4)
/// (Abramson-style with exponent scaled by α ∈ [0, 1]; α = 0 short-circuits
/// to λ ≡ 1). Normalizing constants cancel inside the ratio, so raw cell
/// counts stand in for the pilot density. Deterministic in the point
/// sequence.
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
///   F(hi) − F(lo),  F(e) = Kcdf((e − c) / (h·λ))  for finite e,
///                   F(+inf) = 1, F(−inf) = 0,
///
/// so a rectangle's un-normalized mass is Σ_i fx_i · fy_i. Infinite
/// endpoints are folded to the exact CDF limits and never reach CdfMany.
double AxisFactor(const kernel::Kernel& k, double c, double lambda, double h,
                  double lo, double hi);

/// Exact cell-pruned rectangle sums over a fitted point set:
///
///   RectSum(rect) = Σ_i fx_i · fy_i   (see AxisFactor; the caller divides
///                                       by n)
///
/// Build: one stable counting sort by CellIndex1d cell over a fixed 64×64
/// grid on the domain yields the points' cell-major order (x-cell major,
/// y-cell minor) as a 4-byte permutation of the input columns, which the
/// index borrows rather than copies. Every non-empty cell keeps its range of
/// that order, its points' tight bounding box and fl(h·λ_max) per axis,
/// every non-empty x-column the union of its cells' boxes. O(n),
/// deterministic in the point sequence.
///
/// Query: an axis of a cell (or column) is classified by evaluating the
/// per-point CDF arguments at the box's extreme corner with the box's
/// largest scale, in the same floating-point operations the per-point
/// factors use. Correctly rounded subtraction and division are monotone in
/// each operand, so that one evaluation bounds every point's argument: when
/// it saturates the CDF (|u| >= R, the kernel's support radius), every
/// point's does too, and the axis factor of every point in the box is
/// exactly 1 (covered) or exactly 0 (disjoint). A cell covered on both axes
/// adds its count; one disjoint on either axis adds nothing; only the points
/// of straddling cells are evaluated, through CdfMany, and a covered axis of
/// a straddling cell is skipped (1·f == f exactly). The terms accumulate in
/// one sequential chain in cell-major order, so the sum is a deterministic
/// function of (points, bandwidths, domain, rectangle) — batch ≡ scalar,
/// restore ≡ live — and differs from the unpruned Σ_i fx_i·fy_i only by the
/// summation order. Requires bandwidths with h·kMinLambda > 0 and
/// h·kMaxLambda finite, λ_i ∈ [kMinLambda, kMaxLambda], finite coordinates
/// (points outside the domain still answer exactly, but land in an edge
/// cell and weaken its pruning) and fewer than 2^32 points. Immutable after
/// construction, so concurrent queries over one instance are safe.
class ProdKde2dCells {
 public:
  /// Cells per axis of the pruning grid.
  static constexpr size_t kGrid = 64;

  /// How a box relates to the rectangle on one axis or both: every point
  /// factor is exactly 0 (kDisjoint), exactly 1 (kCovered), or neither is
  /// certified (kStraddling).
  enum class Cover { kDisjoint, kCovered, kStraddling };

  /// One non-empty cell: its points are order()[begin, end).
  struct Cell {
    size_t begin = 0;
    size_t end = 0;
    double x_min = 0.0;
    double x_max = 0.0;
    double y_min = 0.0;
    double y_max = 0.0;
    double x_scale = 0.0;  // fl(hx · max λ) over the cell
    double y_scale = 0.0;  // fl(hy · max λ) over the cell
  };

  /// Indexes the parallel columns (xs, ys, λ) without copying them: the
  /// spans must stay valid for the index's lifetime, which `keepalive`
  /// (e.g. the owning arena's storage handle) may guarantee.
  ProdKde2dCells(std::span<const double> xs, std::span<const double> ys,
                 std::span<const double> lambdas, double hx, double hy,
                 double lo0, double hi0, double lo1, double hi1,
                 std::shared_ptr<const void> keepalive = nullptr);

  /// Σ_i fx_i · fy_i over [lo0, hi0] × [lo1, hi1] (lo <= hi per axis, no
  /// NaN; ±inf allowed).
  double RectSum(const kernel::Kernel& k, double lo0, double hi0, double lo1,
                 double hi1) const;

  /// How `cell` relates to the rectangle — the verdict RectSum acts on.
  static Cover Classify(const kernel::Kernel& k, const Cell& cell, double lo0,
                        double hi0, double lo1, double hi1);

  std::span<const Cell> cells() const { return cells_; }
  /// The cell-major order: indices into the indexed columns.
  std::span<const uint32_t> order() const { return order_; }

 private:
  /// The non-empty cells [cell_begin, cell_end) of one x-column, with the
  /// union of their x-extents and their largest x_scale.
  struct Column {
    size_t cell_begin = 0;
    size_t cell_end = 0;
    double x_min = 0.0;
    double x_max = 0.0;
    double x_scale = 0.0;
  };

  std::span<const double> xs_;
  std::span<const double> ys_;
  std::span<const double> lambdas_;
  std::shared_ptr<const void> keepalive_;
  double hx_;
  double hy_;
  std::vector<uint32_t> order_;
  std::vector<Cell> cells_;
  std::vector<Column> columns_;
};

}  // namespace multidim
}  // namespace wde

#endif  // WDE_MULTIDIM_PROD_KDE2D_HPP_
