/// \file multidim/grid2d.hpp
/// Pure 2-D lattice math behind the "grid2d" selectivity estimator: cell
/// indexing over a fixed g×g grid, the inclusive 2-D prefix-sum
/// (summed-area table) rebuild, and the bilinear continuous CDF that turns
/// the table into O(1) rectangle masses. No estimator/IO dependencies —
/// the selectivity adapter owns storage, staleness and snapshots; these
/// kernels are deterministic functions of their spans.
#ifndef WDE_MULTIDIM_GRID2D_HPP_
#define WDE_MULTIDIM_GRID2D_HPP_

#include <algorithm>
#include <cstddef>
#include <span>

namespace wde {
namespace multidim {

/// Cell index of `x` on one axis with `g` cells over [lo, hi]: linear map
/// clamped to [0, g-1] (the last cell is closed, like the 1-D equi-width
/// histogram's bucket rule). Requires finite x, lo < hi, g >= 1. Inline:
/// the tree and pilot builds call it twice per point.
inline size_t CellIndex1d(double x, double lo, double hi, size_t g) {
  x = std::clamp(x, lo, hi);
  const double t = (x - lo) / (hi - lo) * static_cast<double>(g);
  const auto cell =
      std::clamp(static_cast<long>(t), 0L, static_cast<long>(g) - 1);
  return static_cast<size_t>(cell);
}

/// Cell-space coordinate of `x` on one axis: ((x - lo) / (hi - lo)) · g,
/// clamped to [0, g]. ±inf clamps exactly to the matching edge (0 or g);
/// the caller screens NaN (the taxonomy's AnswersZero rule does this before
/// any estimator runs).
double CellSpace1d(double x, double lo, double hi, size_t g);

/// Inclusive 2-D prefix sums (summed-area table) over a row-major g×g count
/// grid: prefix[i·g + j] = Σ counts[a·g + b] for a <= i, b <= j. Both spans
/// must hold exactly g·g elements and may not alias.
///
/// Association is fixed — each row accumulates left-to-right in one
/// sequential chain, then adds the previous row's prefix elementwise
/// (SIMD-annotated; elementwise, so no within-element re-association) — and
/// for integer-valued counts whose partial sums stay below 2^53 every
/// partial sum is exact, so the table is bit-identical however the counts
/// were accumulated (sequential ingest, shard merges, snapshot restore).
void InclusivePrefix2d(std::span<const double> counts, std::span<double> prefix,
                       size_t g);

/// Continuous summed-area CDF, in counts, at cell-space point (u, v) ∈
/// [0, g]²: bilinear interpolation of the lattice-corner values
/// C(i, j) = prefix[(i-1)·g + (j-1)] (zero on the i = 0 / j = 0 edges) —
/// i.e. each cell's count spreads uniformly over its cell. Monotone in both
/// arguments, so inclusion-exclusion rectangle masses are nonnegative up to
/// rounding (callers clamp).
double BilinearCountCdf(std::span<const double> prefix, size_t g, double u,
                        double v);

/// Rectangle count mass of [lo0, hi0] × [lo1, hi1] (domain units, caller-
/// normalized lo <= hi per axis, ±inf legal, NaN screened) over the prefix
/// table: four BilinearCountCdf corners combined by inclusion-exclusion and
/// clamped to >= 0. Axis 0 spans [dlo0, dhi0], axis 1 [dlo1, dhi1].
double RectCount(std::span<const double> prefix, size_t g, double lo0,
                 double hi0, double lo1, double hi1, double dlo0, double dhi0,
                 double dlo1, double dhi1);

}  // namespace multidim
}  // namespace wde

#endif  // WDE_MULTIDIM_GRID2D_HPP_
