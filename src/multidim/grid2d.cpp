#include "multidim/grid2d.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace multidim {

double CellSpace1d(double x, double lo, double hi, size_t g) {
  // Clamp in domain units first: ±inf lands exactly on an edge without ever
  // entering the scale arithmetic (inf - inf would poison it).
  x = std::clamp(x, lo, hi);
  const double t = (x - lo) / (hi - lo) * static_cast<double>(g);
  return std::clamp(t, 0.0, static_cast<double>(g));
}

void InclusivePrefix2d(std::span<const double> counts, std::span<double> prefix,
                       size_t g) {
  WDE_CHECK_EQ(counts.size(), g * g);
  WDE_CHECK_EQ(prefix.size(), g * g);
  for (size_t i = 0; i < g; ++i) {
    const double* row = counts.data() + i * g;
    double* out = prefix.data() + i * g;
    // Left-to-right running sum along the row (one sequential chain).
    double running = 0.0;
    for (size_t j = 0; j < g; ++j) {
      running += row[j];
      out[j] = running;
    }
    if (i == 0) continue;
    // Fold in the previous row's prefix elementwise.
    const double* above = prefix.data() + (i - 1) * g;
    WDE_SIMD_LOOP
    for (size_t j = 0; j < g; ++j) out[j] += above[j];
  }
}

namespace {

/// Lattice-corner CDF C(i, j) for i, j in [0, g]: zero on the low edges,
/// prefix[(i-1)·g + (j-1)] elsewhere.
double CornerCdf(std::span<const double> prefix, size_t g, size_t i, size_t j) {
  if (i == 0 || j == 0) return 0.0;
  return prefix[(i - 1) * g + (j - 1)];
}

}  // namespace

double BilinearCountCdf(std::span<const double> prefix, size_t g, double u,
                        double v) {
  const size_t i0 = std::min(static_cast<size_t>(u), g - 1);
  const size_t j0 = std::min(static_cast<size_t>(v), g - 1);
  const double tu = u - static_cast<double>(i0);
  const double tv = v - static_cast<double>(j0);
  const double c00 = CornerCdf(prefix, g, i0, j0);
  const double c10 = CornerCdf(prefix, g, i0 + 1, j0);
  const double c01 = CornerCdf(prefix, g, i0, j0 + 1);
  const double c11 = CornerCdf(prefix, g, i0 + 1, j0 + 1);
  return (1.0 - tu) * ((1.0 - tv) * c00 + tv * c01) +
         tu * ((1.0 - tv) * c10 + tv * c11);
}

double RectCount(std::span<const double> prefix, size_t g, double lo0,
                 double hi0, double lo1, double hi1, double dlo0, double dhi0,
                 double dlo1, double dhi1) {
  const double ulo = CellSpace1d(lo0, dlo0, dhi0, g);
  const double uhi = CellSpace1d(hi0, dlo0, dhi0, g);
  const double vlo = CellSpace1d(lo1, dlo1, dhi1, g);
  const double vhi = CellSpace1d(hi1, dlo1, dhi1, g);
  const double mass = BilinearCountCdf(prefix, g, uhi, vhi) -
                      BilinearCountCdf(prefix, g, ulo, vhi) -
                      BilinearCountCdf(prefix, g, uhi, vlo) +
                      BilinearCountCdf(prefix, g, ulo, vlo);
  return std::max(mass, 0.0);
}

}  // namespace multidim
}  // namespace wde
