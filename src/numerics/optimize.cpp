#include "numerics/optimize.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace wde {
namespace numerics {

double GoldenSectionMinimize(const std::function<double(double)>& f, double a,
                             double b, double tolerance, int max_iterations) {
  WDE_CHECK_LT(a, b);
  const double inv_phi = 0.6180339887498949;  // (sqrt(5)-1)/2
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int i = 0; i < max_iterations && (b - a) > tolerance; ++i) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

double GridThenGoldenMinimize(const std::function<double(double)>& f, double a,
                              double b, int grid_points, double tolerance) {
  WDE_CHECK_GE(grid_points, 3);
  const double step = (b - a) / (grid_points - 1);
  double best_x = a;
  double best_f = f(a);
  for (int i = 1; i < grid_points; ++i) {
    const double x = a + i * step;
    const double fx = f(x);
    if (fx < best_f) {
      best_f = fx;
      best_x = x;
    }
  }
  const double lo = std::max(a, best_x - step);
  const double hi = std::min(b, best_x + step);
  return GoldenSectionMinimize(f, lo, hi, tolerance);
}

double BisectMonotone(const std::function<double(double)>& f, double target,
                      double a, double b, double tolerance, int max_iterations) {
  WDE_CHECK_LE(a, b);
  double lo = a;
  double hi = b;
  for (int i = 0; i < max_iterations && (hi - lo) > tolerance; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double NewtonBisectMonotone(const std::function<ValueAndSlope(double)>& f,
                            double target, double a, double b, double start,
                            double tolerance, int max_iterations) {
  WDE_CHECK_LE(a, b);
  double lo = a;
  double hi = b;
  // Whether a bracket end is still the unevaluated edge a or b.
  bool lo_is_open_edge = true;
  bool hi_is_open_edge = true;
  double x = (start >= a && start <= b) ? start : 0.5 * (a + b);
  // Lengths of the last two steps; the first Newton step may span half the
  // bracket.
  double last_step = b - a;
  double step_before_last = b - a;
  for (int i = 0; i < max_iterations && (hi - lo) > tolerance; ++i) {
    const ValueAndSlope fx = f(x);
    const bool below = fx.value < target;
    if (below) {
      lo = x;
      lo_is_open_edge = false;
    } else {
      hi = x;
      hi_is_open_edge = false;
    }
    double next = 0.5 * (lo + hi);
    if (fx.slope > 0.0) {  // false for zero, negative and NaN slopes
      const double newton = x - (fx.value - target) / fx.slope;
      double step = below ? std::max(newton, x + 0.5 * tolerance)
                          : std::min(newton, x - 0.5 * tolerance);
      // A step to or past an unevaluated edge evaluates the edge itself. A
      // NaN step fails every comparison and bisects.
      const bool probe_edge = below ? (hi_is_open_edge && step >= hi)
                                    : (lo_is_open_edge && step <= lo);
      if (probe_edge) step = below ? hi : lo;
      if ((probe_edge || (step > lo && step < hi)) &&
          2.0 * std::fabs(step - x) <= step_before_last) {
        next = step;
      }
    }
    step_before_last = last_step;
    last_step = std::fabs(next - x);
    x = next;
  }
  return 0.5 * (lo + hi);
}

}  // namespace numerics
}  // namespace wde
