#ifndef WDE_NUMERICS_OPTIMIZE_HPP_
#define WDE_NUMERICS_OPTIMIZE_HPP_

#include <functional>

namespace wde {
namespace numerics {

/// Minimizes a unimodal scalar function on [a, b] by golden-section search.
/// Returns the abscissa of the minimum.
double GoldenSectionMinimize(const std::function<double(double)>& f, double a,
                             double b, double tolerance = 1e-8,
                             int max_iterations = 200);

/// Coarse-to-fine minimizer for possibly multimodal objectives: evaluates f on
/// `grid_points` equally spaced points in [a, b], then refines around the best
/// point with golden-section search.
double GridThenGoldenMinimize(const std::function<double(double)>& f, double a,
                              double b, int grid_points = 32,
                              double tolerance = 1e-8);

/// Solves f(x) = target for monotone non-decreasing f on [a, b] by bisection.
/// Used to invert CDFs. Returns the midpoint of the final bracket.
double BisectMonotone(const std::function<double(double)>& f, double target,
                      double a, double b, double tolerance = 1e-12,
                      int max_iterations = 200);

/// One evaluation of the NewtonBisectMonotone callback: f(x) and f'(x).
struct ValueAndSlope {
  double value = 0.0;
  double slope = 0.0;
};

/// Safeguarded Newton–bisection with BisectMonotone's contract: every
/// evaluation x moves the bracket end lo (f(x) < target) or hi (otherwise),
/// so [lo, hi] ⊆ [a, b] keeps (lo == a or f(lo) < target) and
/// (hi == b or f(hi) >= target). Stops once hi − lo <= tolerance or after
/// max_iterations evaluations and returns the bracket's midpoint. Where the
/// predicate f(x) < target changes sign once, the answer is therefore within
/// `tolerance` of BisectMonotone's.
///
/// The first evaluation is at `start` (the midpoint when `start` is NaN or
/// outside [a, b]). After each evaluation the next point is the Newton step
/// x − (f(x) − target)/f'(x), lengthened to at least tolerance/2 toward the
/// crossing so the far end of the bracket closes once Newton has converged
/// from one side. A step that reaches past a still-unevaluated edge a or b
/// evaluates that edge instead, so a crossing at the edge costs one
/// evaluation, not a bisection toward it. The next point falls back to the
/// bracket's midpoint when the slope is zero, negative or NaN, when the step
/// does not land strictly inside the bracket (or on an unevaluated edge), or
/// when it is longer than half the step before last: step lengths must
/// halve at least every two evaluations, as in the classic rtsafe. (The
/// bracket itself may stay wide while Newton converges from one side, so
/// the rule is on steps, not on the bracket.) With no usable slope and
/// `start` at the midpoint, the evaluations and the answer are exactly
/// BisectMonotone's.
double NewtonBisectMonotone(const std::function<ValueAndSlope(double)>& f,
                            double target, double a, double b, double start,
                            double tolerance = 1e-12, int max_iterations = 200);

}  // namespace numerics
}  // namespace wde

#endif  // WDE_NUMERICS_OPTIMIZE_HPP_
