#include "kernel/bandwidth.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numerics/optimize.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {

double RuleOfThumbBandwidth(std::span<const double> data) {
  std::vector<double> copy(data.begin(), data.end());
  return RuleOfThumbBandwidthSelect(copy);
}

double RuleOfThumbBandwidthSorted(std::span<const double> sorted) {
  WDE_CHECK_GE(sorted.size(), 2u);
  const double n = static_cast<double>(sorted.size());
  double sigma =
      stats::IqrSorted(sorted, stats::QuantileMethod::kMatlab) / (2.0 * 0.6745);
  if (sigma <= 0.0) sigma = stats::StdDev(sorted);
  if (!(sigma > 0.0)) return 0.0;  // zero spread
  return sigma * std::pow(4.0 / (3.0 * n), 0.2);
}

double RuleOfThumbBandwidthSelect(std::span<double> data) {
  WDE_CHECK_GE(data.size(), 2u);
  // IqrSorted(kMatlab) reads sorted[⌊h⌋ − 1] and its successor for
  // h = clamp(p·n + 0.5, 1, n), p = 1/4, 3/4. Selected in ascending order,
  // each right of the last, each lands on its global order statistic.
  const size_t n = data.size();
  const double nd = static_cast<double>(n);
  double* const d = data.data();
  size_t first = 0;
  for (const double p : {0.25, 0.75}) {
    const auto lo = static_cast<size_t>(std::clamp(p * nd + 0.5, 1.0, nd)) - 1;
    for (size_t k = std::max(lo, first); k < std::min(lo + 2, n); ++k) {
      std::nth_element(d + first, d + k, d + n);
      first = k + 1;
    }
  }
  // The same σ test RuleOfThumbBandwidthSorted makes before its fallback.
  if (!(stats::IqrSorted(data, stats::QuantileMethod::kMatlab) /
            (2.0 * 0.6745) >
        0.0)) {
    std::sort(data.begin(), data.end());
  }
  return RuleOfThumbBandwidthSorted(data);
}

double SilvermanBandwidth(std::span<const double> data) {
  WDE_CHECK_GE(data.size(), 2u);
  const double n = static_cast<double>(data.size());
  const double sd = stats::StdDev(data);
  const double iqr = stats::Iqr(data, stats::QuantileMethod::kType7);
  double sigma = sd;
  if (iqr > 0.0) sigma = std::min(sd, iqr / 1.34);
  WDE_CHECK_GT(sigma, 0.0, "degenerate sample: zero spread");
  return 0.9 * sigma * std::pow(n, -0.2);
}

double LeastSquaresCvCriterion(const Kernel& kernel,
                               std::span<const double> sorted_data,
                               double bandwidth) {
  const size_t n = sorted_data.size();
  WDE_CHECK_GE(n, 2u);
  WDE_CHECK_GT(bandwidth, 0.0);
  const double radius = kernel.support_radius() * bandwidth;
  // Pair sums over |X_i − X_j| ≤ 2R·h (the self-convolution support) using
  // the sorted order. Diagonal terms handled in closed form.
  double conv_sum = 0.0;   // Σ_{i<j} (K*K)(Δ/h)
  double kernel_sum = 0.0; // Σ_{i<j} K(Δ/h)
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double delta = sorted_data[j] - sorted_data[i];
      if (delta > 2.0 * radius) break;
      conv_sum += kernel.SelfConvolution(delta / bandwidth);
      if (delta <= radius) kernel_sum += kernel.Evaluate(delta / bandwidth);
    }
  }
  const double nn = static_cast<double>(n);
  const double integral_f2 =
      (nn * kernel.Roughness() + 2.0 * conv_sum) / (nn * nn * bandwidth);
  const double leave_one_out = 2.0 * (2.0 * kernel_sum) / (nn * (nn - 1.0) * bandwidth);
  return integral_f2 - leave_one_out;
}

double LeastSquaresCvBandwidth(const Kernel& kernel, std::span<const double> data,
                               double lo_factor, double hi_factor, int grid_points) {
  WDE_CHECK_GE(data.size(), 4u);
  WDE_CHECK(lo_factor > 0.0 && hi_factor > lo_factor);
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const double pilot = RuleOfThumbBandwidthSorted(sorted);
  const double log_lo = std::log(lo_factor * pilot);
  const double log_hi = std::log(hi_factor * pilot);
  const double best_log = numerics::GridThenGoldenMinimize(
      [&](double lh) {
        return LeastSquaresCvCriterion(kernel, sorted, std::exp(lh));
      },
      log_lo, log_hi, grid_points, 1e-4);
  return std::exp(best_log);
}

}  // namespace kernel
}  // namespace wde
