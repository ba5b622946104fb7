#include "kernel/kde.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {
namespace {

// Per-thread scratch for the gathered stride-1 operand/result buffers of the
// batch paths, reused across calls so steady-state evaluation never
// allocates. Thread-local keeps the concurrent read-side (sharded fan-out,
// serving views) race-free without locks.
std::vector<double>& ScratchArgs() {
  thread_local std::vector<double> buf;
  return buf;
}
std::vector<double>& ScratchVals() {
  thread_local std::vector<double> buf;
  return buf;
}

}  // namespace

KernelDensityEstimator::KernelDensityEstimator(Kernel kernel, double bandwidth,
                                               memory::Arena samples)
    : kernel_(std::move(kernel)),
      bandwidth_(bandwidth),
      samples_(std::move(samples)),
      sorted_(samples_.F64(0)) {}

Result<KernelDensityEstimator> KernelDensityEstimator::Create(
    Kernel kernel, double bandwidth, std::span<const double> data) {
  if (data.empty()) return Status::InvalidArgument("KDE requires data");
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, data.size()}};
  memory::Arena samples = memory::Arena::Create(specs);
  std::span<double> dst = samples.MutableF64(0);
  std::copy(data.begin(), data.end(), dst.begin());
  std::sort(dst.begin(), dst.end());
  return KernelDensityEstimator(std::move(kernel), bandwidth, std::move(samples));
}

Result<KernelDensityEstimator> KernelDensityEstimator::FromSorted(
    Kernel kernel, double bandwidth, std::span<const double> sorted,
    std::shared_ptr<const void> keepalive) {
  if (sorted.empty()) return Status::InvalidArgument("KDE requires data");
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1] > sorted[i]) {
      return Status::InvalidArgument("FromSorted: samples are not ascending");
    }
  }
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(sorted.data()), sorted.size_bytes());
  const memory::ColumnSpec specs[] = {
      {memory::ColumnKind::kF64, sorted.size()}};
  WDE_ASSIGN_OR_RETURN(memory::Arena samples,
                       memory::Arena::FromImage(specs, bytes, std::move(keepalive)));
  return KernelDensityEstimator(std::move(kernel), bandwidth, std::move(samples));
}

double KernelDensityEstimator::Evaluate(double x) const {
  const double radius = kernel_.support_radius() * bandwidth_;
  const auto lo =
      std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
  const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
  double acc = 0.0;
  for (auto it = lo; it != hi; ++it) {
    acc += kernel_.Evaluate((x - *it) / bandwidth_);
  }
  return acc / (static_cast<double>(sorted_.size()) * bandwidth_);
}

void KernelDensityEstimator::EvaluateMany(std::span<const double> xs,
                                          std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "EvaluateMany spans must match");
  const double radius = kernel_.support_radius() * bandwidth_;
  const double norm = static_cast<double>(sorted_.size()) * bandwidth_;
  std::vector<double>& us = ScratchArgs();
  std::vector<double>& ks = ScratchVals();
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    // Same window, same per-term arithmetic, same left-to-right sum as
    // Evaluate(x) — only the kernel applications run through the gathered
    // SIMD batch, which is elementwise bit-identical.
    const auto lo = std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
    const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
    const size_t window = static_cast<size_t>(hi - lo);
    us.resize(window);
    ks.resize(window);
    const double* base = sorted_.data() + (lo - sorted_.begin());
    const double bandwidth = bandwidth_;
    WDE_SIMD_LOOP
    for (size_t m = 0; m < window; ++m) us[m] = (x - base[m]) / bandwidth;
    kernel_.EvaluateMany(us, ks);
    double acc = 0.0;
    for (size_t m = 0; m < window; ++m) acc += ks[m];
    out[i] = acc / norm;
  }
}

std::vector<double> KernelDensityEstimator::EvaluateOnGrid(double lo, double hi,
                                                           size_t points) const {
  WDE_CHECK_GE(points, 2u);
  WDE_CHECK_LT(lo, hi);
  std::vector<double> out(points);
  const double dx = (hi - lo) / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) {
    out[i] = Evaluate(lo + dx * static_cast<double>(i));
  }
  return out;
}

double KernelDensityEstimator::IntegrateRange(double a, double b) const {
  if (b < a) std::swap(a, b);
  double acc = 0.0;
  for (double x : sorted_) {
    acc += kernel_.Cdf((b - x) / bandwidth_) - kernel_.Cdf((a - x) / bandwidth_);
  }
  return acc / static_cast<double>(sorted_.size());
}

double KernelDensityEstimator::CdfAt(double x) const {
  // sorted_ ascends, so u = (x - X_i)/h descends along the array: a prefix
  // of samples saturates Kernel::Cdf at exactly 1.0 (u >= R), a suffix at
  // exactly 0.0 (u <= -R), and only the window between them needs the table.
  // Both split points use the very comparison the Cdf branches evaluate, and
  // the saturated prefix sums to its exact integer count, so the result is
  // bit-identical to the full per-sample sum of IntegrateRange(-inf, x).
  // The window terms are gathered into contiguous scratch and evaluated by
  // the SIMD batch CDF (elementwise bit-identical to Kernel::Cdf), then
  // summed left to right exactly as the scalar loop did.
  const double radius = kernel_.support_radius();
  const auto ones_end = std::partition_point(
      sorted_.begin(), sorted_.end(),
      [&](double xi) { return (x - xi) / bandwidth_ >= radius; });
  const auto zeros_begin = std::partition_point(
      ones_end, sorted_.end(),
      [&](double xi) { return (x - xi) / bandwidth_ > -radius; });
  double acc = static_cast<double>(ones_end - sorted_.begin());
  const size_t window = static_cast<size_t>(zeros_begin - ones_end);
  if (window != 0) {
    std::vector<double>& us = ScratchArgs();
    std::vector<double>& ks = ScratchVals();
    us.resize(window);
    ks.resize(window);
    const double* base = sorted_.data() + (ones_end - sorted_.begin());
    const double bandwidth = bandwidth_;
    WDE_SIMD_LOOP
    for (size_t m = 0; m < window; ++m) us[m] = (x - base[m]) / bandwidth;
    kernel_.CdfMany(us, ks);
    for (size_t m = 0; m < window; ++m) acc += ks[m];
  }
  return acc / static_cast<double>(sorted_.size());
}

}  // namespace kernel
}  // namespace wde
