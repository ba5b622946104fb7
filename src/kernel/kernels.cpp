#include "kernel/kernels.hpp"

#include <cmath>
#include <vector>

#include "numerics/integration.hpp"
#include "numerics/simd.hpp"
#include "numerics/special_functions.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {
namespace {

double RawKernel(KernelType type, double u) {
  const double au = std::fabs(u);
  switch (type) {
    case KernelType::kEpanechnikov:
      return au <= 1.0 ? 0.75 * (1.0 - u * u) : 0.0;
    case KernelType::kGaussian:
      return numerics::NormalPdf(u);
    case KernelType::kBiweight:
      return au <= 1.0 ? 0.9375 * (1.0 - u * u) * (1.0 - u * u) : 0.0;
    case KernelType::kTriangular:
      return au <= 1.0 ? 1.0 - au : 0.0;
  }
  return 0.0;
}

double RadiusFor(KernelType type) {
  return type == KernelType::kGaussian ? 8.0 : 1.0;
}

}  // namespace

Kernel::Kernel(KernelType type) : type_(type), radius_(RadiusFor(type)) {
  // CDF table on [-R, R], for the kernels without a closed-form CDF here.
  if (type_ != KernelType::kEpanechnikov) {
    const size_t kCdfPoints = 4097;
    const double cdf_dx = 2.0 * radius_ / static_cast<double>(kCdfPoints - 1);
    std::vector<double> density(kCdfPoints);
    for (size_t i = 0; i < kCdfPoints; ++i) {
      density[i] = RawKernel(type_, -radius_ + cdf_dx * static_cast<double>(i));
    }
    std::vector<double> cdf = numerics::CumulativeTrapezoid(density, cdf_dx);
    // Normalize the tail to exactly 1 so range estimates telescope cleanly.
    const double total = cdf.back();
    WDE_CHECK_GT(total, 0.99);
    for (double& c : cdf) c /= total;
    cdf_table_ = std::make_shared<const numerics::UniformGridInterpolator>(
        -radius_, cdf_dx, std::move(cdf));
  }

  // Self-convolution table on [-2R, 2R]; by symmetry compute t >= 0 and
  // mirror.
  const size_t kConvPoints = 2049;
  const double conv_dx = 2.0 * radius_ / static_cast<double>(kConvPoints - 1);
  std::vector<double> half(kConvPoints);
  for (size_t i = 0; i < kConvPoints; ++i) {
    const double t = conv_dx * static_cast<double>(i);
    const double lo = std::max(-radius_, t - radius_);
    const double hi = std::min(radius_, t + radius_);
    half[i] = hi > lo ? numerics::IntegrateFunction(
                            [this, t](double u) {
                              return RawKernel(type_, u) * RawKernel(type_, t - u);
                            },
                            lo, hi, 256)
                      : 0.0;
  }
  std::vector<double> conv(2 * kConvPoints - 1);
  for (size_t i = 0; i < kConvPoints; ++i) {
    conv[kConvPoints - 1 + i] = half[i];
    conv[kConvPoints - 1 - i] = half[i];
  }
  conv_table_ = std::make_shared<const numerics::UniformGridInterpolator>(
      -2.0 * radius_, conv_dx, std::move(conv));
}

const Kernel& Kernel::Shared(KernelType type) {
  // One function-local static per type, so only the kernels in use are
  // ever built.
  switch (type) {
    case KernelType::kGaussian: {
      static const Kernel gaussian(KernelType::kGaussian);
      return gaussian;
    }
    case KernelType::kBiweight: {
      static const Kernel biweight(KernelType::kBiweight);
      return biweight;
    }
    case KernelType::kTriangular: {
      static const Kernel triangular(KernelType::kTriangular);
      return triangular;
    }
    case KernelType::kEpanechnikov:
      break;
  }
  static const Kernel epanechnikov(KernelType::kEpanechnikov);
  return epanechnikov;
}

double Kernel::Evaluate(double u) const { return RawKernel(type_, u); }

void Kernel::EvaluateMany(std::span<const double> us, std::span<double> out) const {
  WDE_CHECK_EQ(us.size(), out.size(), "EvaluateMany spans must match");
  const size_t n = us.size();
  // One loop per kernel type so the dispatch is hoisted; each loop body is
  // the corresponding RawKernel branch verbatim, hence bit-identical.
  switch (type_) {
    case KernelType::kEpanechnikov:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double u = us[i];
        out[i] = std::fabs(u) <= 1.0 ? 0.75 * (1.0 - u * u) : 0.0;
      }
      break;
    case KernelType::kGaussian:
      // exp() keeps this one scalar; the hoisted loop still drops the
      // per-element type dispatch.
      for (size_t i = 0; i < n; ++i) out[i] = numerics::NormalPdf(us[i]);
      break;
    case KernelType::kBiweight:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double u = us[i];
        out[i] =
            std::fabs(u) <= 1.0 ? 0.9375 * (1.0 - u * u) * (1.0 - u * u) : 0.0;
      }
      break;
    case KernelType::kTriangular:
      WDE_SIMD_LOOP
      for (size_t i = 0; i < n; ++i) {
        const double au = std::fabs(us[i]);
        out[i] = au <= 1.0 ? 1.0 - au : 0.0;
      }
      break;
  }
}

double Kernel::Cdf(double u) const {
  if (u <= -radius_) return 0.0;
  if (u >= radius_) return 1.0;
  if (type_ == KernelType::kEpanechnikov) return EpanechnikovCdfInterior(u);
  return cdf_table_->Evaluate(u);
}

void Kernel::CdfMany(std::span<const double> us, std::span<double> out) const {
  WDE_CHECK_EQ(us.size(), out.size(), "CdfMany spans must match");
  const double radius = radius_;
  const size_t count = us.size();
  if (type_ == KernelType::kEpanechnikov) {
    WDE_SIMD_LOOP
    for (size_t i = 0; i < count; ++i) {
      const double u = us[i];
      out[i] = u <= -radius ? 0.0
                            : (u >= radius ? 1.0 : EpanechnikovCdfInterior(u));
    }
    return;
  }
  const double x0 = cdf_table_->x0();
  const double dx = cdf_table_->dx();
  const double* values = cdf_table_->values().data();
  const size_t n = cdf_table_->values().size();
  const double t_max = static_cast<double>(n - 1);
  WDE_SIMD_LOOP
  for (size_t i = 0; i < count; ++i) {
    const double u = us[i];
    // Interior lanes reproduce UniformGridInterpolator::EvaluateOn bit for
    // bit; saturated lanes compute a clamped (valid, discarded) lookup and
    // are overridden by the same comparisons Cdf() branches on.
    const double t = (u - x0) / dx;
    const bool inside = t >= 0.0 && t <= t_max;
    const double tc = inside ? t : 0.0;
    size_t idx = static_cast<size_t>(tc);
    idx = idx < n - 2 ? idx : n - 2;
    const double frac = tc - static_cast<double>(idx);
    const double v = values[idx] * (1.0 - frac) + values[idx + 1] * frac;
    const double interp = !inside ? 0.0 : (t >= t_max ? values[n - 1] : v);
    out[i] = u <= -radius ? 0.0 : (u >= radius ? 1.0 : interp);
  }
}

double Kernel::SelfConvolution(double t) const { return conv_table_->Evaluate(t); }

std::string Kernel::name() const {
  switch (type_) {
    case KernelType::kEpanechnikov:
      return "epanechnikov";
    case KernelType::kGaussian:
      return "gaussian";
    case KernelType::kBiweight:
      return "biweight";
    case KernelType::kTriangular:
      return "triangular";
  }
  return "unknown";
}

}  // namespace kernel
}  // namespace wde
