#ifndef WDE_KERNEL_KERNELS_HPP_
#define WDE_KERNEL_KERNELS_HPP_

#include <memory>
#include <span>
#include <string>

#include "numerics/interpolation.hpp"

namespace wde {
namespace kernel {

enum class KernelType { kEpanechnikov, kGaussian, kBiweight, kTriangular };

/// The Epanechnikov CDF on its support interior |u| < 1:
/// K_cdf(u) = ½ + ¾u − ¼u³. Kernel::Cdf, Kernel::CdfMany and the KDE moment
/// tree's partial leaves all evaluate this one expression.
inline double EpanechnikovCdfInterior(double u) {
  return 0.5 + u * (0.75 - 0.25 * u * u);
}

/// A symmetric probability kernel K with unit mass. Provides the kernel
/// itself, its CDF (for selectivity/range queries), and its self-convolution
/// K*K (for the exact ∫f̂² term of least-squares cross-validation). The
/// Epanechnikov CDF is the exact cubic above; the other kernels' CDFs and
/// every self-convolution are precomputed numerically on fine grids, which
/// keeps the class kernel-agnostic; closed forms exist for the shipped
/// kernels and are used as test oracles.
class Kernel {
 public:
  explicit Kernel(KernelType type);

  /// A process-wide instance of `type`, built once. Construction integrates
  /// the CDF and self-convolution tables (milliseconds); copies share those
  /// immutable tables, so copying the shared instance is cheap.
  static const Kernel& Shared(KernelType type);

  double Evaluate(double u) const;

  /// out[i] = Evaluate(us[i]) bit-identically, with the kernel-type dispatch
  /// hoisted out of the loop and the per-type loop SIMD-annotated (see
  /// numerics/simd.hpp for the contract: elementwise, no re-association).
  void EvaluateMany(std::span<const double> us, std::span<double> out) const;

  /// Radius R such that K vanishes outside [-R, R] (effective radius for the
  /// Gaussian).
  double support_radius() const { return radius_; }

  /// ∫_{-∞}^{u} K: exactly 0 for u <= -R and 1 for u >= R; inside, the
  /// closed-form cubic for Epanechnikov, the interpolated table otherwise.
  double Cdf(double u) const;

  /// out[i] = Cdf(us[i]) bit-identically. The scalar saturation branches are
  /// rewritten as selects so the loop is branch-free and SIMD-annotated;
  /// table lookups clamp their indices and use the exact interpolation
  /// arithmetic of UniformGridInterpolator::EvaluateOn.
  void CdfMany(std::span<const double> us, std::span<double> out) const;

  /// (K*K)(t) = ∫ K(u) K(t-u) du, supported on [-2R, 2R].
  double SelfConvolution(double t) const;

  /// Roughness ∫ K² = (K*K)(0).
  double Roughness() const { return SelfConvolution(0.0); }

  KernelType type() const { return type_; }
  std::string name() const;

 private:
  KernelType type_;
  double radius_;
  /// Null for Epanechnikov, whose CDF is evaluated in closed form.
  std::shared_ptr<const numerics::UniformGridInterpolator> cdf_table_;
  std::shared_ptr<const numerics::UniformGridInterpolator> conv_table_;
};

}  // namespace kernel
}  // namespace wde

#endif  // WDE_KERNEL_KERNELS_HPP_
