/// \file kernel/kde.hpp
/// Entry header of the `kernel` module: the paper's comparison estimator
/// (§5.4, Figures 5–8) — classical KDE with the bandwidth selectors of
/// bandwidth.hpp ("kernel 1" rule-of-thumb, "kernel 2" LSCV). Invariants:
/// estimates are nonnegative and integrate to 1 over ℝ (unlike the signed
/// wavelet estimate); no boundary correction is applied, faithfully to the
/// paper; Create() rejects empty data and non-positive bandwidths.
#ifndef WDE_KERNEL_KDE_HPP_
#define WDE_KERNEL_KDE_HPP_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "kernel/kernels.hpp"
#include "memory/arena.hpp"
#include "util/result.hpp"

namespace wde {
namespace kernel {

/// Classical kernel density estimator f̂(x) = (nh)^{-1} Σ K((x - X_i)/h),
/// evaluated over a sorted copy of the data so that compactly supported
/// kernels cost O(log n + n·h) per density query. For the Epanechnikov
/// kernel a moment tree over the sorted samples answers the kernel CDF in
/// O(log n + B) (see CdfAt). This is the paper's baseline estimator (§5.4);
/// no boundary correction is applied, as in the paper.
class KernelDensityEstimator {
 public:
  /// Rejects empty data, NaN or ±inf samples and a bandwidth that is not
  /// positive and finite.
  static Result<KernelDensityEstimator> Create(Kernel kernel, double bandwidth,
                                               std::span<const double> data);

  /// Snapshot restore: adopts an already-sorted sample buffer without
  /// re-sorting. When `sorted` is 64-byte-aligned and `keepalive` anchors its
  /// backing storage (an mmapped snapshot image), the estimator borrows the
  /// bytes zero-copy; otherwise it copies them once. Finite, ascending
  /// samples are verified in O(n) — NaN, ±inf or out-of-order input yields
  /// a Status, never a silently wrong estimator. The Epanechnikov moment
  /// tree is rebuilt from the buffer in O(n), so the same sorted buffer
  /// always yields the same tree.
  static Result<KernelDensityEstimator> FromSorted(
      Kernel kernel, double bandwidth, std::span<const double> sorted,
      std::shared_ptr<const void> keepalive);

  double Evaluate(double x) const;

  /// out[i] = f̂(xs[i]). Each query runs the linear windowed pass with the
  /// kernel terms gathered into contiguous scratch and evaluated by the SIMD
  /// batch kernel — bit-identical to Evaluate(xs[i]).
  void EvaluateMany(std::span<const double> xs, std::span<double> out) const;

  /// Values on an inclusive uniform grid [lo, hi].
  std::vector<double> EvaluateOnGrid(double lo, double hi, size_t points) const;

  /// Estimated P(a <= X <= b) from the kernel CDF (used as a selectivity
  /// baseline).
  double IntegrateRange(double a, double b) const;

  /// The kernel CDF F̂(x) = n^{-1} Σ K_cdf((x - X_i)/h), the one-sided/CDF
  /// query path of the selectivity layer. Samples whose kernel argument
  /// saturates the CDF (u >= R → exactly 1, u <= -R → exactly 0) are counted
  /// or skipped, found by SaturationSplit in O(log n) with the predicate
  /// arithmetic of the Cdf branches. The window between them costs:
  ///   - Epanechnikov: O(log n + B) through the moment tree. The ≤ 2·B
  ///     samples of the two partial leaves are summed directly with the
  ///     exact cubic; every fully covered tree node adds Σ K_cdf(s − e_i) in
  ///     closed form from its moments. Not bit-identical to
  ///     IntegrateRange(-inf, x): with w window samples, L = ⌈n/B⌉ leaves and
  ///     machine epsilon ε, |CdfAt(x) − F̂(x)| ≤
  ///     ε·(2 + 16·(B + 64·⌈log₂ L⌉)·w/n) for any data offset and
  ///     bandwidth (docs/ARCHITECTURE.md derives this worst case).
  ///   - other kernels: O(log n + window), the window summed through the
  ///     SIMD batch CdfMany — bit-identical to IntegrateRange(-inf, x).
  double CdfAt(double x) const;

  /// F̂(x) and the density f̂(x) = F̂'(x) from one walk.
  struct CdfAndDensity {
    double cdf = 0.0;
    double density = 0.0;
  };

  /// `cdf` is bitwise CdfAt(x). For the Epanechnikov kernel the density
  /// comes from the same partition points and the same tree walk: each
  /// partial-leaf sample adds K(u) = ¾(1 − u²), each covering node the
  /// derivative of its cubic in s, c1 + 2c2·s + 3c3·s². It is the slope the
  /// kde-rot quantile solver steps along; it agrees with Evaluate(x) up to
  /// rounding, not bitwise. Other kernels return Evaluate(x).
  CdfAndDensity CdfAndDensityAt(double x) const;

  /// [ones_end, zeros_begin): the samples whose kernel CDF at x is neither
  /// saturated at 1 (before) nor at 0 (after). Bitwise the pair two
  /// std::partition_point searches with the Cdf branches' predicates
  /// ((x − X_i)/h >= R, then (x − X_i)/h > −R) would return, found without a
  /// division on the search path: a branch-free lower bound of x ∓ R·h over
  /// the leaf keys (every kLeafSize-th sample, 8n/B bytes), then one inside
  /// the chosen leaf, then a fix-up with the exact predicates that only
  /// samples within a proven rounding distance of x ∓ R·h can trigger
  /// (galloping, so a duplicate run costs O(log run)). NaN x yields {0, 0}.
  std::pair<size_t, size_t> SaturationSplit(double x) const;

  /// CdfAt(x) with the saturation split supplied: CdfAt(x) is bitwise
  /// CdfFromSplit(x, SaturationSplit(x)). Lets a bench or test time and pin
  /// the split search against a reference search; any other split gives a
  /// wrong answer.
  double CdfFromSplit(double x, std::pair<size_t, size_t> split) const;

  /// Samples per leaf of the Epanechnikov moment tree and of the split
  /// search's leaf keys.
  static constexpr size_t kLeafSize = 64;

  double bandwidth() const { return bandwidth_; }
  const Kernel& kernel() const { return kernel_; }
  size_t sample_size() const { return sorted_.size(); }
  std::span<const double> samples() const { return sorted_; }

 private:
  struct MomentTree;

  KernelDensityEstimator(Kernel kernel, double bandwidth, memory::Arena samples);

  /// The Epanechnikov CDF walk over the window of `split`, shared by CdfAt
  /// and CdfAndDensityAt; the density sum is skipped unless kWithDensity.
  template <bool kWithDensity>
  CdfAndDensity EpanechnikovWalk(double x, std::pair<size_t, size_t> split) const;

  Kernel kernel_;
  double bandwidth_;
  /// One F64 column holding the ascending samples. Never mutated after
  /// construction, so the cached view below stays valid across copies (which
  /// share the storage) and moves.
  memory::Arena samples_;
  std::span<const double> sorted_;
  /// Epanechnikov only (null otherwise): per-node moments of the sorted
  /// samples, derived from `sorted_` at construction and shared by copies.
  std::shared_ptr<const MomentTree> tree_;
  /// Every kernel: leaf_keys_[j] = sorted_[j·kLeafSize], the first sample
  /// of each leaf, derived at construction and shared by copies.
  std::shared_ptr<const std::vector<double>> leaf_keys_;
};

}  // namespace kernel
}  // namespace wde

#endif  // WDE_KERNEL_KDE_HPP_
