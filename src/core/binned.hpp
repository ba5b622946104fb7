#ifndef WDE_CORE_BINNED_HPP_
#define WDE_CORE_BINNED_HPP_

#include <span>
#include <vector>

#include "core/thresholding.hpp"
#include "util/result.hpp"
#include "wavelet/dwt.hpp"
#include "wavelet/filter.hpp"

namespace wde {
namespace core {

/// WaveLab-style fast batch fitting — the computational scheme the paper's
/// own simulations use ("the usual DWT algorithm ... on an equidistant
/// grid"): bin the data into 2^J cells, treat the scaled counts
/// s_k = 2^{J/2}·count_k/n as finest-level scaling coefficients, and run the
/// periodized Mallat pyramid down to j0. Costs O(n + 2^J·L) total versus
/// O(n·levels·L) for the exact streaming path, at the price of two
/// approximations: the O(2^{-J}) binning error and periodized (wrap-around)
/// boundary handling. Exact and binned coefficients agree away from the
/// boundary — asserted by tests.
///
/// The binned path carries no per-coefficient pair sums, so it supports
/// fixed threshold schedules (e.g. `TheoreticalSchedule`) but not the
/// HTCV/STCV criteria; use `WaveletDensityFit` for cross-validation.
///
/// The bin counts accumulate incrementally (`AddBatch`); the pyramid is
/// recomputed lazily from the raw counts when coefficients or grid estimates
/// are next read, so batched streaming appends cost O(batch) plus one
/// O(2^J·L) transform per read of a stale fit.
class BinnedWaveletFit {
 public:
  /// Bins `data` (values inside [lo, hi]; outside is an error) into 2^J
  /// cells and runs the pyramid. Requires j0 >= 0 and J > j0.
  static Result<BinnedWaveletFit> Fit(const wavelet::WaveletFilter& filter,
                                      std::span<const double> data, int j0,
                                      int finest_level, double lo = 0.0,
                                      double hi = 1.0);

  /// Bins additional observations into the existing grid. Fit(a ++ b) and
  /// Fit(a) followed by AddBatch(b) produce bit-identical coefficients (bin
  /// counts are exact integer sums). Values outside [lo, hi] are an error
  /// and leave the fit unchanged. An empty span is an explicit no-op.
  Status AddBatch(std::span<const double> data);

  /// Folds another fit's bin counts into this one (cell-wise addition).
  /// Counts are exact integers, so merging fits over disjoint sub-streams is
  /// bit-identical to one fit of the concatenated stream — the strongest
  /// form of the mergeability contract. The cached pyramid is invalidated
  /// and lazily recomputed from the merged counts at the next read. Fails
  /// (leaving this fit untouched) when the filter, level range or domain
  /// differ.
  Status Merge(const BinnedWaveletFit& other);

  int j0() const { return j0_; }
  int finest_level() const { return finest_level_; }
  size_t count() const { return count_; }

  /// Approximate β̂_{j,k} for j0 <= j < finest_level and periodized
  /// k in [0, 2^j).
  double BetaHat(int j, int k) const;
  /// Approximate α̂_{j0,k} for periodized k in [0, 2^{j0}).
  double AlphaHat(int k) const;

  /// Thresholds the detail levels with `schedule` and reconstructs density
  /// values at the 2^J cell centers (on the original [lo, hi] scale).
  Result<std::vector<double>> EstimateOnGrid(const ThresholdSchedule& schedule,
                                             ThresholdKind kind) const;

  /// Cell centers matching `EstimateOnGrid`.
  std::vector<double> GridCenters() const;

 private:
  BinnedWaveletFit(wavelet::WaveletFilter filter, std::vector<double> counts,
                   int j0, int finest_level, double lo, double width, size_t count)
      : filter_(std::move(filter)),
        counts_(std::move(counts)),
        j0_(j0),
        finest_level_(finest_level),
        lo_(lo),
        width_(width),
        count_(count) {}

  /// Recomputes pyramid_ from counts_ if stale.
  void EnsurePyramid() const;

  wavelet::WaveletFilter filter_;
  std::vector<double> counts_;  // raw per-cell counts, exact integers
  int j0_;
  int finest_level_;
  double lo_;
  double width_;
  size_t count_;
  mutable wavelet::DwtCoefficients pyramid_;  // approximation = level j0
  mutable size_t pyramid_at_count_ = 0;
};

}  // namespace core
}  // namespace wde

#endif  // WDE_CORE_BINNED_HPP_
