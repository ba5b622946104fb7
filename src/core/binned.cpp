#include "core/binned.hpp"

#include <algorithm>
#include <cmath>

#include "util/string_util.hpp"

namespace wde {
namespace core {

namespace {

/// Bins `data` into `counts` (cells spanning [lo, lo + width]); returns an
/// error without touching `counts` if any value falls outside.
Status BinInto(std::span<const double> data, double lo, double width,
               std::vector<double>* counts) {
  const size_t cells = counts->size();
  for (double x : data) {
    const double t = (x - lo) / width;
    if (t < 0.0 || t > 1.0) {
      return Status::OutOfRange(Format("observation %.6g outside [%.6g, %.6g]",
                                       x, lo, lo + width));
    }
  }
  for (double x : data) {
    const double t = (x - lo) / width;
    const size_t cell = std::min(cells - 1, static_cast<size_t>(t * cells));
    (*counts)[cell] += 1.0;
  }
  return Status::OK();
}

}  // namespace

Result<BinnedWaveletFit> BinnedWaveletFit::Fit(const wavelet::WaveletFilter& filter,
                                               std::span<const double> data, int j0,
                                               int finest_level, double lo,
                                               double hi) {
  if (data.empty()) return Status::InvalidArgument("no data to bin");
  if (j0 < 0 || finest_level <= j0 || finest_level > 24) {
    return Status::InvalidArgument(
        Format("invalid level range [%d, %d)", j0, finest_level));
  }
  if (!(lo < hi)) return Status::InvalidArgument("empty domain");

  const size_t cells = 1ULL << finest_level;
  const double width = hi - lo;
  std::vector<double> counts(cells, 0.0);
  Status binned = BinInto(data, lo, width, &counts);
  if (!binned.ok()) return binned;
  return BinnedWaveletFit(filter, std::move(counts), j0, finest_level, lo, width,
                          data.size());
}

Status BinnedWaveletFit::AddBatch(std::span<const double> data) {
  if (data.empty()) return Status::OK();
  Status binned = BinInto(data, lo_, width_, &counts_);
  if (!binned.ok()) return binned;
  count_ += data.size();
  return Status::OK();
}

Status BinnedWaveletFit::Merge(const BinnedWaveletFit& other) {
  if (&other == this) {
    return Status::InvalidArgument("cannot merge a fit into itself");
  }
  if (filter_.name() != other.filter_.name() || filter_.h() != other.filter_.h()) {
    return Status::FailedPrecondition(
        Format("wavelet filter mismatch: %s vs %s", filter_.name().c_str(),
               other.filter_.name().c_str()));
  }
  if (j0_ != other.j0_ || finest_level_ != other.finest_level_) {
    return Status::FailedPrecondition(
        Format("level range mismatch: [%d, %d) vs [%d, %d)", j0_, finest_level_,
               other.j0_, other.finest_level_));
  }
  if (lo_ != other.lo_ || width_ != other.width_) {
    return Status::FailedPrecondition("binning domain mismatch");
  }
  if (other.count_ == 0) return Status::OK();  // exact no-op
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  // The count change marks the cached pyramid stale; EnsurePyramid rebuilds
  // from the merged integer counts at the next coefficient read.
  return Status::OK();
}

void BinnedWaveletFit::EnsurePyramid() const {
  if (pyramid_at_count_ == count_) return;
  // Scaled counts s_k = 2^{J/2}·count_k/n are the finest-level scaling
  // coefficients; bin counts are exact integers, so recomputing from the raw
  // counts gives the same coefficients as a one-shot fit of the whole stream.
  const double scale = std::exp2(0.5 * static_cast<double>(finest_level_)) /
                       static_cast<double>(count_);
  std::vector<double> scaled(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) scaled[i] = counts_[i] * scale;
  Result<wavelet::DwtCoefficients> pyramid =
      wavelet::ForwardDwt(filter_, scaled, finest_level_ - j0_);
  WDE_CHECK_OK(pyramid.status());
  pyramid_ = std::move(pyramid).value();
  pyramid_at_count_ = count_;
}

double BinnedWaveletFit::BetaHat(int j, int k) const {
  WDE_CHECK(j >= j0_ && j < finest_level_, "detail level out of range");
  EnsurePyramid();
  // pyramid_.details[0] is the finest level (finest_level_ - 1).
  const size_t index = static_cast<size_t>(finest_level_ - 1 - j);
  const std::vector<double>& level = pyramid_.details[index];
  WDE_CHECK(k >= 0 && static_cast<size_t>(k) < level.size(),
            "translation out of range");
  return level[static_cast<size_t>(k)];
}

double BinnedWaveletFit::AlphaHat(int k) const {
  EnsurePyramid();
  WDE_CHECK(k >= 0 && static_cast<size_t>(k) < pyramid_.approximation.size(),
            "translation out of range");
  return pyramid_.approximation[static_cast<size_t>(k)];
}

Result<std::vector<double>> BinnedWaveletFit::EstimateOnGrid(
    const ThresholdSchedule& schedule, ThresholdKind kind) const {
  EnsurePyramid();
  wavelet::DwtCoefficients thresholded = pyramid_;
  for (size_t index = 0; index < thresholded.details.size(); ++index) {
    const int j = finest_level_ - 1 - static_cast<int>(index);
    const double lambda = schedule.LevelLambda(j);
    for (double& beta : thresholded.details[index]) {
      beta = ApplyThreshold(kind, beta, lambda);
    }
  }
  Result<std::vector<double>> reconstructed =
      wavelet::InverseDwt(filter_, thresholded);
  if (!reconstructed.ok()) return reconstructed.status();
  const double scale =
      std::exp2(0.5 * static_cast<double>(finest_level_)) / width_;
  for (double& v : *reconstructed) v *= scale;
  return reconstructed;
}

std::vector<double> BinnedWaveletFit::GridCenters() const {
  const size_t cells = 1ULL << finest_level_;
  std::vector<double> centers(cells);
  for (size_t i = 0; i < cells; ++i) {
    centers[i] =
        lo_ + width_ * (static_cast<double>(i) + 0.5) / static_cast<double>(cells);
  }
  return centers;
}

}  // namespace core
}  // namespace wde
