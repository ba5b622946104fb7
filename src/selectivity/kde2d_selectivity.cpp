#include "selectivity/kde2d_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "kernel/bandwidth.hpp"
#include "memory/fast_state.hpp"
#include "multidim/prod_kde2d.hpp"
#include "util/check.hpp"

namespace wde {
namespace selectivity {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Below this many observations the exact-fraction fallback answers (the
/// same threshold as the 1-D KDE's refit guard).
constexpr size_t kMinFitSample = 4;
/// Least-squares CV runs on at most this many evenly strided sorted points;
/// the result rescales to the full sample by (m/n)^{1/5}.
constexpr size_t kCvSubsampleCap = 512;

/// CV-refined bandwidth off an ascending-sorted coordinate array: LSCV over
/// an evenly strided subsample (deterministic indices (j·n)/m, ascending,
/// so the subsample is itself sorted), rescaled by the n^{-1/5} bandwidth
/// law. Falls back to `rot` when the CV answer degenerates.
double CvRefinedBandwidth(const kernel::Kernel& kernel,
                          std::span<const double> sorted, double rot) {
  const size_t n = sorted.size();
  const size_t m = std::min(n, kCvSubsampleCap);
  std::vector<double> sub(m);
  for (size_t j = 0; j < m; ++j) sub[j] = sorted[j * n / m];
  const double cv = kernel::LeastSquaresCvBandwidth(kernel, sub);
  if (!std::isfinite(cv) || !(cv > 0.0)) return rot;
  return cv * std::pow(static_cast<double>(m) / static_cast<double>(n), 0.2);
}

/// A bandwidth whose every scale h·λ, λ ∈ [1/4, 4], is positive and finite
/// with a finite inverse, so every CDF argument fl(fl(e − x)·fl(1/(h·λ)))
/// is a number (an infinite inverse would make 0·inf).
bool UsableBandwidth(double h) {
  return std::isfinite(h * multidim::kMaxLambda) &&
         h * multidim::kMinLambda > 0.0 &&
         std::isfinite(1.0 / (h * multidim::kMinLambda));
}

}  // namespace

Kde2dSelectivity::Kde2dSelectivity(const Options& options)
    : options_(options),
      kernel_(kernel::Kernel::Shared(kernel::KernelType::kEpanechnikov)) {
  WDE_CHECK_LT(options.domain_lo0, options.domain_hi0);
  WDE_CHECK_LT(options.domain_lo1, options.domain_hi1);
  WDE_CHECK_GT(options.refit_interval, 0u);
}

void Kde2dSelectivity::Insert(double x) {
  if (!have_pending_) {
    // First coordinate: buffer raw — even non-finite, or the interleave
    // parity would shift and pair later coordinates wrongly.
    pending_ = x;
    have_pending_ = true;
    return;
  }
  const double px = pending_;
  have_pending_ = false;
  if (!std::isfinite(px) || !std::isfinite(x)) return;  // drop the whole point
  xs_.push_back(std::clamp(px, options_.domain_lo0, options_.domain_hi0));
  ys_.push_back(std::clamp(x, options_.domain_lo1, options_.domain_hi1));
}

void Kde2dSelectivity::RefitIfStale() const {
  if (xs_.size() < kMinFitSample) return;
  if (fitted_at_count_ != 0 &&
      xs_.size() - fitted_at_count_ < options_.refit_interval) {
    return;
  }
  Refit();
}

void Kde2dSelectivity::ForceRefitImpl() const {
  if (xs_.size() < kMinFitSample) return;
  if (fitted_at_count_ == xs_.size()) return;
  Refit();
}

void Kde2dSelectivity::Refit() const {
  const bool incremental =
      options_.refit_mode == RefitMode::kIncremental && fitted_.has_value();
  // A failed fit (a degenerate sample) counts as an attempt too: the
  // exact-fraction fallback serves until refit_interval more observations
  // arrive, instead of every query re-sorting the sample to fail again.
  fitted_ = BuildFit(xs_.size(), incremental ? &*fitted_ : nullptr);
  fitted_at_count_ = xs_.size();
}

std::optional<Kde2dSelectivity::Fitted> Kde2dSelectivity::BuildFit(
    size_t fit_n, const Fitted* prev) const {
  const double lo0 = options_.domain_lo0, hi0 = options_.domain_hi0;
  const double lo1 = options_.domain_lo1, hi1 = options_.domain_hi1;
  // Every fit builds a NEW arena: the previous fitted columns may be shared
  // with CloneForView copies or borrowed zero-copy from a snapshot arena.
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n},
                                      {memory::ColumnKind::kF64, fit_n}};
  memory::Arena arena = memory::Arena::Create(specs);
  const std::span<double> px = arena.MutableF64(0);
  const std::span<double> py = arena.MutableF64(1);
  const std::span<double> lambdas = arena.MutableF64(2);
  // The previous fitted columns are the quadrant-major permutation of the
  // observation prefix [0, prev->n) (the buffers only ever append): copy
  // them, append the unfitted tail, sort only the tail, one stable merge.
  const size_t kept = prev != nullptr && prev->n <= fit_n ? prev->n : 0;
  if (kept > 0) {
    std::copy(prev->px().begin(), prev->px().end(), px.begin());
    std::copy(prev->py().begin(), prev->py().end(), py.begin());
  }
  std::copy(xs_.begin() + static_cast<ptrdiff_t>(kept),
            xs_.begin() + static_cast<ptrdiff_t>(fit_n),
            px.begin() + static_cast<ptrdiff_t>(kept));
  std::copy(ys_.begin() + static_cast<ptrdiff_t>(kept),
            ys_.begin() + static_cast<ptrdiff_t>(fit_n),
            py.begin() + static_cast<ptrdiff_t>(kept));
  multidim::SortPointsQuadrantMajor(px, py, lo0, hi0, lo1, hi1, kept);
  // Bandwidths from order statistics of each axis, selected in one reused
  // copy: the same values a sorted column holds, so both refit modes — and
  // the snapshot-restore re-fit — derive identical values. Only CV needs
  // the copy fully sorted.
  std::vector<double> axis(fit_n);
  const auto bandwidth = [&](std::span<const double> column) {
    std::copy(column.begin(), column.end(), axis.begin());
    const double rot = kernel::RuleOfThumbBandwidthSelect(axis);
    if (!options_.cv_bandwidths || fit_n < 16) return rot;
    std::sort(axis.begin(), axis.end());
    return CvRefinedBandwidth(kernel_, axis, rot);
  };
  const double hx = bandwidth(px);
  const double hy = bandwidth(py);
  if (!UsableBandwidth(hx) || !UsableBandwidth(hy)) {
    return std::nullopt;  // degenerate sample: the exact-fraction fallback
  }
  multidim::AdaptiveLambdas(px, py, lo0, hi0, lo1, hi1, options_.alpha,
                            multidim::kPilotLog2, lambdas);
  Fitted fit;
  fit.arena = std::move(arena);
  fit.col0 = 0;
  fit.n = fit_n;
  fit.hx = hx;
  fit.hy = hy;
  fit.tree = BuildTree(fit);
  return fit;
}

std::shared_ptr<const multidim::ProdKde2dTree> Kde2dSelectivity::BuildTree(
    const Fitted& fit) const {
  // The tree borrows the fitted columns; the storage handle keeps them
  // valid for as long as any copy of the tree lives.
  return std::make_shared<const multidim::ProdKde2dTree>(
      fit.px(), fit.py(), fit.lambdas(), fit.hx, fit.hy, options_.domain_lo0,
      options_.domain_hi0, options_.domain_lo1, options_.domain_hi1,
      fit.arena.storage_keepalive());
}

double Kde2dSelectivity::EstimateRectImpl(double lo0, double hi0, double lo1,
                                          double hi1) const {
  RefitIfStale();
  if (!fitted_.has_value()) {
    // Tiny-sample (or degenerate-sample) fallback: exact fraction of the
    // buffered observations inside the rectangle.
    if (xs_.empty()) return 0.0;
    size_t hits = 0;
    for (size_t i = 0; i < xs_.size(); ++i) {
      if (xs_[i] >= lo0 && xs_[i] <= hi0 && ys_[i] >= lo1 && ys_[i] <= hi1) {
        ++hits;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(xs_.size());
  }
  const double sum = fitted_->tree->RectSum(lo0, hi0, lo1, hi1);
  return std::clamp(sum / static_cast<double>(fitted_->n), 0.0, 1.0);
}

void Kde2dSelectivity::AnswerImpl(std::span<const Query> queries,
                                  std::span<double> out) const {
  // The public wrapper guarantees matched spans, a non-empty batch and
  // normalized queries.
  RefitIfStale();  // no inserts between queries: staleness is checked once
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.kind != QueryKind::kConditional || !fitted_.has_value()) {
      out[i] = AnswerOne(q);
      continue;
    }
    // AnswerMultiDim's lowering, both rectangle sums from one walk.
    const auto sums = fitted_->tree->ConditionalSums(q.a, q.b, q.c, q.d);
    const double n = static_cast<double>(fitted_->n);
    const double condition = std::clamp(sums.condition / n, 0.0, 1.0);
    const double joint = std::clamp(sums.joint / n, 0.0, 1.0);
    out[i] = condition > 0.0 ? std::clamp(joint / condition, 0.0, 1.0) : 0.0;
  }
}

double Kde2dSelectivity::EstimateRangeImpl(double a, double b) const {
  // The axis-0 marginal IS the range primitive of a 2-D estimator.
  return EstimateRectImpl(a, b, -kInf, kInf);
}

std::unique_ptr<SelectivityEstimator> Kde2dSelectivity::CloneEmpty() const {
  return std::make_unique<Kde2dSelectivity>(options_);
}

Status Kde2dSelectivity::CheckMergeOptions(const SelectivityEstimator& other,
                                           const char* what) const {
  WDE_RETURN_IF_ERROR(CheckMergePeer(other));
  const Options& rhs = static_cast<const Kde2dSelectivity&>(other).options_;
  // refit_interval/refit_mode pace only the owner's staleness; domains, α
  // and the CV flag shape answers and must match.
  if (options_.domain_lo0 != rhs.domain_lo0 ||
      options_.domain_hi0 != rhs.domain_hi0 ||
      options_.domain_lo1 != rhs.domain_lo1 ||
      options_.domain_hi1 != rhs.domain_hi1 || options_.alpha != rhs.alpha ||
      options_.cv_bandwidths != rhs.cv_bandwidths) {
    return Status::FailedPrecondition(std::string(what) +
                                      ": kde2d options mismatch");
  }
  return Status::OK();
}

Status Kde2dSelectivity::MergeFrom(const SelectivityEstimator& other) {
  WDE_RETURN_IF_ERROR(CheckMergeOptions(other, "MergeFrom"));
  const auto& rhs = static_cast<const Kde2dSelectivity&>(other);
  xs_.insert(xs_.end(), rhs.xs_.begin(), rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin(), rhs.ys_.end());
  fitted_.reset();  // refit from the merged buffers at the next query
  fitted_at_count_ = 0;
  return Status::OK();
}

Status Kde2dSelectivity::MergeTailFrom(const SelectivityEstimator& other,
                                       size_t from_count) {
  WDE_RETURN_IF_ERROR(CheckMergeOptions(other, "MergeTailFrom"));
  const auto& rhs = static_cast<const Kde2dSelectivity&>(other);
  if (from_count > rhs.xs_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail observations; the fitted state stays
  // (stale) so the next refit delta-merges instead of rebuilding.
  xs_.insert(xs_.end(), rhs.xs_.begin() + static_cast<ptrdiff_t>(from_count),
             rhs.xs_.end());
  ys_.insert(ys_.end(), rhs.ys_.begin() + static_cast<ptrdiff_t>(from_count),
             rhs.ys_.end());
  return Status::OK();
}

Status Kde2dSelectivity::SaveStateImpl(memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_lo0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_hi0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_lo1));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_hi1));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), options_.refit_interval));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.alpha));
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), options_.cv_bandwidths ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), fitted_at_count_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), xs_.size()));
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), have_pending_ ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), pending_));
  const bool has_fit = fitted_.has_value();
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), has_fit ? 1 : 0));
  writer.AddF64(xs_);
  writer.AddF64(ys_);
  if (has_fit) {
    // The fitted columns plus both bandwidths: restore adopts them verbatim
    // instead of re-sorting and re-deriving; the tree is rebuilt.
    WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), fitted_->hx));
    WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), fitted_->hy));
    writer.AddF64(fitted_->px());
    writer.AddF64(fitted_->py());
    writer.AddF64(fitted_->lambdas());
  }
  return Status::OK();
}

Status Kde2dSelectivity::LoadStateImpl(memory::FastStateReader& reader) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo0, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.domain_hi0, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.domain_lo1, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.domain_hi1, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.alpha, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t cv, io::ReadU8(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_values, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t have_pending, io::ReadU8(reader.head()));
  WDE_ASSIGN_OR_RETURN(const double pending, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t has_fit, io::ReadU8(reader.head()));
  double hx = 0.0;
  double hy = 0.0;
  if (has_fit == 1) {
    WDE_ASSIGN_OR_RETURN(hx, io::ReadDouble(reader.head()));
    WDE_ASSIGN_OR_RETURN(hy, io::ReadDouble(reader.head()));
  }
  std::vector<memory::ColumnSpec> expected = {
      {memory::ColumnKind::kF64, static_cast<size_t>(n_values)},
      {memory::ColumnKind::kF64, static_cast<size_t>(n_values)}};
  if (has_fit == 1) {
    for (int c = 0; c < 3; ++c) {
      expected.push_back(
          {memory::ColumnKind::kF64, static_cast<size_t>(fitted_at)});
    }
  }
  if (!std::isfinite(options.domain_lo0) || !std::isfinite(options.domain_hi0) ||
      !(options.domain_lo0 < options.domain_hi0) ||
      !std::isfinite(options.domain_lo1) || !std::isfinite(options.domain_hi1) ||
      !(options.domain_lo1 < options.domain_hi1) ||
      options.refit_interval == 0 || !std::isfinite(options.alpha) ||
      options.alpha < 0.0 || options.alpha > 1.0 || cv > 1 ||
      have_pending > 1 || has_fit > 1 || fitted_at > n_values ||
      ((has_fit == 1 || fitted_at != 0) && fitted_at < kMinFitSample) ||
      (has_fit == 1 && !(UsableBandwidth(hx) && UsableBandwidth(hy))) ||
      reader.head().remaining() != 0 ||
      !memory::ColumnsMatch(reader.arena(), expected)) {
    return Status::InvalidArgument("corrupt kde2d state");
  }
  if (has_fit == 1) {
    // The tree and the delta merge need px/py finite and in order, and λ
    // outside [1/4, 4] would stretch a cell's reach past the domain or to
    // ±inf: hostile columns are rejected, not served.
    const std::span<const double> px = reader.arena().F64(2);
    const std::span<const double> py = reader.arena().F64(3);
    const std::span<const double> lambdas = reader.arena().F64(4);
    if (!multidim::IsQuadrantMajor(px, py, options.domain_lo0,
                                   options.domain_hi0, options.domain_lo1,
                                   options.domain_hi1) ||
        !std::all_of(lambdas.begin(), lambdas.end(), [](double l) {
          return l >= multidim::kMinLambda && l <= multidim::kMaxLambda;
        })) {
      return Status::InvalidArgument("corrupt kde2d fitted columns");
    }
  }
  const std::span<const double> xs = reader.arena().F64(0);
  const std::span<const double> ys = reader.arena().F64(1);
  // Insert drops non-finite observations and clamps the rest into the
  // domain, so any other raw coordinate is hostile: a NaN one would reach a
  // refit's sort and break its strict weak ordering.
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!(xs[i] >= options.domain_lo0 && xs[i] <= options.domain_hi0 &&
          ys[i] >= options.domain_lo1 && ys[i] <= options.domain_hi1)) {
      return Status::InvalidArgument("corrupt kde2d coordinates");
    }
  }
  options.cv_bandwidths = cv != 0;
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  options_ = options;
  xs_.assign(xs.begin(), xs.end());
  ys_.assign(ys.begin(), ys.end());
  have_pending_ = have_pending != 0;
  pending_ = pending;
  fitted_.reset();
  if (has_fit == 1) {
    // Adopt the fitted columns in place (columns 2..4 of the parsed arena) —
    // borrowed zero-copy from an mmapped image; refits build new arenas, so
    // the mapping is never written through.
    Fitted fit;
    fit.arena = std::move(reader.arena());
    fit.col0 = 2;
    fit.n = static_cast<size_t>(fitted_at);
    fit.hx = hx;
    fit.hy = hy;
    fit.tree = BuildTree(fit);
    fitted_ = std::move(fit);
  }
  fitted_at_count_ = static_cast<size_t>(fitted_at);
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
