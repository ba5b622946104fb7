#include "selectivity/kde_selectivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "kernel/bandwidth.hpp"
#include "memory/fast_state.hpp"
#include "numerics/optimize.hpp"

namespace wde {
namespace selectivity {

void KdeSelectivity::Insert(double x) {
  if (!std::isfinite(x)) return;
  values_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
}

void KdeSelectivity::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  // No exact-fit reserve: amortized vector growth beats a
  // reallocate-per-chunk pattern under repeated batch ingestion.
  for (double x : xs) {
    if (!std::isfinite(x)) continue;
    values_.push_back(std::clamp(x, options_.domain_lo, options_.domain_hi));
  }
}

void KdeSelectivity::RefitIfStale() const {
  if (values_.size() < 4) return;
  if (kde_.has_value() && values_.size() - fitted_at_count_ < options_.refit_interval) {
    return;
  }
  Refit();
}

void KdeSelectivity::ForceRefitImpl() const {
  if (values_.size() < 4) return;
  if (kde_.has_value() && fitted_at_count_ == values_.size()) return;
  Refit();
}

void KdeSelectivity::Refit() const {
  // Every refit builds a NEW owned buffer: the previous fitted buffer may be
  // shared with CloneForView copies (published serving views) or borrowed
  // zero-copy from a snapshot arena, so it must never be mutated in place.
  auto buffer = std::make_shared<std::vector<double>>();
  buffer->reserve(values_.size());
  const bool incremental = options_.refit_mode == RefitMode::kIncremental &&
                           kde_.has_value() &&
                           kde_->samples().size() == fitted_at_count_ &&
                           fitted_at_count_ <= values_.size();
  if (incremental) {
    // The previous fitted buffer is the sorted permutation of
    // values_[0..fitted_at_count_) (the buffer only ever appends): copy it,
    // append the unfitted tail, sort only the tail, one stable merge.
    // O(Δ log Δ + n) instead of O(n log n), identical sorted sequence.
    const std::span<const double> prev = kde_->samples();
    buffer->assign(prev.begin(), prev.end());
    buffer->insert(buffer->end(), values_.begin() + prev.size(), values_.end());
    const auto mid = buffer->begin() + static_cast<ptrdiff_t>(prev.size());
    std::sort(mid, buffer->end());
    std::inplace_merge(buffer->begin(), mid, buffer->end());
  } else {
    buffer->assign(values_.begin(), values_.end());
    std::sort(buffer->begin(), buffer->end());
  }
  // Bandwidth from sorted order statistics: O(1) quartiles off the buffer
  // both modes just built, and bitwise-reproducible from the sorted multiset
  // alone (insertion order never enters). A sample with no spread has no
  // rule-of-thumb bandwidth; it is smoothed at the declared resolution.
  double bandwidth = kernel::RuleOfThumbBandwidthSorted(*buffer);
  if (!(bandwidth > 0.0)) bandwidth = EqualityWidth();
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::FromSorted(
          kernel::Kernel::Shared(kernel::KernelType::kEpanechnikov), bandwidth,
          std::span<const double>(buffer->data(), buffer->size()), buffer);
  if (kde.ok()) {
    kde_ = std::move(kde).value();
    fitted_at_count_ = values_.size();
  }
}

double KdeSelectivity::EstimateRangeImpl(double a, double b) const {
  RefitIfStale();
  if (!kde_.has_value()) {
    // Tiny-sample fallback: exact fraction of buffered values.
    if (values_.empty()) return 0.0;
    size_t hits = 0;
    for (double x : values_) {
      if (x >= a && x <= b) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(values_.size());
  }
  if (a == -std::numeric_limits<double>::infinity()) {
    // The Less/Cdf lowering: one kernel-CDF endpoint (see CdfAt for its
    // O(log n + B) cost and error bound).
    return std::clamp(kde_->CdfAt(b), 0.0, 1.0);
  }
  // CDF difference instead of the O(n) per-sample IntegrateRange sum: each
  // endpoint costs O(log n + B) through the moment tree, within CdfAt's
  // documented bound of the exact sum, and the batch path below uses the
  // identical expression.
  return std::clamp(kde_->CdfAt(b) - kde_->CdfAt(a), 0.0, 1.0);
}

double KdeSelectivity::QuantileByNewton(double p) const {
  // clamp(F̂(x), 0, 1) < 0 never holds, so the crossing is the lower edge:
  // the bracket [domain_lo, domain_lo] needs no evaluation.
  if (p == 0.0) return options_.domain_lo;
  // F_n(x − h) ≤ F̂(x) ≤ F_n(x + h) for the Epanechnikov kernel, so the
  // p-quantile lies within h of the order statistic X_(⌈np⌉).
  const std::span<const double> sorted = kde_->samples();
  const size_t n = sorted.size();
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t k = std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
  return numerics::NewtonBisectMonotone(
      [this](double x) {
        const kernel::KernelDensityEstimator::CdfAndDensity f =
            kde_->CdfAndDensityAt(x);
        return numerics::ValueAndSlope{std::clamp(f.cdf, 0.0, 1.0), f.density};
      },
      p, options_.domain_lo, options_.domain_hi, sorted[k - 1]);
}

std::unique_ptr<SelectivityEstimator> KdeSelectivity::CloneEmpty() const {
  return std::make_unique<KdeSelectivity>(options_);
}

Status KdeSelectivity::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const KdeSelectivity&>(other);
  // refit_interval paces only the owner's staleness and is deliberately not
  // checked (same rationale as the wavelet sketch's MergeFrom).
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi) {
    return Status::FailedPrecondition("MergeFrom: kde options mismatch");
  }
  values_.insert(values_.end(), rhs.values_.begin(), rhs.values_.end());
  kde_.reset();  // refit from the merged buffer at the next query
  fitted_at_count_ = 0;
  return Status::OK();
}

Status KdeSelectivity::MergeTailFrom(const SelectivityEstimator& other,
                                     size_t from_count) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const KdeSelectivity&>(other);
  if (options_.domain_lo != rhs.options_.domain_lo ||
      options_.domain_hi != rhs.options_.domain_hi) {
    return Status::FailedPrecondition("MergeTailFrom: kde options mismatch");
  }
  if (from_count > rhs.values_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail; the fitted KDE stays (stale) so the next
  // refit delta-merges instead of rebuilding.
  values_.insert(values_.end(), rhs.values_.begin() + static_cast<ptrdiff_t>(from_count),
                 rhs.values_.end());
  return Status::OK();
}

Status KdeSelectivity::SaveStateImpl(memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_lo));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), options_.domain_hi));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), options_.refit_interval));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), fitted_at_count_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), values_.size()));
  const bool has_kde = kde_.has_value();
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), has_kde ? 1 : 0));
  writer.AddF64(values_);
  if (has_kde) {
    // The already-sorted fitted buffer plus its bandwidth: restore adopts
    // both verbatim instead of re-sorting and re-deriving.
    WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), kde_->bandwidth()));
    writer.AddF64(kde_->samples());
  }
  return Status::OK();
}

Status KdeSelectivity::LoadStateImpl(memory::FastStateReader& reader) {
  Options options;
  WDE_ASSIGN_OR_RETURN(options.domain_lo, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.domain_hi, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(options.refit_interval, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t fitted_at, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_values, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t has_kde, io::ReadU8(reader.head()));
  double bandwidth = 0.0;
  if (has_kde == 1) {
    WDE_ASSIGN_OR_RETURN(bandwidth, io::ReadDouble(reader.head()));
  }
  std::vector<memory::ColumnSpec> expected = {
      {memory::ColumnKind::kF64, static_cast<size_t>(n_values)}};
  if (has_kde == 1) {
    expected.push_back({memory::ColumnKind::kF64, static_cast<size_t>(fitted_at)});
  }
  if (!std::isfinite(options.domain_lo) || !std::isfinite(options.domain_hi) ||
      !(options.domain_lo < options.domain_hi) || options.refit_interval == 0 ||
      has_kde > 1 || fitted_at > n_values ||
      (has_kde == 1 && !(std::isfinite(bandwidth) && bandwidth > 0.0)) ||
      reader.head().remaining() != 0 ||
      !memory::ColumnsMatch(reader.arena(), expected)) {
    return Status::InvalidArgument("corrupt kde state");
  }
  // Insert clamps every value into the domain, so a value outside it (NaN
  // included) can only come from hostile bytes.
  const std::span<const double> values = reader.arena().F64(0);
  const auto in_domain = [&](double x) {
    return x >= options.domain_lo && x <= options.domain_hi;
  };
  if (!std::all_of(values.begin(), values.end(), in_domain)) {
    return Status::InvalidArgument("corrupt kde state: value outside the domain");
  }
  std::optional<kernel::KernelDensityEstimator> kde;
  if (has_kde == 1) {
    // FromSorted verifies finite, ascending samples in O(n), rebuilds the
    // moment tree and borrows the column zero-copy; the arena's storage
    // keepalive anchors the bytes whether they live in an mmapped image or
    // in the reader's own heap copy. Ascending, the samples lie in the
    // domain iff both ends do.
    WDE_ASSIGN_OR_RETURN(
        kde, kernel::KernelDensityEstimator::FromSorted(
                 kernel::Kernel::Shared(kernel::KernelType::kEpanechnikov), bandwidth,
                 reader.arena().F64(1), reader.arena().storage_keepalive()));
    if (!in_domain(kde->samples().front()) || !in_domain(kde->samples().back())) {
      return Status::InvalidArgument(
          "corrupt kde state: fitted sample outside the domain");
    }
  }
  options.refit_mode = options_.refit_mode;  // pacing knob, never serialized
  options_ = options;
  values_.assign(values.begin(), values.end());
  kde_ = std::move(kde);
  fitted_at_count_ = kde_.has_value() ? static_cast<size_t>(fitted_at) : 0;
  return Status::OK();
}

void KdeSelectivity::AnswerImpl(std::span<const Query> queries,
                               std::span<double> out) const {
  // The public wrapper guarantees matched spans, a non-empty batch and
  // normalized queries.
  RefitIfStale();  // no inserts between queries: staleness is checked once
  if (!kde_.has_value()) {
    // Tiny-sample fallback, matching the scalar lowering per query.
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        out[i] = std::clamp(kde_->CdfAt(q.a), 0.0, 1.0);
        break;
      case QueryKind::kQuantile:
        out[i] = QuantileByNewton(q.a);
        break;
      case QueryKind::kRect:
      case QueryKind::kMarginal:
      case QueryKind::kConditional:
        // No range lowering exists for these; the shared multi-dim dispatch
        // (0.0 / axis-0 marginal for this 1-D estimator) is the contract.
        out[i] = AnswerOne(q);
        break;
      default: {
        const RangeQuery r = LowerToRange(q);
        out[i] = std::clamp(kde_->CdfAt(r.hi) - kde_->CdfAt(r.lo), 0.0, 1.0);
        break;
      }
    }
  }
}

}  // namespace selectivity
}  // namespace wde
