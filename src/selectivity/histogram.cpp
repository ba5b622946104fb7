#include "selectivity/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "memory/fast_state.hpp"
#include "numerics/simd.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

EquiWidthHistogram::EquiWidthHistogram(double lo, double hi, int buckets) : lo_(lo) {
  WDE_CHECK_LT(lo, hi);
  WDE_CHECK_GT(buckets, 0);
  width_ = (hi - lo) / static_cast<double>(buckets);
  buckets_ = static_cast<size_t>(buckets);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, buckets_},
                                      {memory::ColumnKind::kF64, buckets_}};
  bins_ = memory::Arena::Create(specs);
}

RangeQuery EquiWidthHistogram::Domain() const {
  return RangeQuery{lo_, lo_ + width_ * static_cast<double>(buckets_)};
}

void EquiWidthHistogram::Insert(double x) {
  if (!std::isfinite(x)) return;
  const double hi = lo_ + width_ * static_cast<double>(buckets_);
  x = std::clamp(x, lo_, hi);
  auto bucket = static_cast<long>((x - lo_) / width_);
  bucket = std::clamp(bucket, 0L, static_cast<long>(buckets_) - 1);
  bins_.MutableF64(0)[static_cast<size_t>(bucket)] += 1.0;
  ++count_;
}

void EquiWidthHistogram::RebuildPrefixIfStale() const {
  if (prefix_valid_ && prefix_built_at_count_ == count_) return;
  // Un-share first (MutableF64 may relocate the arena), then read the counts
  // span from the post-relocation storage.
  std::span<double> prefix = bins_.MutableF64(1);
  std::span<const double> counts = bins_.F64(0);
  // Blocked scan: bucket counts are integer-valued doubles (exact up to
  // 2^53), so the blocked association is bit-identical to the sequential
  // chain while breaking its per-element latency dependency.
  numerics::PrefixSumExclusiveBlocked(counts, prefix);
  prefix_valid_ = true;
  prefix_built_at_count_ = count_;
}

numerics::ValueAndSlope EquiWidthHistogram::CdfAndDensityAt(double x) const {
  const double hi = lo_ + width_ * static_cast<double>(buckets_);
  x = std::clamp(x, lo_, hi);
  const double t = (x - lo_) / width_;
  const auto bucket = static_cast<size_t>(
      std::clamp(static_cast<long>(t), 0L, static_cast<long>(buckets_) - 1));
  const double frac = t - static_cast<double>(bucket);
  const double n = static_cast<double>(count_);
  const double mass = bins_.F64(0)[bucket];
  return {(bins_.F64(1)[bucket] + mass * frac) / n, mass / (n * width_)};
}

double EquiWidthHistogram::CdfAt(double x) const {
  return CdfAndDensityAt(x).value;
}

double EquiWidthHistogram::QuantileByNewton(double p) const {
  // Start at the prefix-table inversion: the first bucket whose inclusive
  // mass reaches p·n, interpolated inside it. F̃ is linear there, so Newton
  // lands on the crossing at once and the solver only closes the bracket.
  const std::span<const double> prefix = bins_.F64(1);
  const std::span<const double> counts = bins_.F64(0);
  const double mass = p * static_cast<double>(count_);
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(prefix.begin() + 1, prefix.end(), mass) -
      prefix.begin() - 1);
  const double frac =
      counts[bucket] > 0.0
          ? std::clamp((mass - prefix[bucket]) / counts[bucket], 0.0, 1.0)
          : 0.0;
  const RangeQuery domain = Domain();
  return numerics::NewtonBisectMonotone(
      [this](double x) { return CdfAndDensityAt(x); }, p, domain.lo,
      domain.hi, lo_ + width_ * (static_cast<double>(bucket) + frac));
}

double EquiWidthHistogram::EstimateRangeImpl(double a, double b) const {
  if (count_ == 0) return 0.0;
  RebuildPrefixIfStale();
  return CdfAt(b) - CdfAt(a);
}

void EquiWidthHistogram::AnswerImpl(std::span<const Query> queries,
                                    std::span<double> out) const {
  if (count_ == 0) {
    // Empty histogram: every mass kind answers 0.0 through the lowering and
    // quantiles answer 0.0 by the interface rule; the canonical loop does
    // both without touching the prefix table.
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  RebuildPrefixIfStale();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        // One prefix lookup. Bit-identical to the lowering
        // CdfAt(x) - CdfAt(-inf): the -inf endpoint clamps to the lower
        // domain edge where the prefix mass and fraction are exactly zero.
        out[i] = CdfAt(q.a);
        break;
      case QueryKind::kQuantile:
        out[i] = QuantileByNewton(q.a);
        break;
      default:
        out[i] = AnswerOne(q);
        break;
    }
  }
}

std::string EquiWidthHistogram::name() const {
  return Format("equi-width(%d)", buckets());
}

std::unique_ptr<SelectivityEstimator> EquiWidthHistogram::CloneEmpty() const {
  // Copy-then-reset keeps lo_/width_ bitwise identical to this instance
  // (re-deriving hi from lo + width * buckets could round differently and
  // make the clone spuriously merge-incompatible).
  auto clone = std::make_unique<EquiWidthHistogram>(*this);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, buckets_},
                                      {memory::ColumnKind::kF64, buckets_}};
  clone->bins_ = memory::Arena::Create(specs);
  clone->count_ = 0;
  clone->prefix_valid_ = false;
  clone->prefix_built_at_count_ = 0;
  return clone;
}

Status EquiWidthHistogram::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiWidthHistogram&>(other);
  if (lo_ != rhs.lo_ || width_ != rhs.width_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  // Bulk element-wise fold over the contiguous, 64-byte-aligned count
  // columns; un-share before taking the raw pointers.
  double* dst = bins_.MutableF64(0).data();
  const double* src = rhs.bins_.F64(0).data();
  const size_t n = buckets_;
  WDE_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
  count_ += rhs.count_;
  prefix_valid_ = false;  // stale; rebuilt at the next query
  prefix_built_at_count_ = 0;
  return Status::OK();
}

Status EquiWidthHistogram::SaveStateImpl(memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), width_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), count_));
  // Only the counts travel: the prefix table is a pure function of them,
  // rebuilt bit-identically by one O(buckets) pass at the first query.
  writer.AddF64(bins_.F64(0));
  return Status::OK();
}

Status EquiWidthHistogram::LoadStateImpl(memory::FastStateReader& reader) {
  WDE_ASSIGN_OR_RETURN(const double lo, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const double width, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t count, io::ReadU64(reader.head()));
  const memory::Arena& arena = reader.arena();
  if (!std::isfinite(lo) || !std::isfinite(width) || !(width > 0.0) ||
      arena.num_columns() != 1 ||
      arena.column(0).kind != memory::ColumnKind::kF64 ||
      arena.column(0).count == 0 || arena.column(0).count > (1u << 26) ||
      reader.head().remaining() != 0) {
    return Status::InvalidArgument("corrupt equi-width state");
  }
  const std::span<const double> counts = arena.F64(0);
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, counts.size()},
                                      {memory::ColumnKind::kF64, counts.size()}};
  memory::Arena bins = memory::Arena::Create(specs);
  std::copy(counts.begin(), counts.end(), bins.MutableF64(0).begin());
  lo_ = lo;
  width_ = width;
  buckets_ = counts.size();
  count_ = static_cast<size_t>(count);
  bins_ = std::move(bins);
  prefix_valid_ = false;
  prefix_built_at_count_ = 0;
  return Status::OK();
}

EquiDepthHistogram::EquiDepthHistogram(double lo, double hi, int buckets,
                                       RefitMode refit_mode)
    : lo_(lo), hi_(hi), buckets_(buckets), refit_mode_(refit_mode) {
  WDE_CHECK_LT(lo, hi);
  WDE_CHECK_GT(buckets, 0);
}

void EquiDepthHistogram::Insert(double x) {
  if (!std::isfinite(x)) return;
  values_.push_back(std::clamp(x, lo_, hi_));
}

void EquiDepthHistogram::RebuildIfStale() const {
  if (!boundaries_.empty() && built_at_count_ == values_.size()) return;
  if (refit_mode_ == RefitMode::kIncremental) {
    // Extend the sorted shadow by the appended delta only: sort the tail,
    // one stable merge — O(Δ log Δ + n) against the scratch path's full
    // O(n log n) sort, identical sorted sequence.
    const size_t prev = sorted_.size();
    sorted_.insert(sorted_.end(), values_.begin() + static_cast<ptrdiff_t>(prev),
                   values_.end());
    const auto mid = sorted_.begin() + static_cast<ptrdiff_t>(prev);
    std::sort(mid, sorted_.end());
    std::inplace_merge(sorted_.begin(), mid, sorted_.end());
    BuildBoundariesFromSorted(sorted_);
  } else {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    BuildBoundariesFromSorted(sorted);
  }
}

void EquiDepthHistogram::BuildBoundariesFromSorted(
    std::span<const double> sorted) const {
  boundaries_.assign(static_cast<size_t>(buckets_) + 1, lo_);
  if (sorted.empty()) {
    boundaries_.back() = hi_;
    built_at_count_ = 0;
    return;
  }
  boundaries_.front() = lo_;
  boundaries_.back() = hi_;
  for (int b = 1; b < buckets_; ++b) {
    const double pos = static_cast<double>(b) / static_cast<double>(buckets_) *
                       static_cast<double>(sorted.size() - 1);
    const auto idx = static_cast<size_t>(pos);
    const double frac = pos - std::floor(pos);
    const double value = sorted[idx] * (1.0 - frac) +
                         sorted[std::min(idx + 1, sorted.size() - 1)] * frac;
    boundaries_[static_cast<size_t>(b)] = value;
  }
  // Boundaries must be non-decreasing even for highly skewed data.
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    boundaries_[i] = std::max(boundaries_[i], boundaries_[i - 1]);
  }
  built_at_count_ = values_.size();
}

double EquiDepthHistogram::CdfAt(double x) const {
  if (x <= boundaries_.front()) return 0.0;
  if (x >= boundaries_.back()) return 1.0;
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  const size_t bucket = static_cast<size_t>(it - boundaries_.begin()) - 1;
  const double bucket_lo = boundaries_[bucket];
  const double bucket_hi = boundaries_[bucket + 1];
  const double mass_per_bucket = 1.0 / static_cast<double>(buckets_);
  const double within =
      bucket_hi > bucket_lo ? (x - bucket_lo) / (bucket_hi - bucket_lo) : 1.0;
  return mass_per_bucket * (static_cast<double>(bucket) + within);
}

double EquiDepthHistogram::EstimateRangeImpl(double a, double b) const {
  if (values_.empty()) return 0.0;
  RebuildIfStale();
  return CdfAt(b) - CdfAt(a);
}

void EquiDepthHistogram::AnswerImpl(std::span<const Query> queries,
                                    std::span<double> out) const {
  if (values_.empty()) {
    for (size_t i = 0; i < queries.size(); ++i) out[i] = AnswerOne(queries[i]);
    return;
  }
  RebuildIfStale();
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    switch (q.kind) {
      case QueryKind::kLess:
      case QueryKind::kCdf:
        // One CdfAt. Bit-identical to CdfAt(x) - CdfAt(-inf): the -inf
        // endpoint falls below the first boundary, where CdfAt is exactly 0.
        out[i] = CdfAt(q.a);
        break;
      default:
        out[i] = AnswerOne(q);
        break;
    }
  }
}

std::string EquiDepthHistogram::name() const {
  return Format("equi-depth(%d)", buckets_);
}

std::unique_ptr<SelectivityEstimator> EquiDepthHistogram::CloneEmpty() const {
  return std::make_unique<EquiDepthHistogram>(lo_, hi_, buckets_, refit_mode_);
}

Status EquiDepthHistogram::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiDepthHistogram&>(other);
  if (lo_ != rhs.lo_ || hi_ != rhs.hi_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  // The sorted shadow survives: it mirrors the immutable prefix
  // values_[0..sorted_.size()), which appends never disturb.
  values_.insert(values_.end(), rhs.values_.begin(), rhs.values_.end());
  boundaries_.clear();  // stale; rebuilt (sorted) at the next query
  built_at_count_ = 0;
  return Status::OK();
}

Status EquiDepthHistogram::MergeTailFrom(const SelectivityEstimator& other,
                                         size_t from_count) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const EquiDepthHistogram&>(other);
  if (lo_ != rhs.lo_ || hi_ != rhs.hi_ || buckets_ != rhs.buckets_) {
    return Status::FailedPrecondition("MergeTailFrom: " + name() +
                                      " domain/bucket mismatch with " +
                                      rhs.name());
  }
  if (from_count > rhs.values_.size()) {
    return Status::InvalidArgument("MergeTailFrom: from_count past peer count");
  }
  // Append only the peer's tail; the boundary cache goes stale through the
  // ordinary count check and the next rebuild delta-merges the delta.
  values_.insert(values_.end(),
                 rhs.values_.begin() + static_cast<ptrdiff_t>(from_count),
                 rhs.values_.end());
  return Status::OK();
}

Status EquiDepthHistogram::SaveStateImpl(memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), lo_));
  WDE_RETURN_IF_ERROR(io::WriteDouble(writer.head(), hi_));
  WDE_RETURN_IF_ERROR(io::WriteI32(writer.head(), buckets_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), values_.size()));
  const bool has_boundaries = !boundaries_.empty();
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), has_boundaries ? 1 : 0));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), built_at_count_));
  writer.AddF64(values_);
  // The derived boundary cache rides along when built: restore then skips
  // the O(n log n) quantile sort at its first query.
  if (has_boundaries) writer.AddF64(boundaries_);
  return Status::OK();
}

Status EquiDepthHistogram::LoadStateImpl(memory::FastStateReader& reader) {
  WDE_ASSIGN_OR_RETURN(const double lo, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const double hi, io::ReadDouble(reader.head()));
  WDE_ASSIGN_OR_RETURN(const int32_t buckets, io::ReadI32(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t n_values, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint8_t has_boundaries, io::ReadU8(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t built_at, io::ReadU64(reader.head()));
  if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi) || buckets <= 0 ||
      buckets > (1 << 26) || has_boundaries > 1 || built_at > n_values ||
      reader.head().remaining() != 0) {
    return Status::InvalidArgument("corrupt equi-depth state");
  }
  std::vector<memory::ColumnSpec> expected = {
      {memory::ColumnKind::kF64, static_cast<size_t>(n_values)}};
  if (has_boundaries != 0) {
    expected.push_back({memory::ColumnKind::kF64,
                        static_cast<size_t>(buckets) + 1});
  }
  if (!memory::ColumnsMatch(reader.arena(), expected)) {
    return Status::InvalidArgument("corrupt equi-depth state columns");
  }
  std::vector<double> boundaries;
  if (has_boundaries != 0) {
    const std::span<const double> cached = reader.arena().F64(1);
    // The boundary cache is consumed by binary search; a non-monotone or
    // non-finite hostile cache must be rejected, not served.
    for (size_t i = 0; i < cached.size(); ++i) {
      if (!std::isfinite(cached[i]) || (i > 0 && cached[i] < cached[i - 1])) {
        return Status::InvalidArgument("corrupt equi-depth boundary cache");
      }
    }
    boundaries.assign(cached.begin(), cached.end());
  }
  // Values are append-mutated by Insert, so they stay a vector: one bulk
  // copy out of the column, no element-wise decode.
  const std::span<const double> values = reader.arena().F64(0);
  lo_ = lo;
  hi_ = hi;
  buckets_ = buckets;
  values_.assign(values.begin(), values.end());
  sorted_.clear();  // rebuilt (one full sort) at the first stale rebuild
  boundaries_ = std::move(boundaries);
  built_at_count_ = static_cast<size_t>(built_at);
  return Status::OK();
}

}  // namespace selectivity
}  // namespace wde
