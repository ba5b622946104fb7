#include "selectivity/selectivity_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>

#include "io/chunk.hpp"
#include "memory/fast_state.hpp"
#include "numerics/optimize.hpp"
#include "selectivity/estimator_registry.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when the query may be handed to AnswerImpl as-is: no NaN in any used
/// parameter, ranges ordered, quantile levels inside [0, 1]. (NaN fails every
/// ordered comparison, so the kRange and kQuantile predicates subsume the
/// NaN checks for their parameters.)
bool IsNormalized(const Query& q) {
  switch (q.kind) {
    case QueryKind::kRange:
      return q.a <= q.b;
    case QueryKind::kQuantile:
      return q.a >= 0.0 && q.a <= 1.0;
    case QueryKind::kRect:
    case QueryKind::kConditional:
      // Both axis intervals ordered; NaN fails either comparison.
      return q.a <= q.b && q.c <= q.d;
    case QueryKind::kMarginal:
      return q.a <= q.b;
    default:
      return !std::isnan(q.a);
  }
}

/// True when the abnormal query is answered 0.0 at the interface (NaN in a
/// used parameter) rather than rewritten and dispatched.
bool AnswersZero(const Query& q) {
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kMarginal:
      return std::isnan(q.a) || std::isnan(q.b);
    case QueryKind::kRect:
    case QueryKind::kConditional:
      return std::isnan(q.a) || std::isnan(q.b) || std::isnan(q.c) ||
             std::isnan(q.d);
    default:
      return std::isnan(q.a);
  }
}

/// Rewrites the one abnormal non-NaN form per kind: inverted ranges swap
/// (independently per axis for the two-interval kinds), out-of-range quantile
/// levels clamp.
Query Normalize(const Query& q) {
  Query fixed = q;
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kMarginal:
      std::swap(fixed.a, fixed.b);
      break;
    case QueryKind::kQuantile:
      fixed.a = std::clamp(q.a, 0.0, 1.0);
      break;
    case QueryKind::kRect:
    case QueryKind::kConditional:
      // Each axis swaps only when inverted: Normalize() runs whenever EITHER
      // axis is abnormal, so the in-order axis must pass through untouched.
      if (q.a > q.b) std::swap(fixed.a, fixed.b);
      if (q.c > q.d) std::swap(fixed.c, fixed.d);
      break;
    default:
      break;
  }
  return fixed;
}

/// The 4-byte DIMS chunk payload: one little-endian u32 dimensionality.
Status WriteDimsChunk(io::Sink& sink, int dims) {
  io::VectorSink payload;
  WDE_RETURN_IF_ERROR(io::WriteU32(payload, static_cast<uint32_t>(dims)));
  return io::WriteChunk(sink, internal::kChunkEstimatorDims, payload.bytes());
}

/// One parsed estimator envelope: the type tag, the dimensionality (1 when
/// the DIMS chunk is absent) and the CRC-validated ARNA state payload,
/// anchored by `keepalive` for as long as the restored estimator may borrow
/// its columns.
struct Envelope {
  std::string tag;
  uint32_t dims = 1;
  std::span<const uint8_t> payload;
  std::shared_ptr<const void> keepalive;
};

Result<Envelope> ReadEnvelope(io::Source& source) {
  Envelope envelope;
  WDE_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> tag_bytes,
      io::ReadChunkExpecting(source, internal::kChunkEstimatorType));
  envelope.tag.assign(tag_bytes.begin(), tag_bytes.end());
  // Zero-copy read: for memory-backed sources (SpanSource over a blob, a
  // FileSource) the payload is a view into the source's buffer, anchored
  // below by source.backing(); only byte-stream sources pay a copy.
  WDE_ASSIGN_OR_RETURN(io::ChunkRef chunk, io::ReadChunkRef(source));
  if (chunk.tag == internal::kChunkEstimatorDims) {
    io::SpanSource dims_source(chunk.payload);
    WDE_ASSIGN_OR_RETURN(envelope.dims, io::ReadU32(dims_source));
    if (chunk.payload.size() != 4 || envelope.dims == 0 ||
        envelope.dims > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument("malformed estimator DIMS chunk");
    }
    WDE_ASSIGN_OR_RETURN(chunk, io::ReadChunkRef(source));
  }
  if (chunk.tag != internal::kChunkEstimatorArena) {
    return Status::InvalidArgument(
        "estimator envelope has an unknown state chunk");
  }
  envelope.payload = chunk.payload;
  if (!chunk.owned.empty()) {
    // A copied payload is promoted into a shared buffer the restored
    // estimator keeps alive. Moving the vector relocates the struct, not the
    // heap buffer, so the payload span keeps pointing at the promoted bytes.
    envelope.keepalive =
        std::make_shared<const std::vector<uint8_t>>(std::move(chunk.owned));
  } else {
    envelope.keepalive = source.backing();
  }
  return envelope;
}

}  // namespace

void SelectivityEstimator::Answer(std::span<const Query> queries,
                                  std::span<double> out) const {
  WDE_CHECK_EQ(queries.size(), out.size(), "Answer spans must match");
  if (queries.empty()) return;
  // One scan; maximal already-normalized runs go to AnswerImpl as sub-spans
  // of the caller's storage (no copy, however many queries need fixing), and
  // each abnormal query is either answered 0.0 here (NaN) or rewritten on
  // the stack and dispatched alone.
  size_t run_start = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (IsNormalized(q)) continue;
    if (i > run_start) {
      AnswerImpl(queries.subspan(run_start, i - run_start),
                 out.subspan(run_start, i - run_start));
    }
    run_start = i + 1;
    if (AnswersZero(q)) {
      out[i] = 0.0;
      continue;
    }
    const Query fixed = Normalize(q);
    AnswerImpl(std::span<const Query>(&fixed, 1), out.subspan(i, 1));
  }
  if (run_start < queries.size()) {
    AnswerImpl(queries.subspan(run_start), out.subspan(run_start));
  }
}

Status SelectivityEstimator::CheckMergePeer(
    const SelectivityEstimator& other) const {
  if (&other == this) {
    return Status::InvalidArgument("cannot merge an estimator into itself");
  }
  if (std::string_view(other.snapshot_type_tag()) != snapshot_type_tag()) {
    return Status::FailedPrecondition("MergeFrom: " + name() + " vs " +
                                      other.name());
  }
  return Status::OK();
}

RangeQuery SelectivityEstimator::LowerToRange(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kRange:
      return RangeQuery{query.a, query.b};
    case QueryKind::kPoint: {
      const double half = 0.5 * EqualityWidth();
      return RangeQuery{query.a - half, query.a + half};
    }
    case QueryKind::kLess:
    case QueryKind::kCdf:
      return RangeQuery{-kInf, query.a};
    case QueryKind::kGreater:
      return RangeQuery{query.a, kInf};
    case QueryKind::kQuantile:
    case QueryKind::kRect:
    case QueryKind::kMarginal:
    case QueryKind::kConditional:
      break;
  }
  WDE_CHECK(false, "query kind has no 1-D range lowering");
  return RangeQuery{};
}

double SelectivityEstimator::AnswerMultiDim(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kMarginal:
      if (query.axis >= dims()) return 0.0;
      // Axis 0 IS the range primitive — for every estimator, 1-D included —
      // so Marginal(0, a, b) and Range(a, b) are one code path, bitwise.
      if (query.axis == 0) return EstimateRangeImpl(query.a, query.b);
      return EstimateRectImpl(-kInf, kInf, query.a, query.b);
    case QueryKind::kRect:
      if (dims() < 2) return 0.0;
      return EstimateRectImpl(query.a, query.b, query.c, query.d);
    case QueryKind::kConditional: {
      if (dims() < 2) return 0.0;
      const double condition = EstimateRectImpl(-kInf, kInf, query.c, query.d);
      if (!(condition > 0.0)) return 0.0;
      const double joint =
          EstimateRectImpl(query.a, query.b, query.c, query.d);
      return std::clamp(joint / condition, 0.0, 1.0);
    }
    default:
      break;
  }
  WDE_CHECK(false, "AnswerMultiDim dispatched a 1-D query kind");
  return 0.0;
}

double SelectivityEstimator::AnswerOne(const Query& query) const {
  switch (query.kind) {
    case QueryKind::kQuantile:
      return QuantileByBisection(query.a);
    case QueryKind::kRect:
    case QueryKind::kMarginal:
    case QueryKind::kConditional:
      return AnswerMultiDim(query);
    default:
      break;
  }
  const RangeQuery range = LowerToRange(query);
  return EstimateRangeImpl(range.lo, range.hi);
}

double SelectivityEstimator::QuantileByBisection(double p) const {
  if (count() == 0) return 0.0;
  const RangeQuery domain = Domain();
  return numerics::BisectMonotone(
      [this](double x) { return EstimateRangeImpl(-kInf, x); }, p, domain.lo,
      domain.hi);
}

Status SelectivityEstimator::SaveState(io::Sink& sink,
                                       uint64_t base_offset) const {
  const std::string_view tag = snapshot_type_tag();
  WDE_RETURN_IF_ERROR(io::WriteChunk(
      sink, internal::kChunkEstimatorType,
      std::span(reinterpret_cast<const uint8_t*>(tag.data()), tag.size())));
  if (dims() != 1) WDE_RETURN_IF_ERROR(WriteDimsChunk(sink, dims()));
  memory::FastStateWriter writer;
  WDE_RETURN_IF_ERROR(SaveStateImpl(writer));
  // The ARNA payload starts after the TYPE chunk (16 bytes of framing + the
  // tag), the 20-byte DIMS chunk when present, and the ARNA chunk's own
  // 12-byte tag/size header; the writer pads its column region to a 64-byte
  // offset relative to that absolute position, so an mmapped artifact
  // presents the columns aligned.
  const uint64_t payload_offset = base_offset + 16 + tag.size() +
                                  (dims() != 1 ? 20 : 0) + 12;
  io::VectorSink frame;
  WDE_RETURN_IF_ERROR(writer.Finish(frame, payload_offset));
  return io::WriteChunk(sink, internal::kChunkEstimatorArena, frame.bytes());
}

Status SelectivityEstimator::LoadState(io::Source& source) {
  WDE_ASSIGN_OR_RETURN(Envelope envelope, ReadEnvelope(source));
  if (envelope.tag != snapshot_type_tag()) {
    return Status::FailedPrecondition("snapshot of type '" + envelope.tag +
                                      "' cannot restore into " + name());
  }
  if (envelope.dims != static_cast<uint32_t>(dims())) {
    return Status::FailedPrecondition(
        "snapshot dimensionality does not match " + name());
  }
  return LoadStatePayload(envelope.payload, std::move(envelope.keepalive));
}

Status SelectivityEstimator::LoadStatePayload(
    std::span<const uint8_t> payload, std::shared_ptr<const void> keepalive) {
  WDE_ASSIGN_OR_RETURN(memory::FastStateReader reader,
                       memory::FastStateReader::Parse(payload, std::move(keepalive)));
  // Payload validation — including full consumption of reader.head() — is
  // part of the LoadStateImpl contract and happens there BEFORE committing
  // (a wrapper-side check here would fire only after the implementation
  // already replaced the estimator's state).
  return LoadStateImpl(reader);
}

Result<std::unique_ptr<SelectivityEstimator>> LoadEstimatorEnvelope(
    io::Source& source) {
  WDE_ASSIGN_OR_RETURN(Envelope envelope, ReadEnvelope(source));
  const EstimatorRegistry& registry = EstimatorRegistry::Global();
  // The shell takes the envelope's dimensionality, so wrappers whose
  // dimensionality is their configuration's (the sharded engine) restore
  // multi-dimensional envelopes too.
  std::unique_ptr<SelectivityEstimator> shell =
      registry.MakeShell(envelope.tag, static_cast<int>(envelope.dims));
  if (shell == nullptr || shell->dims() != static_cast<int>(envelope.dims)) {
    if (!registry.Contains(envelope.tag)) {
      return Status::NotFound("no estimator registered for snapshot tag '" +
                              envelope.tag + "'");
    }
    return Status::FailedPrecondition(
        Format("snapshot tag '%s' has no %u-dimensional estimator",
               envelope.tag.c_str(), static_cast<unsigned>(envelope.dims)));
  }
  WDE_RETURN_IF_ERROR(
      shell->LoadStatePayload(envelope.payload, std::move(envelope.keepalive)));
  return shell;
}

}  // namespace selectivity
}  // namespace wde
