/// \file memory/fast_state.hpp
/// The snapshot state frame: one framed blob per estimator, restored by
/// header-validate + pointer-fixup instead of element-wise decode. It is
/// the only encoding of estimator state on the wire.
///
/// An estimator's state is (head, columns): the `head` carries the small
/// configuration fields through the ordinary io primitives, and each column
/// is a raw typed buffer serialized verbatim. The blob travels as the
/// payload of one `ARNA` chunk inside the standard WDESNAP1 envelope
/// (CRC-framed like every other chunk, so truncation and bit flips surface
/// as Status errors before any byte is interpreted):
///
///   u32 magic "ARN1" · u32 head_bytes · head ·
///   u32 column_count · (u8 kind · u64 count)* ·
///   u64 column_region_bytes · u32 pad_bytes · pad zeros ·
///   column region (the canonical Arena layout, columns 64-byte apart)
///
/// Column offsets are NOT on the wire: both sides derive them from the
/// (kind, count) sequence via ComputeColumnLayout, so a hostile directory
/// cannot describe overlapping or out-of-bounds columns. The writer knows
/// the absolute artifact offset its payload will land at and sizes
/// `pad_bytes` so the column region starts on a 64-byte file offset — an
/// mmap'ed snapshot (page-aligned base) then presents every column
/// 64-byte aligned in memory and the Arena borrows the mapping zero-copy.
/// When the image arrives misaligned (an in-memory buffer, a foreign
/// writer), Arena::FromImage falls back to one copy; correctness never
/// depends on alignment.
///
/// Endianness: like every io primitive, column elements are little-endian
/// on the wire. Little-endian hosts (all the common ones) write and borrow
/// them verbatim; big-endian hosts byte-swap f64/i64 elements inside
/// FastStateWriter::Finish and FastStateReader::Parse (the reader then
/// always copies), so one artifact restores on either.
#ifndef WDE_MEMORY_FAST_STATE_HPP_
#define WDE_MEMORY_FAST_STATE_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "io/serialize.hpp"
#include "memory/arena.hpp"
#include "util/result.hpp"

namespace wde {
namespace memory {

/// True when `arena`'s column directory is exactly `specs` — same column
/// count, kinds and element counts, in order. The first validation every
/// LoadStateImpl runs: the directory arrives from untrusted bytes, and
/// the typed accessors (Arena::F64 et al.) treat a kind mismatch as caller
/// error, so the shape must be proven before any column is touched.
bool ColumnsMatch(const Arena& arena, std::span<const ColumnSpec> specs);

/// Accumulates one estimator's state frame. Column spans must stay alive
/// until Finish(); use the Owned variants to pin temporaries.
class FastStateWriter {
 public:
  /// Destination for the configuration fields (io primitives).
  io::Sink& head() { return head_; }

  void AddF64(std::span<const double> values);
  void AddI64(std::span<const int64_t> values);
  void AddU8(std::span<const uint8_t> bytes);
  /// Adds a byte column whose storage the writer keeps alive itself (for
  /// buffers built on the fly, e.g. nested envelopes).
  void AddU8Owned(std::vector<uint8_t> bytes);

  /// Serializes the complete ARNA chunk *payload* into `sink`.
  /// `payload_offset` is the absolute artifact offset the payload's first
  /// byte will land at (chunk header already accounted for by the caller);
  /// the pad is sized so the column region starts at a 64-byte offset.
  Status Finish(io::Sink& sink, uint64_t payload_offset) const;

 private:
  struct PendingColumn {
    ColumnSpec spec;
    const uint8_t* data = nullptr;  // element bytes, spec.count * elem size
  };

  io::VectorSink head_;
  std::vector<PendingColumn> columns_;
  std::vector<std::vector<uint8_t>> pinned_;
};

/// Parses one ARNA chunk payload: validates the frame, re-derives the
/// column layout, and wraps the column region in an Arena (borrowed
/// zero-copy when `keepalive` anchors the bytes and they are aligned;
/// copied otherwise). Hostile input yields a non-OK Result, never UB.
class FastStateReader {
 public:
  static Result<FastStateReader> Parse(std::span<const uint8_t> payload,
                                       std::shared_ptr<const void> keepalive);

  /// The configuration fields, positioned at the start of the head.
  /// LoadStateImpl must consume it fully (head().remaining() == 0) as part
  /// of its validation. A copy of it peeks ahead without consuming.
  io::SpanSource& head() { return head_; }

  const Arena& arena() const { return arena_; }
  Arena& arena() { return arena_; }

  /// The handle anchoring the underlying image (null for unanchored
  /// buffers) — pass down when parsing nested envelopes out of a column.
  const std::shared_ptr<const void>& keepalive() const { return keepalive_; }

 private:
  FastStateReader(io::SpanSource head, Arena arena,
                  std::shared_ptr<const void> keepalive)
      : head_(head), arena_(std::move(arena)), keepalive_(std::move(keepalive)) {}

  io::SpanSource head_;
  Arena arena_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace memory
}  // namespace wde

#endif  // WDE_MEMORY_FAST_STATE_HPP_
