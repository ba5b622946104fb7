#include "memory/fast_state.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace memory {

namespace {

/// "ARN1" as a little-endian u32.
constexpr uint32_t kFastStateMagic = 0x314E5241;

/// Bytes per column directory entry: u8 kind + u64 count.
constexpr uint64_t kDirectoryEntryBytes = 9;

Status AppendZeros(io::Sink& sink, uint64_t count) {
  // Gaps are inter-column alignment pads, always < kColumnAlignment.
  static constexpr uint8_t kZeros[kColumnAlignment] = {};
  WDE_CHECK_LE(count, sizeof(kZeros), "alignment pad exceeds one cache line");
  if (count == 0) return Status::OK();
  return sink.Append(kZeros, static_cast<size_t>(count));
}

/// Reverses the byte order of `count` consecutive 8-byte elements.
void SwapElements(uint8_t* bytes, uint64_t count) {
  for (uint64_t k = 0; k < count; ++k) std::reverse(bytes + 8 * k, bytes + 8 * k + 8);
}

/// Appends one column's element bytes in wire (little-endian) order: a
/// verbatim append on little-endian hosts; big-endian hosts swap f64/i64
/// elements through a bounded scratch buffer.
Status AppendColumn(io::Sink& sink, ColumnKind kind, const uint8_t* data,
                    uint64_t bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    (void)kind;
    return sink.Append(data, static_cast<size_t>(bytes));
  } else {
    if (ColumnKindSize(kind) == 1) {
      return sink.Append(data, static_cast<size_t>(bytes));
    }
    std::array<uint8_t, 4096> scratch;
    for (uint64_t done = 0; done < bytes;) {
      const uint64_t n = std::min<uint64_t>(scratch.size(), bytes - done);
      std::memcpy(scratch.data(), data + done, static_cast<size_t>(n));
      SwapElements(scratch.data(), n / 8);
      WDE_RETURN_IF_ERROR(sink.Append(scratch.data(), static_cast<size_t>(n)));
      done += n;
    }
    return Status::OK();
  }
}

}  // namespace

void FastStateWriter::AddF64(std::span<const double> values) {
  columns_.push_back(PendingColumn{
      ColumnSpec{ColumnKind::kF64, values.size()},
      reinterpret_cast<const uint8_t*>(values.data())});
}

void FastStateWriter::AddI64(std::span<const int64_t> values) {
  columns_.push_back(PendingColumn{
      ColumnSpec{ColumnKind::kI64, values.size()},
      reinterpret_cast<const uint8_t*>(values.data())});
}

void FastStateWriter::AddU8(std::span<const uint8_t> bytes) {
  columns_.push_back(
      PendingColumn{ColumnSpec{ColumnKind::kU8, bytes.size()}, bytes.data()});
}

void FastStateWriter::AddU8Owned(std::vector<uint8_t> bytes) {
  pinned_.push_back(std::move(bytes));
  AddU8(pinned_.back());
}

Status FastStateWriter::Finish(io::Sink& sink, uint64_t payload_offset) const {
  std::vector<ColumnSpec> specs;
  specs.reserve(columns_.size());
  for (const PendingColumn& column : columns_) specs.push_back(column.spec);
  uint64_t region_bytes = 0;
  WDE_ASSIGN_OR_RETURN(std::vector<ColumnDesc> layout,
                       ComputeColumnLayout(specs, &region_bytes));

  const std::span<const uint8_t> head = head_.bytes();
  if (head.size() > std::numeric_limits<uint32_t>::max() ||
      columns_.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("fast state head or directory too large");
  }
  // Everything before the column region; the pad is sized so the region
  // begins at a 64-byte absolute artifact offset.
  const uint64_t prefix_bytes = 4 + 4 + head.size() + 4 +
                                kDirectoryEntryBytes * columns_.size() + 8 + 4;
  const uint64_t pad_bytes =
      (kColumnAlignment - (payload_offset + prefix_bytes) % kColumnAlignment) %
      kColumnAlignment;

  WDE_RETURN_IF_ERROR(io::WriteU32(sink, kFastStateMagic));
  WDE_RETURN_IF_ERROR(io::WriteU32(sink, static_cast<uint32_t>(head.size())));
  if (!head.empty()) {
    WDE_RETURN_IF_ERROR(sink.Append(head.data(), head.size()));
  }
  WDE_RETURN_IF_ERROR(
      io::WriteU32(sink, static_cast<uint32_t>(columns_.size())));
  for (const PendingColumn& column : columns_) {
    WDE_RETURN_IF_ERROR(
        io::WriteU8(sink, static_cast<uint8_t>(column.spec.kind)));
    WDE_RETURN_IF_ERROR(io::WriteU64(sink, column.spec.count));
  }
  WDE_RETURN_IF_ERROR(io::WriteU64(sink, region_bytes));
  WDE_RETURN_IF_ERROR(io::WriteU32(sink, static_cast<uint32_t>(pad_bytes)));
  WDE_RETURN_IF_ERROR(AppendZeros(sink, pad_bytes));

  uint64_t cursor = 0;
  for (size_t i = 0; i < layout.size(); ++i) {
    WDE_RETURN_IF_ERROR(AppendZeros(sink, layout[i].offset - cursor));
    const uint64_t bytes = layout[i].count * ColumnKindSize(layout[i].kind);
    if (bytes != 0) {
      WDE_RETURN_IF_ERROR(
          AppendColumn(sink, layout[i].kind, columns_[i].data, bytes));
    }
    cursor = layout[i].offset + bytes;
  }
  return Status::OK();
}

Result<FastStateReader> FastStateReader::Parse(
    std::span<const uint8_t> payload, std::shared_ptr<const void> keepalive) {
  io::SpanSource scalars(payload);
  WDE_ASSIGN_OR_RETURN(uint32_t magic, io::ReadU32(scalars));
  if (magic != kFastStateMagic) {
    return Status::InvalidArgument("fast state payload has a bad magic");
  }
  WDE_ASSIGN_OR_RETURN(uint32_t head_bytes, io::ReadU32(scalars));
  if (head_bytes > scalars.remaining()) {
    return Status::InvalidArgument("fast state head is truncated");
  }
  const size_t head_pos = payload.size() - scalars.remaining();
  const std::span<const uint8_t> head =
      payload.subspan(head_pos, head_bytes);

  const std::span<const uint8_t> tail = payload.subspan(head_pos + head_bytes);
  io::SpanSource dir(tail);
  WDE_ASSIGN_OR_RETURN(uint32_t column_count, io::ReadU32(dir));
  if (column_count > dir.remaining() / kDirectoryEntryBytes) {
    return Status::InvalidArgument("fast state column directory is truncated");
  }
  std::vector<ColumnSpec> specs;
  specs.reserve(column_count);
  for (uint32_t i = 0; i < column_count; ++i) {
    WDE_ASSIGN_OR_RETURN(uint8_t raw_kind, io::ReadU8(dir));
    if (!IsValidColumnKind(raw_kind)) {
      return Status::InvalidArgument(
          Format("fast state column %u has invalid kind %u", i, raw_kind));
    }
    WDE_ASSIGN_OR_RETURN(uint64_t count, io::ReadU64(dir));
    specs.push_back(ColumnSpec{static_cast<ColumnKind>(raw_kind), count});
  }
  WDE_ASSIGN_OR_RETURN(uint64_t region_bytes, io::ReadU64(dir));
  WDE_ASSIGN_OR_RETURN(uint32_t pad_bytes, io::ReadU32(dir));
  if (pad_bytes >= kColumnAlignment || pad_bytes > dir.remaining()) {
    return Status::InvalidArgument("fast state pad is invalid");
  }
  const size_t region_pos = tail.size() - dir.remaining() + pad_bytes;
  const std::span<const uint8_t> region = tail.subspan(region_pos);
  // The region must account for every remaining byte (chunk payloads are
  // exact) and match the canonical layout — FromImage re-validates the
  // latter, so hostile directories degrade into a Status here or there.
  if (region.size() != region_bytes) {
    return Status::InvalidArgument(
        Format("fast state column region has %zu bytes, directory claims %llu",
               region.size(), static_cast<unsigned long long>(region_bytes)));
  }
  if constexpr (std::endian::native != std::endian::little) {
    // Wire elements are little-endian: take a private copy (no keepalive,
    // so FromImage copies) and swap the f64/i64 columns in place.
    WDE_ASSIGN_OR_RETURN(Arena arena, Arena::FromImage(specs, region, nullptr));
    for (size_t i = 0; i < arena.num_columns(); ++i) {
      const ColumnDesc& column = arena.column(i);
      if (column.kind == ColumnKind::kF64) {
        SwapElements(reinterpret_cast<uint8_t*>(arena.MutableF64(i).data()),
                     column.count);
      } else if (column.kind == ColumnKind::kI64) {
        SwapElements(reinterpret_cast<uint8_t*>(arena.MutableI64(i).data()),
                     column.count);
      }
    }
    return FastStateReader(io::SpanSource(head), std::move(arena),
                           std::move(keepalive));
  }
  WDE_ASSIGN_OR_RETURN(Arena arena,
                       Arena::FromImage(specs, region, keepalive));
  return FastStateReader(io::SpanSource(head), std::move(arena),
                         std::move(keepalive));
}

bool ColumnsMatch(const Arena& arena, std::span<const ColumnSpec> specs) {
  if (arena.num_columns() != specs.size()) return false;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ColumnDesc& have = arena.column(i);
    if (have.kind != specs[i].kind || have.count != specs[i].count) {
      return false;
    }
  }
  return true;
}

}  // namespace memory
}  // namespace wde
