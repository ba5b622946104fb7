/// \file memory/arena.hpp
/// Entry header of the `memory` module: aligned, relocatable columnar
/// storage for estimator fitted state. An `Arena` carves a fixed set of
/// typed columns (`f64`, `i64`, raw bytes) out of ONE contiguous
/// allocation, every column starting on a 64-byte boundary
/// (`kColumnAlignment`) — the layout the SIMD batch kernels and the
/// tree-over-buffer evaluation want, and exactly what the snapshot fast
/// path serializes as a single framed blob (see memory/fast_state.hpp).
///
/// Ownership is copy-on-write: copying an Arena shares the underlying
/// storage block (publishing an immutable view costs two pointer copies,
/// independent of state size), and the first mutation through a
/// `Mutable*()` accessor un-shares it by relocating into a fresh
/// allocation. Storage may also be *borrowed* from an external image (an
/// mmap'ed snapshot) with a keepalive handle; borrowed storage is
/// read-only, so the same first-mutation relocation applies. Relocation
/// never changes column offsets — only the base pointer — so the column
/// directory stays valid; raw spans cached by callers across a mutation do
/// NOT, which is why the mutable accessors re-derive the span on every
/// call.
///
/// Thread-safety matches std::shared_ptr CoW: concurrent readers of
/// Arena copies are safe; a writer mutating its own handle while other
/// handles exist relocates first (the use_count check can only
/// over-approximate sharing, never miss a live reader that was published
/// before the write).
#ifndef WDE_MEMORY_ARENA_HPP_
#define WDE_MEMORY_ARENA_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace memory {

/// Every column begins at a multiple of this within the arena payload (and,
/// for owned storage, in memory — 64 bytes: one cache line, the widest
/// vector register, and the alignment the snapshot state frame pads to).
inline constexpr size_t kColumnAlignment = 64;

/// Element type of one column. The raw values are part of the snapshot wire
/// format — do not renumber.
enum class ColumnKind : uint8_t {
  kF64 = 0,
  kI64 = 1,
  kU8 = 2,
};

/// Element size in bytes; aborts on an invalid kind (validate raw bytes
/// with IsValidColumnKind first).
size_t ColumnKindSize(ColumnKind kind);
bool IsValidColumnKind(uint8_t raw);

/// Requested column: element kind + element count.
struct ColumnSpec {
  ColumnKind kind = ColumnKind::kU8;
  uint64_t count = 0;
};

/// Materialized column: spec + byte offset of the first element within the
/// arena payload. Offsets are a pure function of the spec sequence (the
/// canonical 64-byte-aligned packing of ComputeColumnLayout), which is what
/// lets the wire format ship only the specs.
struct ColumnDesc {
  ColumnKind kind = ColumnKind::kU8;
  uint64_t count = 0;
  uint64_t offset = 0;
};

/// The canonical packing: columns in declaration order, each starting at
/// the next 64-byte boundary. Returns the descriptors and writes the total
/// payload size (end of the last column, unpadded) to `*total_bytes`.
/// Fails on element-count overflow.
Result<std::vector<ColumnDesc>> ComputeColumnLayout(
    std::span<const ColumnSpec> specs, uint64_t* total_bytes);

class Arena {
 public:
  /// Empty arena: no storage, no columns.
  Arena() = default;

  /// Copies share storage (copy-on-write); moves transfer it.
  Arena(const Arena&) = default;
  Arena& operator=(const Arena&) = default;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Owned, writable, zero-initialized storage for `specs` in the canonical
  /// layout. Aborts only on allocation failure (like every other allocation
  /// in the library); invalid specs (overflowing counts) abort too — specs
  /// from untrusted bytes must go through FromImage.
  static Arena Create(std::span<const ColumnSpec> specs);

  /// An arena over an existing serialized payload in the canonical layout
  /// for `specs`. Validates the layout against `payload.size()` first —
  /// hostile specs degrade into a Status, never UB. When `keepalive` is
  /// non-null and the payload base is 64-byte aligned, the arena *borrows*
  /// the bytes zero-copy (read-only until first mutation) and holds
  /// `keepalive` for their lifetime; otherwise the payload is copied into
  /// fresh owned storage.
  static Result<Arena> FromImage(std::span<const ColumnSpec> specs,
                                 std::span<const uint8_t> payload,
                                 std::shared_ptr<const void> keepalive);

  size_t num_columns() const { return columns_.size(); }
  std::span<const ColumnDesc> columns() const { return columns_; }
  const ColumnDesc& column(size_t i) const;

  /// Typed read-only element spans. The column's kind must match (checked).
  std::span<const double> F64(size_t i) const;
  std::span<const int64_t> I64(size_t i) const;
  std::span<const uint8_t> U8(size_t i) const;

  /// Typed writable element spans. Un-shares / un-borrows storage first
  /// (see EnsureWritable), so the returned span is exclusively owned; any
  /// previously obtained span into this arena may be invalidated.
  std::span<double> MutableF64(size_t i);
  std::span<int64_t> MutableI64(size_t i);
  std::span<uint8_t> MutableU8(size_t i);

  /// Guarantees exclusively owned, writable storage: relocates into a fresh
  /// 64-byte-aligned allocation when the current block is borrowed from an
  /// image or shared with another Arena handle. Contents are preserved
  /// bitwise; column offsets never change.
  void EnsureWritable();

  /// The contiguous payload (serialized verbatim by the snapshot fast
  /// path). Null/0 for an empty arena.
  const uint8_t* payload() const;
  size_t payload_bytes() const;

  bool empty() const { return storage_ == nullptr; }
  /// True while the storage is a zero-copy view of an external image.
  bool borrowed() const;
  /// True when both arenas view the same storage block (CoW not yet broken).
  bool shares_storage_with(const Arena& other) const;
  /// Keepalive handle for the current storage block: anything holding it
  /// (e.g. an interpolation table borrowing a column) keeps the bytes valid
  /// even after this arena relocates or dies.
  std::shared_ptr<const void> storage_keepalive() const;

 private:
  struct Storage;

  Arena(std::shared_ptr<Storage> storage, std::vector<ColumnDesc> columns)
      : storage_(std::move(storage)), columns_(std::move(columns)) {}

  static std::shared_ptr<Storage> AllocateOwned(size_t bytes);

  const uint8_t* ColumnBase(size_t i, ColumnKind kind) const;
  uint8_t* MutableColumnBase(size_t i, ColumnKind kind);

  std::shared_ptr<Storage> storage_;
  std::vector<ColumnDesc> columns_;
};

}  // namespace memory
}  // namespace wde

#endif  // WDE_MEMORY_ARENA_HPP_
