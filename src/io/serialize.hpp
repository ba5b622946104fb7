/// \file io/serialize.hpp
/// Entry header of the `io` module: byte sinks/sources and the
/// endianness-explicit primitive encoding every snapshot in the library is
/// built from. Invariants: all multi-byte values are little-endian on the
/// wire regardless of the host (doubles travel as their IEEE-754 bit
/// pattern, so round trips are bit-exact, including ±0.0, ±inf and NaN
/// payloads); decoding NEVER aborts or reads out of bounds — every read is
/// bounds-checked against `Source::remaining()` and returns a non-OK
/// `Status`/`Result` on truncated input, so hostile bytes degrade into
/// errors, not UB. Length-prefixed reads validate the prefix against the
/// remaining byte count *before* allocating, so a corrupt length cannot
/// trigger an OOM. Chunk framing and the snapshot header live in io/chunk.hpp.
#ifndef WDE_IO_SERIALIZE_HPP_
#define WDE_IO_SERIALIZE_HPP_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace wde {
namespace io {

/// Destination of serialized bytes. Implementations report failures through
/// Status (the library never throws).
class Sink {
 public:
  virtual ~Sink() = default;

  /// Appends `size` bytes. Either all bytes are accepted or a non-OK status
  /// is returned.
  virtual Status Append(const void* data, size_t size) = 0;
};

/// Sink into an owned, growable byte buffer. Append never fails.
class VectorSink final : public Sink {
 public:
  Status Append(const void* data, size_t size) override;

  std::span<const uint8_t> bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Sink into a file (created/truncated at Open). Close() flushes and reports
/// write-back errors; the destructor closes silently.
class FileSink final : public Sink {
 public:
  static Result<FileSink> Open(const std::string& path);

  FileSink(FileSink&& other) noexcept : file_(other.file_) { other.file_ = nullptr; }
  FileSink& operator=(FileSink&& other) noexcept;
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink();

  Status Append(const void* data, size_t size) override;
  /// Flushes buffered bytes and fsyncs them to stable storage.
  Status Sync();
  Status Close();

 private:
  explicit FileSink(std::FILE* file) : file_(file) {}

  std::FILE* file_ = nullptr;
};

/// Writes a file durably: `write` fills `path + ".tmp"`, which is fsynced,
/// closed and renamed over `path`, and then the parent directory is fsynced
/// so the rename itself survives a crash. Any failure removes the temp file
/// and leaves the previous file at `path` untouched; an OK return means the
/// new file is on stable storage.
Status WriteFileDurably(const std::string& path,
                        const std::function<Status(Sink&)>& write);

namespace internal {
/// Failure-injection seam: the rename WriteFileDurably commits with
/// (std::rename unless a test swaps it). Not thread-safe to reassign.
extern int (*rename_file)(const char* from, const char* to);
}  // namespace internal

/// Origin of serialized bytes with a known end: `remaining()` lets decoders
/// validate length prefixes before allocating.
class Source {
 public:
  virtual ~Source() = default;

  /// Bytes left to read.
  virtual size_t remaining() const = 0;

  /// Reads exactly `size` bytes into `out`, or returns OutOfRange on
  /// truncated input without consuming anything.
  virtual Status Read(void* out, size_t size) = 0;

  /// Zero-copy variant of Read for memory-backed sources: returns a pointer
  /// to the next `size` bytes and consumes them, or nullptr when the source
  /// cannot vend stable views (streaming source, or fewer than `size` bytes
  /// remain — the caller falls back to Read, which reports the truncation).
  /// The pointer stays valid as long as the underlying buffer; anchor it
  /// beyond the source's lifetime with backing().
  virtual const uint8_t* View(size_t size) {
    (void)size;
    return nullptr;
  }

  /// Shared handle keeping any View() pointers alive independently of this
  /// source object; nullptr when the source has no shareable backing (then
  /// views die with the buffer the caller handed in).
  virtual std::shared_ptr<const void> backing() const { return nullptr; }
};

/// Source over caller-owned bytes (e.g. a VectorSink buffer or one chunk's
/// payload). Does not copy; the span must outlive the source. The optional
/// keepalive is surfaced through backing() so nested decoders (the sharded
/// estimator parsing per-replica envelopes out of a column) can anchor
/// zero-copy views of a mapped snapshot.
class SpanSource final : public Source {
 public:
  explicit SpanSource(std::span<const uint8_t> bytes) : bytes_(bytes) {}
  SpanSource(std::span<const uint8_t> bytes,
             std::shared_ptr<const void> keepalive)
      : bytes_(bytes), keepalive_(std::move(keepalive)) {}

  size_t remaining() const override { return bytes_.size() - offset_; }
  Status Read(void* out, size_t size) override;
  const uint8_t* View(size_t size) override;
  std::shared_ptr<const void> backing() const override { return keepalive_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t offset_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// Source over a whole file. Open() loads it into a 64-byte-aligned buffer
/// (snapshots are bounded artifacts; loading up front gives every decoder an
/// exact remaining() to validate hostile length prefixes against); OpenMapped()
/// maps it instead, so restoring a snapshot touches only the pages it
/// actually reads and zero-copy consumers (the snapshot state frame) borrow the
/// mapping directly. Both modes share the buffer via backing(), so views
/// outlive the source.
class FileSource final : public Source {
 public:
  static Result<FileSource> Open(const std::string& path);
  /// mmap-backed on POSIX; transparently falls back to Open() elsewhere
  /// (mapped() reports which one you got).
  static Result<FileSource> OpenMapped(const std::string& path);

  size_t remaining() const override { return size_ - offset_; }
  Status Read(void* out, size_t size) override;
  const uint8_t* View(size_t size) override;
  std::shared_ptr<const void> backing() const override { return backing_; }

  /// True when the bytes come from a live file mapping.
  bool mapped() const { return mapped_; }

 private:
  FileSource(std::shared_ptr<const void> backing, const uint8_t* data,
             size_t size, bool mapped)
      : backing_(std::move(backing)), data_(data), size_(size),
        mapped_(mapped) {}

  std::shared_ptr<const void> backing_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t offset_ = 0;
  bool mapped_ = false;
};

// ------------------------------------------------------------- primitives
//
// Fixed-width little-endian encodings. Writers only fail when the sink
// fails; readers fail on truncation (and on a length prefix exceeding the
// source's remaining bytes).

Status WriteU8(Sink& sink, uint8_t value);
Status WriteU32(Sink& sink, uint32_t value);
Status WriteU64(Sink& sink, uint64_t value);
/// Two's-complement via uint32_t.
Status WriteI32(Sink& sink, int32_t value);
/// IEEE-754 bit pattern via uint64_t; round trips are bit-exact.
Status WriteDouble(Sink& sink, double value);
/// u32 byte length + raw bytes.
Status WriteString(Sink& sink, std::string_view value);
/// u64 element count + per-element doubles.
Status WriteDoubleVector(Sink& sink, std::span<const double> values);

Result<uint8_t> ReadU8(Source& source);
Result<uint32_t> ReadU32(Source& source);
Result<uint64_t> ReadU64(Source& source);
Result<int32_t> ReadI32(Source& source);
Result<double> ReadDouble(Source& source);
/// Rejects lengths beyond the remaining bytes or `max_size`.
Result<std::string> ReadString(Source& source, size_t max_size = 1 << 20);
Result<std::vector<double>> ReadDoubleVector(Source& source);

}  // namespace io
}  // namespace wde

#endif  // WDE_IO_SERIALIZE_HPP_
