/// \file io/chunk.hpp
/// Chunk framing for the versioned snapshot wire format. A snapshot is
///
///   magic "WDESNAP1" (8 bytes) · u32 format_version · chunk*
///
/// and every chunk is
///
///   u32 tag · u64 payload_size · payload bytes · u32 crc32(payload)
///
/// (all integers little-endian; CRC-32 is the IEEE/zlib polynomial). The
/// reader validates the magic, rejects every version but its own,
/// bounds-checks every payload size against the bytes actually present, and
/// verifies the CRC *before* any payload byte is parsed — so truncation and
/// bit flips surface as Status errors, never as UB in a decoder. Chunks nest
/// naturally: a payload may itself contain chunks (the sharded estimator's
/// state embeds one framed envelope per shard).
#ifndef WDE_IO_CHUNK_HPP_
#define WDE_IO_CHUNK_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "io/serialize.hpp"
#include "util/result.hpp"

namespace wde {
namespace io {

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected, table-driven).
uint32_t Crc32(std::span<const uint8_t> bytes);

/// The snapshot format version this build writes and the only one it reads.
/// Policy: readers accept exactly kSnapshotFormatVersion and reject every
/// other version — older or newer — with a Status naming it; compatibility
/// is explicit, never silent misparsing. A format change bumps the version
/// and states here what the readers of the new version accept.
/// History: v1 — initial format; v2 — the kde-rot payload grew an
/// eval-tolerance tail; v3 — estimator state could travel as one arena
/// fast-state chunk ("ARNA") instead of the portable "STAT" chunk; v4 —
/// estimators with dims() > 1 carry a "DIMS" chunk (u32 dimensionality)
/// between the TYPE chunk and the state chunk; v5 — one state encoding:
/// every estimator's state is one ARNA frame (memory/fast_state.hpp) and
/// the STAT chunk is gone; v6 — the kde-rot state head lost its
/// eval-tolerance field (the kd-tree evaluation path is gone); v7 — the
/// kde2d-prod fitted columns are quadrant-major (px, py, λ), not lex-sorted
/// (sx, sy) plus a sorted shadow ty, and its fitted_at counts failed fit
/// attempts too. No v1–v6 artifact was ever committed as a fixture, so v7
/// readers reject them by name rather than keep untested decoders.
inline constexpr uint32_t kSnapshotFormatVersion = 7;

/// Writes the 12-byte snapshot header (magic + format version).
Status WriteSnapshotHeader(Sink& sink);

/// Validates the magic and version; returns the version on success.
Result<uint32_t> ReadSnapshotHeader(Source& source);

/// One framed chunk, CRC-validated at read time.
struct Chunk {
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

Status WriteChunk(Sink& sink, uint32_t tag, std::span<const uint8_t> payload);

/// Reads the next chunk: bounds-checks the payload size against
/// source.remaining() before allocating and verifies the CRC before
/// returning.
Result<Chunk> ReadChunk(Source& source);

/// Reads the next chunk and requires its tag; returns the payload.
Result<std::vector<uint8_t>> ReadChunkExpecting(Source& source, uint32_t tag);

/// One framed chunk whose payload is a *view* when the source supports
/// zero-copy (Source::View) and an owned copy otherwise. Either way the CRC
/// is verified before the payload is handed out. A viewed payload lives as
/// long as the source's buffer — anchor it with Source::backing(); an owned
/// payload moves with the struct (`payload` tracks `owned`'s heap buffer).
struct ChunkRef {
  uint32_t tag = 0;
  std::span<const uint8_t> payload;
  std::vector<uint8_t> owned;
};

/// Zero-copy counterpart of ReadChunk: identical validation, but avoids the
/// payload copy for memory-backed sources (mmap'ed snapshots restore without
/// ever duplicating the column region).
Result<ChunkRef> ReadChunkRef(Source& source);

}  // namespace io
}  // namespace wde

#endif  // WDE_IO_CHUNK_HPP_
