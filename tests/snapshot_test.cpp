// Tier-1 tests for the versioned snapshot/restore subsystem: the io
// primitives and chunk framing, round-trip fidelity — every registered
// estimator answers bit-identically after save → load through every loader
// (in-memory, file, mmap), including saves taken mid refit/rebuild interval
// where lazily fitted caches are stale — hostile input (truncated,
// bit-flipped, wrong magic, other versions, hostile length prefixes, and
// re-framed mutations of every estimator's state payload) degrading into
// Status errors rather than UB, the registry's restore-without-naming-the-type
// path, cross-process-style snapshot merges matching sequential ingest, the
// sharded engine's checkpoint → restore → continue-ingesting cycle, and
// durable file writes under injected failures. Run under ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "io/chunk.hpp"
#include "io/serialize.hpp"
#include "memory/fast_state.hpp"
#include "multidim/prod_kde2d.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/grid2d_selectivity.hpp"
#include "selectivity/histogram.hpp"
#include "selectivity/kde2d_selectivity.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "wavelet/scaled_function.hpp"

namespace wde {
namespace {

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

std::vector<selectivity::Query> Workload() {
  stats::Rng rng(99);
  return selectivity::AsRangeQueries(
      selectivity::UniformRangeWorkload(rng, 64, 0.0, 1.0));
}

std::vector<double> AnswersOf(const selectivity::SelectivityEstimator& est,
                              const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  est.Answer(queries, out);
  return out;
}

selectivity::StreamingWaveletSelectivity MakeSketch(size_t refit_interval) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 8;
  options.refit_interval = refit_interval;
  return *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
}

/// One ingested instance of every registered estimator. Stream lengths are
/// deliberately NOT multiples of the refit/rebuild cadences, so saves land
/// mid-interval with stale fitted caches — the hard case for bit-exact
/// restore.
std::vector<std::unique_ptr<selectivity::SelectivityEstimator>>
MakeIngestedEstimators() {
  const std::vector<double> xs = UnitStream(1, 5000);
  std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> estimators;

  estimators.push_back(
      std::make_unique<selectivity::EquiWidthHistogram>(0.0, 1.0, 64));
  estimators.push_back(
      std::make_unique<selectivity::EquiDepthHistogram>(0.0, 1.0, 32));
  estimators.push_back(
      std::make_unique<selectivity::ReservoirSampleSelectivity>(256, 17));
  selectivity::KdeSelectivity::Options kde_options;
  kde_options.refit_interval = 2048;
  estimators.push_back(std::make_unique<selectivity::KdeSelectivity>(kde_options));
  selectivity::WaveletSynopsisSelectivity::Options synopsis_options;
  synopsis_options.grid_log2 = 8;
  synopsis_options.budget = 48;
  synopsis_options.rebuild_interval = 2048;
  estimators.push_back(std::make_unique<selectivity::WaveletSynopsisSelectivity>(
      *selectivity::WaveletSynopsisSelectivity::Create(synopsis_options)));
  estimators.push_back(
      std::make_unique<selectivity::StreamingWaveletSelectivity>(MakeSketch(2048)));
  {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 32);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 512;
    estimators.push_back(std::make_unique<selectivity::ShardedSelectivityEstimator>(
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options)));
  }
  // The 2-D estimators consume the same stream as interleaved (x, y) pairs —
  // 2500 complete observations from 5000 values, with the save again landing
  // mid refit interval for the KDE.
  selectivity::Kde2dSelectivity::Options kde2d_options;
  kde2d_options.refit_interval = 2048;
  estimators.push_back(
      std::make_unique<selectivity::Kde2dSelectivity>(kde2d_options));
  estimators.push_back(
      std::make_unique<selectivity::Grid2dHistogram>(0.0, 1.0, 0.0, 1.0, 6));
  for (auto& est : estimators) est->InsertBatch(xs);
  return estimators;
}

std::vector<uint8_t> SnapshotBytesOf(const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(est, sink));
  return sink.TakeBytes();
}

// ---------------------------------------------------------- io primitives

TEST(IoTest, PrimitivesRoundTripBitExactly) {
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteU8(sink, 0xAB).ok());
  ASSERT_TRUE(io::WriteU32(sink, 0xDEADBEEF).ok());
  ASSERT_TRUE(io::WriteU64(sink, 0x0123456789ABCDEFULL).ok());
  ASSERT_TRUE(io::WriteI32(sink, -42).ok());
  ASSERT_TRUE(io::WriteDouble(sink, -0.0).ok());
  ASSERT_TRUE(io::WriteDouble(sink, 0x1.fffffffffffffp+1023).ok());
  ASSERT_TRUE(io::WriteString(sink, "snapshot").ok());
  ASSERT_TRUE(io::WriteDoubleVector(sink, std::vector<double>{1.5, -2.25}).ok());

  io::SpanSource source(sink.bytes());
  EXPECT_EQ(*io::ReadU8(source), 0xAB);
  EXPECT_EQ(*io::ReadU32(source), 0xDEADBEEFu);
  EXPECT_EQ(*io::ReadU64(source), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*io::ReadI32(source), -42);
  const double neg_zero = *io::ReadDouble(source);
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(*io::ReadDouble(source), 0x1.fffffffffffffp+1023);
  EXPECT_EQ(*io::ReadString(source), "snapshot");
  EXPECT_EQ(*io::ReadDoubleVector(source), (std::vector<double>{1.5, -2.25}));
  EXPECT_EQ(source.remaining(), 0u);
}

TEST(IoTest, HostileLengthPrefixesAreRejectedBeforeAllocation) {
  // A u64 vector length of ~2^61 with 4 trailing bytes: the reader must
  // reject against remaining(), not attempt the allocation.
  io::VectorSink sink;
  ASSERT_TRUE(io::WriteU64(sink, 1ULL << 61).ok());
  ASSERT_TRUE(io::WriteU32(sink, 0).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(io::ReadDoubleVector(source).ok());

  io::VectorSink str_sink;
  ASSERT_TRUE(io::WriteU32(str_sink, 0xFFFFFFFF).ok());
  io::SpanSource str_source(str_sink.bytes());
  EXPECT_FALSE(io::ReadString(str_source).ok());
}

TEST(IoTest, ChunksValidateCrcAndBounds) {
  io::VectorSink sink;
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(io::WriteChunk(sink, 0x1234, payload).ok());
  {
    io::SpanSource source(sink.bytes());
    Result<io::Chunk> chunk = io::ReadChunk(source);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk->tag, 0x1234u);
    EXPECT_EQ(chunk->payload, payload);
    EXPECT_EQ(source.remaining(), 0u);
  }
  // Flip one payload bit: the CRC must catch it.
  std::vector<uint8_t> corrupt(sink.bytes().begin(), sink.bytes().end());
  corrupt[13] ^= 0x40;
  io::SpanSource corrupt_source(corrupt);
  EXPECT_FALSE(io::ReadChunk(corrupt_source).ok());
}

// ----------------------------------------------- estimator round trips

TEST(SnapshotRoundTripTest, EveryRegisteredEstimatorAnswersBitIdentically) {
  const std::vector<selectivity::Query> queries = Workload();
  size_t covered = 0;
  for (const auto& est : MakeIngestedEstimators()) {
    ASSERT_TRUE(
        selectivity::EstimatorRegistry::Global().Contains(est->snapshot_type_tag()))
        << est->name();
    ++covered;
    // Query first so the lazy fit exists (and is stale by save time), then
    // snapshot and restore through the registry.
    const std::vector<double> before = AnswersOf(*est, queries);
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << est->name() << ": " << loaded.status().ToString();
    EXPECT_EQ((*loaded)->name(), est->name());
    EXPECT_EQ((*loaded)->count(), est->count());
    EXPECT_EQ(AnswersOf(**loaded, queries), before) << est->name();
  }
  // Every registered tag must have been exercised.
  EXPECT_EQ(covered, selectivity::EstimatorRegistry::Global().Tags().size());
}

TEST(SnapshotRoundTripTest, UnqueriedEstimatorsRoundTripToo) {
  // Save before any query: caches are empty and the first fit happens on
  // both sides after restore — answers must still agree bitwise.
  const std::vector<selectivity::Query> queries = Workload();
  for (const auto& est : MakeIngestedEstimators()) {
    const std::vector<uint8_t> bytes = SnapshotBytesOf(*est);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << est->name() << ": " << loaded.status().ToString();
    EXPECT_EQ(AnswersOf(**loaded, queries), AnswersOf(*est, queries)) << est->name();
  }
}

TEST(SnapshotRoundTripTest, RestoredEstimatorsContinueIngestingIdentically) {
  // The snapshot captures *everything*, including RNG state: a restored
  // estimator and its never-serialized twin must stay bitwise in lockstep
  // through further ingest. The reservoir is the sharpest probe (its
  // acceptance sequence is pure RNG).
  const std::vector<double> head = UnitStream(4, 6000);
  const std::vector<double> tail = UnitStream(5, 2000);
  selectivity::ReservoirSampleSelectivity twin(128, 31);
  twin.InsertBatch(head);
  const std::vector<uint8_t> bytes = SnapshotBytesOf(twin);
  io::SpanSource source(bytes);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_TRUE(restored.ok());
  twin.InsertBatch(tail);
  (*restored)->InsertBatch(tail);
  auto& restored_reservoir =
      static_cast<selectivity::ReservoirSampleSelectivity&>(**restored);
  EXPECT_EQ(restored_reservoir.reservoir(), twin.reservoir());
  EXPECT_EQ(restored_reservoir.count(), twin.count());
}

TEST(SnapshotRoundTripTest, LoadStateRestoresIntoExistingInstance) {
  const std::vector<double> xs = UnitStream(6, 2000);
  selectivity::EquiWidthHistogram saved(0.0, 1.0, 64);
  saved.InsertBatch(xs);
  io::VectorSink sink;
  ASSERT_TRUE(saved.SaveState(sink).ok());

  // A differently configured instance adopts the envelope's configuration.
  selectivity::EquiWidthHistogram target(-3.0, 5.0, 8);
  io::SpanSource source(sink.bytes());
  ASSERT_TRUE(target.LoadState(source).ok());
  EXPECT_EQ(target.buckets(), 64);
  EXPECT_EQ(target.count(), saved.count());
  EXPECT_EQ(target.Answer(selectivity::Query::Range(0.2, 0.7)),
            saved.Answer(selectivity::Query::Range(0.2, 0.7)));

  // A different concrete type must refuse the same envelope, untouched.
  selectivity::EquiDepthHistogram wrong_type(0.0, 1.0, 8);
  wrong_type.InsertBatch(xs);
  io::SpanSource source_again(sink.bytes());
  EXPECT_FALSE(wrong_type.LoadState(source_again).ok());
  EXPECT_EQ(wrong_type.count(), xs.size());
}

TEST(SnapshotRoundTripTest, FileSnapshotsRoundTrip) {
  const std::string path = testing::TempDir() + "/wde_snapshot_test.snap";
  const std::vector<selectivity::Query> queries = Workload();
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch(2048);
  sketch.InsertBatch(UnitStream(7, 5000));
  const std::vector<double> before = AnswersOf(sketch, queries);
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(sketch, path).ok());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
      selectivity::LoadEstimatorSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(AnswersOf(**loaded, queries), before);
  std::remove(path.c_str());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshotFile(path).ok());  // gone
}

// ------------------------------------------------------- hostile input

TEST(HostileInputTest, EveryTruncationOfASnapshotErrorsCleanly) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 8);
  hist.InsertBatch(UnitStream(8, 300));
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);
  for (size_t len = 0; len < bytes.size(); ++len) {
    io::SpanSource source(std::span(bytes.data(), len));
    EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok()) << "len=" << len;
  }
}

TEST(HostileInputTest, EverySingleBitFlipErrorsCleanly) {
  // CRC framing covers the payloads; magic/version/chunk-header bytes have
  // their own validation, and the reader accepts exactly one version, so no
  // flip anywhere may crash or be silently accepted.
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.InsertBatch(UnitStream(9, 100));
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);
  std::vector<uint8_t> corrupt(bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupt[byte] = bytes[byte] ^ static_cast<uint8_t>(1 << bit);
      io::SpanSource source(corrupt);
      EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok())
          << "byte=" << byte << " bit=" << bit;
    }
    corrupt[byte] = bytes[byte];
  }
}

TEST(HostileInputTest, WrongMagicAndOtherVersionsAreRejected) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  const std::vector<uint8_t> bytes = SnapshotBytesOf(hist);

  std::vector<uint8_t> wrong_magic(bytes);
  wrong_magic[0] = 'X';
  io::SpanSource magic_source(wrong_magic);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> magic_result =
      selectivity::LoadEstimatorSnapshot(magic_source);
  ASSERT_FALSE(magic_result.ok());
  EXPECT_NE(magic_result.status().message().find("magic"), std::string::npos);

  // The version u32 follows the 8-byte magic, little-endian. Every version
  // but the current one — older writers included — is rejected by name.
  for (const uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 8u, 255u}) {
    std::vector<uint8_t> other(bytes);
    for (int i = 0; i < 4; ++i) {
      other[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(version >> (8 * i));
    }
    io::SpanSource source(other);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> result =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_NE(result.status().message().find("version " + std::to_string(version)),
              std::string::npos)
        << result.status().ToString();
  }
}

/// A header + TYPE chunk for `tag`, ready for a state chunk.
io::VectorSink EnvelopeHeadFor(const std::string& tag) {
  io::VectorSink sink;
  WDE_CHECK_OK(io::WriteSnapshotHeader(sink));
  WDE_CHECK_OK(io::WriteChunk(
      sink, selectivity::internal::kChunkEstimatorType,
      std::span(reinterpret_cast<const uint8_t*>(tag.data()), tag.size())));
  return sink;
}

TEST(HostileInputTest, ValidFramingWithGarbagePayloadErrors) {
  // A well-formed envelope (valid CRCs) whose state payload is noise must be
  // caught by the frame parser or the estimator's own validation, never
  // trusted.
  const std::vector<uint8_t> garbage(128, 0xA5);
  io::VectorSink sink = EnvelopeHeadFor("equi-width");
  ASSERT_TRUE(
      io::WriteChunk(sink, selectivity::internal::kChunkEstimatorArena, garbage).ok());
  io::SpanSource source(sink.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());

  // The retired portable "STAT" state chunk is an unknown chunk now.
  io::VectorSink stat = EnvelopeHeadFor("equi-width");
  ASSERT_TRUE(io::WriteChunk(stat, 0x54415453, garbage).ok());
  io::SpanSource stat_source(stat.bytes());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> result =
      selectivity::LoadEstimatorSnapshot(stat_source);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown state chunk"),
            std::string::npos);
}

TEST(HostileInputTest, UnknownTypeTagIsNotFound) {
  io::VectorSink sink = EnvelopeHeadFor("no-such-estimator");
  ASSERT_TRUE(io::WriteChunk(sink, selectivity::internal::kChunkEstimatorArena,
                             std::vector<uint8_t>{})
                  .ok());
  io::SpanSource source(sink.bytes());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> result =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(HostileInputTest, ColumnDirectoryMismatchIsRejected) {
  // A structurally valid ARN1 frame whose column directory has the wrong
  // kind must fail the shape check, not abort in a typed accessor. The
  // mutated payload is re-framed with a valid CRC.
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 4);
  hist.InsertBatch(UnitStream(21, 50));
  io::VectorSink sink;
  ASSERT_TRUE(hist.SaveState(sink, 12).ok());
  const std::vector<uint8_t> envelope = sink.TakeBytes();
  // Header-less envelope = TYPE chunk then ARNA chunk.
  const size_t type_chunk = 16 + std::string("equi-width").size();
  io::SpanSource parse(std::span<const uint8_t>(envelope).subspan(type_chunk));
  Result<io::Chunk> arena_chunk = io::ReadChunk(parse);
  ASSERT_TRUE(arena_chunk.ok());
  std::vector<uint8_t> payload = arena_chunk->payload;
  uint32_t head_bytes = 0;
  std::memcpy(&head_bytes, payload.data() + 4, 4);
  // Flip the first column's kind byte (column_count u32 precedes it).
  const size_t kind_at = 8 + head_bytes + 4;
  ASSERT_LT(kind_at, payload.size());
  payload[kind_at] = 2;  // kF64 -> kU8: the shape check must refuse it
  io::VectorSink rebuilt = EnvelopeHeadFor("equi-width");
  ASSERT_TRUE(
      io::WriteChunk(rebuilt, selectivity::internal::kChunkEstimatorArena, payload)
          .ok());
  io::SpanSource source(rebuilt.bytes());
  EXPECT_FALSE(selectivity::LoadEstimatorSnapshot(source).ok());
}

/// A whole "sharded" snapshot built by hand: a layout head for one shard, the
/// given prototype envelope, no merged view, and one replica column.
std::vector<uint8_t> HandBuiltShardedSnapshot(
    const selectivity::SelectivityEstimator& prototype,
    const selectivity::SelectivityEstimator& replica) {
  memory::FastStateWriter writer;
  WDE_CHECK_OK(io::WriteU64(writer.head(), 1));     // shards
  WDE_CHECK_OK(io::WriteU64(writer.head(), 64));    // block_size
  WDE_CHECK_OK(io::WriteU64(writer.head(), 1));     // merge_refresh_interval
  WDE_CHECK_OK(io::WriteU64(writer.head(), 0));     // stream position
  WDE_CHECK_OK(io::WriteU64(writer.head(), 0));     // pending since merge
  WDE_CHECK_OK(prototype.SaveState(writer.head()));
  WDE_CHECK_OK(io::WriteU8(writer.head(), 0));  // no merged view
  io::VectorSink replica_envelope;
  WDE_CHECK_OK(replica.SaveState(replica_envelope));
  writer.AddU8Owned(replica_envelope.TakeBytes());
  io::VectorSink frame;
  WDE_CHECK_OK(writer.Finish(frame, 0));
  io::VectorSink snapshot = EnvelopeHeadFor("sharded");
  WDE_CHECK_OK(io::WriteChunk(snapshot, selectivity::internal::kChunkEstimatorArena,
                              frame.bytes()));
  return snapshot.TakeBytes();
}

TEST(HostileInputTest, NestedShardedFramesAreRejected) {
  // MakeEstimator and ShardedSelectivityEstimator::Create refuse to nest a
  // sharded engine inside another, so no restore may build one either. The
  // nested tag is refused before the nested state is parsed, so hostile
  // bytes cannot make a restore recurse once per nesting level.
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 16);
  hist.InsertBatch(UnitStream(31, 100));
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 2;
  selectivity::ShardedSelectivityEstimator inner =
      *selectivity::ShardedSelectivityEstimator::Create(hist, options);
  inner.InsertBatch(UnitStream(32, 100));

  // Sanity: the hand-built frame is a valid checkpoint for a flat engine.
  {
    const std::vector<uint8_t> flat = HandBuiltShardedSnapshot(hist, hist);
    io::SpanSource source(flat);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->count(), hist.count());
  }

  // A sharded prototype envelope.
  {
    const std::vector<uint8_t> nested = HandBuiltShardedSnapshot(inner, inner);
    io::SpanSource source(nested);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("nesting sharded"), std::string::npos)
        << loaded.status().ToString();
    // LoadState into a live engine fails the same way and leaves it untouched.
    io::SpanSource again(nested);
    ASSERT_TRUE(io::ReadSnapshotHeader(again).ok());
    const double before = inner.Answer(selectivity::Query::Range(0.2, 0.7));
    EXPECT_FALSE(inner.LoadState(again).ok());
    EXPECT_EQ(inner.Answer(selectivity::Query::Range(0.2, 0.7)), before);
  }

  // A flat prototype whose replica column holds a sharded envelope.
  {
    const std::vector<uint8_t> nested = HandBuiltShardedSnapshot(hist, inner);
    io::SpanSource source(nested);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("heterogeneous"), std::string::npos)
        << loaded.status().ToString();
  }
}

/// A "kde-rot" snapshot on the domain [0, 1] built by hand, so each column
/// can carry values no Insert could produce.
std::vector<uint8_t> HandBuiltKdeSnapshot(const std::vector<double>& values,
                                          const std::vector<double>& fitted) {
  memory::FastStateWriter writer;
  WDE_CHECK_OK(io::WriteDouble(writer.head(), 0.0));    // domain_lo
  WDE_CHECK_OK(io::WriteDouble(writer.head(), 1.0));    // domain_hi
  WDE_CHECK_OK(io::WriteU64(writer.head(), 1024));      // refit_interval
  WDE_CHECK_OK(io::WriteU64(writer.head(), fitted.size()));
  WDE_CHECK_OK(io::WriteU64(writer.head(), values.size()));
  WDE_CHECK_OK(io::WriteU8(writer.head(), 1));          // has a fitted KDE
  WDE_CHECK_OK(io::WriteDouble(writer.head(), 0.1));    // bandwidth
  writer.AddF64(values);
  writer.AddF64(fitted);
  io::VectorSink frame;
  WDE_CHECK_OK(writer.Finish(frame, 0));
  io::VectorSink snapshot = EnvelopeHeadFor("kde-rot");
  WDE_CHECK_OK(io::WriteChunk(snapshot, selectivity::internal::kChunkEstimatorArena,
                              frame.bytes()));
  return snapshot.TakeBytes();
}

TEST(HostileInputTest, KdeStateRejectsNonFiniteAndOutOfDomainValues) {
  // Insert clamps into the domain and fitted samples are the sorted values,
  // so NaN, ±inf or an out-of-domain number in either column is hostile.
  // One such sample would turn every moment-tree answer into NaN.
  const std::vector<double> clean = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  {
    const std::vector<uint8_t> bytes = HandBuiltKdeSnapshot(clean, clean);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->count(), clean.size());
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Each hostile number at the front, in the middle and at the back.
  for (const double bad : {nan, inf, -inf, -0.25, 1.5, 1e300}) {
    for (const size_t at : {size_t{0}, size_t{2}, clean.size() - 1}) {
      std::vector<double> poisoned = clean;
      poisoned[at] = bad;
      std::vector<double> poisoned_sorted = poisoned;
      if (!std::isnan(bad)) {
        std::sort(poisoned_sorted.begin(), poisoned_sorted.end());
      }
      for (const bool in_values : {true, false}) {
        SCOPED_TRACE(std::string(in_values ? "values" : "fitted") + " column, " +
                     std::to_string(bad) + " at " + std::to_string(at));
        const std::vector<uint8_t> bytes =
            in_values ? HandBuiltKdeSnapshot(poisoned, clean)
                      : HandBuiltKdeSnapshot(clean, poisoned_sorted);
        io::SpanSource source(bytes);
        Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
            selectivity::LoadEstimatorSnapshot(source);
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << loaded.status().ToString();
      }
    }
  }
}

/// The columns of a hand-built "kde2d-prod" snapshot on [0, 1]^2: the raw
/// observation buffers (the fitted prefix, then an unfitted tail) and the
/// fitted columns over the prefix, so any of them can carry values the live
/// estimator never produces.
struct Kde2dColumns {
  std::vector<double> raw_xs, raw_ys;
  std::vector<double> px, py, lambdas;  // px/py in quadrant-major order
  double hx = 0.1, hy = 0.1;
};

/// Fitted points on the anti-diagonal with the given λ column, plus `tail`
/// unfitted raw observations on the diagonal.
Kde2dColumns DiagonalKde2d(const std::vector<double>& lambdas,
                           size_t tail = 0) {
  Kde2dColumns c;
  const size_t n = lambdas.size();
  for (size_t i = 0; i < n; ++i) {
    c.px.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(n));
    c.py.push_back(1.0 - c.px.back());
  }
  multidim::SortPointsQuadrantMajor(c.px, c.py, 0.0, 1.0, 0.0, 1.0);
  c.lambdas = lambdas;
  c.raw_xs = c.px;
  c.raw_ys = c.py;
  for (size_t i = 0; i < tail; ++i) {
    c.raw_xs.push_back((static_cast<double>(i) + 0.25) /
                       static_cast<double>(tail));
    c.raw_ys.push_back(c.raw_xs.back());
  }
  return c;
}

std::vector<uint8_t> HandBuiltKde2dSnapshot(const Kde2dColumns& c) {
  const size_t fitted = c.px.size();
  memory::FastStateWriter writer;
  for (const double edge : {0.0, 1.0, 0.0, 1.0}) {  // both domains
    WDE_CHECK_OK(io::WriteDouble(writer.head(), edge));
  }
  WDE_CHECK_OK(io::WriteU64(writer.head(), 1024));     // refit_interval
  WDE_CHECK_OK(io::WriteDouble(writer.head(), 0.5));   // alpha
  WDE_CHECK_OK(io::WriteU8(writer.head(), 0));         // no CV
  WDE_CHECK_OK(io::WriteU64(writer.head(), fitted));   // fitted_at
  WDE_CHECK_OK(io::WriteU64(writer.head(), c.raw_xs.size()));  // observations
  WDE_CHECK_OK(io::WriteU8(writer.head(), 0));  // no pending half
  WDE_CHECK_OK(io::WriteDouble(writer.head(), 0.0));
  WDE_CHECK_OK(io::WriteU8(writer.head(), 1));  // has a fit
  WDE_CHECK_OK(io::WriteDouble(writer.head(), c.hx));
  WDE_CHECK_OK(io::WriteDouble(writer.head(), c.hy));
  writer.AddF64(c.raw_xs);
  writer.AddF64(c.raw_ys);
  writer.AddF64(c.px);
  writer.AddF64(c.py);
  writer.AddF64(c.lambdas);
  io::VectorSink frame;
  WDE_CHECK_OK(writer.Finish(frame, 0));
  io::VectorSink snapshot = EnvelopeHeadFor("kde2d-prod");
  WDE_CHECK_OK(io::WriteChunk(snapshot, selectivity::internal::kChunkEstimatorDims,
                              std::vector<uint8_t>{2, 0, 0, 0}));
  WDE_CHECK_OK(io::WriteChunk(snapshot, selectivity::internal::kChunkEstimatorArena,
                              frame.bytes()));
  return snapshot.TakeBytes();
}

std::vector<uint8_t> HandBuiltKde2dSnapshot(const std::vector<double>& lambdas) {
  return HandBuiltKde2dSnapshot(DiagonalKde2d(lambdas));
}

TEST(HostileInputTest, Kde2dStateRejectsLambdasOutsideTheAdaptiveRange) {
  // AdaptiveLambdas clamps λ to [1/4, 4]. A restored λ outside that range
  // would stretch a cell's reach past the domain (or to ±inf) and defeat the
  // rectangle pruning, so restore rejects it.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> clean = {0.25, 0.5, 1.0, 2.0, 3.0, 4.0};
  {
    const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(clean);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->count(), clean.size());
    EXPECT_EQ((*loaded)->Answer(selectivity::Query::Rect(-inf, inf, -inf, inf)),
              1.0);
  }
  for (const double bad : {nan, inf, -inf, 0.0, -1.0, std::nextafter(0.25, 0.0),
                           std::nextafter(4.0, 5.0), 1e300, 5e-324}) {
    for (const size_t at : {size_t{0}, size_t{3}, clean.size() - 1}) {
      SCOPED_TRACE("lambda " + std::to_string(bad) + " at " + std::to_string(at));
      std::vector<double> poisoned = clean;
      poisoned[at] = bad;
      const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(poisoned);
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << loaded.status().ToString();
    }
  }
}

TEST(HostileInputTest, Kde2dStateRejectsNonFiniteAndOutOfDomainCoordinates) {
  // Insert drops non-finite observations and clamps the rest into the
  // domain, so a raw coordinate that is NaN, ±inf or outside [lo, hi] is
  // hostile in either column, in the fitted prefix or the unfitted tail: a
  // NaN one would reach the next refit's sort and break its ordering.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Kde2dColumns clean = DiagonalKde2d({0.5, 1.0, 1.0, 2.0, 4.0, 0.25}, 3);
  {
    const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(clean);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->count(), clean.raw_xs.size());
    // The tail refits on the next answer; the whole-space mass is 1.
    EXPECT_EQ((*loaded)->Answer(selectivity::Query::Rect(-inf, inf, -inf, inf)),
              1.0);
  }
  const size_t fitted = clean.px.size();
  for (const double bad : {nan, inf, -inf, std::nextafter(1.0, inf),
                           std::nextafter(0.0, -inf)}) {
    for (const size_t at : {size_t{0}, size_t{3}, fitted, fitted + 2}) {
      for (const bool x_column : {true, false}) {
        SCOPED_TRACE(std::string(x_column ? "x" : "y") + " column, " +
                     std::to_string(bad) + " at " + std::to_string(at) +
                     (at < fitted ? " (fitted prefix)" : " (tail)"));
        Kde2dColumns poisoned = clean;
        (x_column ? poisoned.raw_xs : poisoned.raw_ys)[at] = bad;
        const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(poisoned);
        io::SpanSource source(bytes);
        Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
            selectivity::LoadEstimatorSnapshot(source);
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << loaded.status().ToString();
      }
    }
  }
}

TEST(HostileInputTest, Kde2dStateRejectsBandwidthsWithoutAFiniteInverseScale) {
  // Arguments are (e − x)·fl(1/(h·λ)): a subnormal h whose inverse scale
  // overflows would turn e == x into 0·inf = NaN, so restore rejects it
  // along with h/4 underflowing to 0 and 4h overflowing.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double h : {1e-310, 4.9e-324, 0.0, -0.1, 1e308, inf}) {
    for (const bool x_axis : {true, false}) {
      SCOPED_TRACE(std::string(x_axis ? "hx " : "hy ") + std::to_string(h));
      Kde2dColumns c = DiagonalKde2d({1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
      (x_axis ? c.hx : c.hy) = h;
      const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(c);
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << loaded.status().ToString();
    }
  }
}

TEST(HostileInputTest, Kde2dStateRejectsFittedColumnsOutOfQuadrantMajorOrder) {
  // The tree indexes the fitted columns in place and the next refit merges
  // into them, so restore accepts them only in (key, x, y) order and
  // finite: two adjacent points of one cell swapped, a key out of order or
  // a NaN in either column is rejected.
  Kde2dColumns clean;
  for (int i = 0; i < 4; ++i) {  // one 256-grid cell, ascending x
    clean.px.push_back(0.5 + 1e-4 * i);
    clean.py.push_back(0.25);
  }
  clean.px.push_back(0.9);  // a later quadrant
  clean.py.push_back(0.9);
  clean.lambdas.assign(clean.px.size(), 1.0);
  clean.raw_xs = clean.px;
  clean.raw_ys = clean.py;
  const auto load = [](const Kde2dColumns& c) {
    const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(c);
    io::SpanSource source(bytes);
    return selectivity::LoadEstimatorSnapshot(source);
  };
  ASSERT_TRUE(load(clean).ok()) << load(clean).status().ToString();
  std::vector<Kde2dColumns> poisoned(4, clean);
  std::swap(poisoned[0].px[1], poisoned[0].px[2]);  // adjacent, one cell
  std::swap(poisoned[1].px[3], poisoned[1].px[4]);  // keys out of order
  std::swap(poisoned[1].py[3], poisoned[1].py[4]);
  poisoned[2].px[2] = std::numeric_limits<double>::quiet_NaN();
  poisoned[3].py[4] = std::numeric_limits<double>::quiet_NaN();
  for (size_t k = 0; k < poisoned.size(); ++k) {
    SCOPED_TRACE("case " + std::to_string(k));
    const Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        load(poisoned[k]);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(HostileInputTest, Kde2dStateRejectsAFitOverTooFewObservations) {
  // A fit exists only over at least 4 observations; a failed attempt leaves
  // fitted_at set with no fit. A state claiming a fit over 0 fitted points
  // would answer 0/0 = NaN, so restore rejects it whatever the raw count.
  for (size_t raw = 0; raw <= 5; ++raw) {
    SCOPED_TRACE(std::to_string(raw) + " raw observations");
    Kde2dColumns c;  // has_fit = 1, fitted_at = 0, usable hx and hy
    for (size_t i = 0; i < raw; ++i) {
      c.raw_xs.push_back((static_cast<double>(i) + 0.5) / 6.0);
      c.raw_ys.push_back(0.25);
    }
    const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(c);
    io::SpanSource source(bytes);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshot(source);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(HostileInputTest, Kde2dRestoredLambdaMixedInsideACellAnswersWithinBound) {
  // AdaptiveLambdas gives every pilot cell one λ, and every tree cell lies
  // in one pilot cell; a restored λ column need not. It is legal (λ stays
  // in [1/4, 4]), so it loads, and its mixed cell answers point by point:
  // every answer stays within the documented rounding bound of a long
  // double oracle over the same columns.
  const double inf = std::numeric_limits<double>::infinity();
  Kde2dColumns c;
  stats::Rng rng(131);
  for (int i = 0; i < 120; ++i) {  // one 64-grid cell, two λ values
    c.px.push_back(0.5 + rng.UniformDouble() / 64.0);
    c.py.push_back(0.25 + rng.UniformDouble() / 64.0);
  }
  for (int i = 0; i < 80; ++i) {
    c.px.push_back(rng.UniformDouble());
    c.py.push_back(rng.UniformDouble());
  }
  multidim::SortPointsQuadrantMajor(c.px, c.py, 0.0, 1.0, 0.0, 1.0);
  for (size_t i = 0; i < c.px.size(); ++i) {
    c.lambdas.push_back(i % 2 == 0 ? 1.0 : 2.0);
  }
  c.raw_xs = c.px;
  c.raw_ys = c.py;
  c.hx = 0.01;
  c.hy = 0.015;
  const std::vector<uint8_t> bytes = HandBuiltKde2dSnapshot(c);
  io::SpanSource source(bytes);
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto cdf = [](long double u) -> long double {
    if (u <= -1.0L) return 0.0L;
    if (u >= 1.0L) return 1.0L;
    return 0.5L + 0.75L * u - 0.25L * u * u * u;
  };
  const auto factor = [&](double x, long double s, double lo, double hi) {
    const long double upper = std::isinf(hi) ? (hi > 0 ? 1.0L : 0.0L)
                                             : cdf((hi - x) / s);
    const long double lower = std::isinf(lo) ? (lo > 0 ? 1.0L : 0.0L)
                                             : cdf((lo - x) / s);
    return upper - lower;
  };
  const double n = static_cast<double>(c.px.size());
  // ProdKde2dTree's bound with K <= n, normalized by n.
  const double bound = std::ldexp(1.0, -53) * (n + 64.0 + 512.0 * (n + 32.0));
  const double centre = 0.5 + 0.5 / 64.0;
  for (const auto& [lo0, hi0, lo1, hi1] :
       std::vector<std::array<double, 4>>{{centre, 1.0, -inf, inf},
                                          {-inf, inf, 0.0, 0.26},
                                          {0.4, centre, 0.25, 0.6},
                                          {centre - 0.004, centre + 0.004,
                                           0.2, 0.3}}) {
    long double want = 0.0L;
    for (size_t i = 0; i < c.px.size(); ++i) {
      want += factor(c.px[i], static_cast<long double>(c.hx) * c.lambdas[i],
                     lo0, hi0) *
              factor(c.py[i], static_cast<long double>(c.hy) * c.lambdas[i],
                     lo1, hi1);
    }
    const double got =
        (*loaded)->Answer(selectivity::Query::Rect(lo0, hi0, lo1, hi1));
    EXPECT_NEAR(got, static_cast<double>(want / n), bound)
        << "[" << lo0 << "," << hi0 << "]x[" << lo1 << "," << hi1 << "]";
  }
}

// ------------------------------------------- hostile state-payload sweep
//
// Bit flips of a whole snapshot almost all die at a chunk CRC. This sweep
// reaches each estimator's own validation instead: it mutates bytes of the
// ARNA state payload and re-frames every mutant with a valid CRC, for every
// registered tag plus the sharded engine over each 2-D tag. Every load must
// end in a Status or a loaded estimator that answers queries — never an
// abort (ASan/UBSan lanes run this too) — and a failed LoadState must leave
// the target's answers bitwise-unchanged.

struct SplitEnvelope {
  std::vector<uint8_t> head;     // snapshot header + TYPE (+ DIMS) chunks
  std::vector<uint8_t> payload;  // the ARNA chunk payload
};

SplitEnvelope SplitSnapshot(const std::vector<uint8_t>& bytes) {
  io::SpanSource source(bytes);
  WDE_CHECK(io::ReadSnapshotHeader(source).ok());
  Result<io::Chunk> chunk = io::ReadChunk(source);  // TYPE
  WDE_CHECK(chunk.ok());
  size_t head_end = bytes.size() - source.remaining();
  chunk = io::ReadChunk(source);
  WDE_CHECK(chunk.ok());
  if (chunk->tag == selectivity::internal::kChunkEstimatorDims) {
    head_end = bytes.size() - source.remaining();
    chunk = io::ReadChunk(source);
    WDE_CHECK(chunk.ok());
  }
  WDE_CHECK(chunk->tag == selectivity::internal::kChunkEstimatorArena);
  return SplitEnvelope{
      std::vector<uint8_t>(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(head_end)),
      std::move(chunk->payload)};
}

/// The fitted_at field of a saved "kde2d-prod" state: the observation
/// count at its last fit attempt (the head's ninth field).
uint64_t Kde2dFittedAt(const selectivity::SelectivityEstimator& est) {
  const SplitEnvelope split = SplitSnapshot(SnapshotBytesOf(est));
  Result<memory::FastStateReader> reader =
      memory::FastStateReader::Parse(split.payload, nullptr);
  WDE_CHECK(reader.ok());
  io::SpanSource head = reader->head();
  for (int field = 0; field < 4; ++field) {  // domains
    WDE_CHECK(io::ReadDouble(head).ok());
  }
  WDE_CHECK(io::ReadU64(head).ok());     // refit_interval
  WDE_CHECK(io::ReadDouble(head).ok());  // alpha
  WDE_CHECK(io::ReadU8(head).ok());      // cv
  return *io::ReadU64(head);
}

TEST(Kde2dPacingTest, DegenerateSampleAttemptsOneFitPerRefitInterval) {
  // Every x equal: the axis-0 bandwidth is zero, so no fit exists and the
  // exact fraction answers. 1000 queries, each after one more observation
  // (fewer than refit_interval in all), make one fit attempt, at the first
  // query's count; refit_interval observations later comes the next.
  const selectivity::Kde2dSelectivity::Options options;  // interval 1024
  selectivity::Kde2dSelectivity est(options);
  stats::Rng rng(151);
  const auto insert = [&] {
    est.Insert(0.5);
    est.Insert(rng.UniformDouble());
  };
  for (int i = 0; i < 4000; ++i) insert();
  const size_t first = est.count();
  const selectivity::Query rect = selectivity::Query::Rect(0.4, 0.6, 0.0, 0.5);
  for (int q = 0; q < 1000; ++q) {
    const double answer = est.Answer(rect);
    EXPECT_GT(answer, 0.4);  // the exact fraction, ~0.5
    EXPECT_LT(answer, 0.6);
    insert();
  }
  EXPECT_EQ(Kde2dFittedAt(est), first);
  while (est.count() < first + 1024) insert();
  (void)est.Answer(rect);
  EXPECT_EQ(Kde2dFittedAt(est), first + 1024);
  // The attempt count survives a snapshot round trip.
  io::VectorSink sink;
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshot(est, sink).ok());
  io::SpanSource source(sink.bytes());
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> restored =
      selectivity::LoadEstimatorSnapshot(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Kde2dFittedAt(**restored), first + 1024);
  EXPECT_EQ((*restored)->Answer(rect), est.Answer(rect));
}

std::vector<selectivity::Query> SweepQueries(int dims) {
  std::vector<selectivity::Query> queries = {
      selectivity::Query::Range(0.1, 0.6), selectivity::Query::Point(0.5),
      selectivity::Query::Cdf(0.3), selectivity::Query::Quantile(0.7)};
  if (dims == 2) {
    queries.push_back(selectivity::Query::Rect(0.1, 0.6, 0.2, 0.9));
    queries.push_back(selectivity::Query::Conditional(0.0, 0.5, 0.5, 1.0));
  }
  return queries;
}

std::vector<double> AnswersTo(const selectivity::SelectivityEstimator& est,
                              const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  est.Answer(queries, out);
  return out;
}

std::vector<selectivity::EstimatorSpec> SweepSpecs() {
  std::vector<selectivity::EstimatorSpec> specs;
  const selectivity::EstimatorRegistry& registry =
      selectivity::EstimatorRegistry::Global();
  for (const std::string& tag : registry.Tags()) {
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = registry.NativeDims(tag);
    spec.buckets = 16;
    spec.grid_log2 = 4;
    spec.budget = 16;
    spec.filter = "haar";  // cheapest basis to re-derive per load
    spec.table_levels = 8;
    spec.j0 = 1;
    spec.j_max = 5;
    spec.capacity = 64;
    spec.refit_interval = 512;
    spec.block_size = 256;
    spec.shards = 2;
    specs.push_back(spec);
    if (tag == "sharded") continue;
    if (spec.dims == 2) {
      selectivity::EstimatorSpec sharded = spec;
      sharded.tag = "sharded";
      sharded.sharded_inner_tag = tag;
      specs.push_back(sharded);
    }
  }
  return specs;
}

TEST(HostileStateSweepTest, ReframedPayloadMutationsYieldStatusOrEstimator) {
  size_t loaded_mutants = 0;
  size_t rejected_mutants = 0;
  for (const selectivity::EstimatorSpec& spec : SweepSpecs()) {
    SCOPED_TRACE(spec.tag + "/" + spec.sharded_inner_tag);
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> made =
        selectivity::MakeEstimator(spec);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    selectivity::SelectivityEstimator& original = **made;
    original.InsertBatch(UnitStream(30, 1200));
    const std::vector<selectivity::Query> queries = SweepQueries(original.dims());
    (void)AnswersTo(original, queries);  // fitted caches ride in the payload
    const std::vector<uint8_t> bytes = SnapshotBytesOf(original);
    const SplitEnvelope split = SplitSnapshot(bytes);

    // Deterministic, bounded positions: every byte of the frame prefix
    // (magic, head, column directory, region size) plus an even stride
    // through the pad and column region.
    const size_t payload = split.payload.size();
    uint32_t head_bytes = 0;
    uint32_t columns = 0;
    std::memcpy(&head_bytes, split.payload.data() + 4, 4);
    std::memcpy(&columns, split.payload.data() + 8 + head_bytes, 4);
    const size_t prefix =
        std::min<size_t>(payload, 8 + head_bytes + 4 + 9 * size_t{columns} + 12);
    // Long heads (the sharded engine's nested prototype envelope, the
    // sketch's cached estimate) are swept fully over their first bytes and
    // strided after that.
    std::vector<size_t> positions;
    const size_t dense = std::min<size_t>(prefix, 384);
    for (size_t i = 0; i < dense; ++i) positions.push_back(i);
    const auto stride = [&](size_t begin, size_t end, size_t count) {
      for (size_t k = 0; k < count && begin < end; ++k) {
        positions.push_back(begin + (end - begin) * k / count);
      }
    };
    stride(dense, prefix, 128);
    stride(prefix, payload, 64);

    // The target is a restored twin of the original; its answers before any
    // hostile load are the original's.
    const std::vector<double> expected = AnswersTo(original, queries);
    std::unique_ptr<selectivity::SelectivityEstimator> target;
    const auto fresh_target = [&] {
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> twin =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(twin.ok(), twin.status().ToString().c_str());
      target = std::move(twin).value();
    };
    fresh_target();
    for (const size_t pos : positions) {
      for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::vector<uint8_t> mutant_payload = split.payload;
        mutant_payload[pos] ^= mask;
        io::VectorSink mutant;
        ASSERT_TRUE(mutant.Append(split.head.data(), split.head.size()).ok());
        ASSERT_TRUE(io::WriteChunk(mutant,
                                   selectivity::internal::kChunkEstimatorArena,
                                   mutant_payload)
                        .ok());
        // Through the registry: a Status or an estimator that answers.
        {
          io::SpanSource source(mutant.bytes());
          Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
              selectivity::LoadEstimatorSnapshot(source);
          if (loaded.ok()) (void)AnswersTo(**loaded, queries);
        }
        // In place: a failed LoadState leaves the target untouched.
        io::SpanSource source(mutant.bytes());
        ASSERT_TRUE(io::ReadSnapshotHeader(source).ok());
        const Status status = target->LoadState(source);
        if (status.ok()) {
          ++loaded_mutants;
          (void)AnswersTo(*target, queries);
          fresh_target();
        } else {
          ++rejected_mutants;
          ASSERT_EQ(AnswersTo(*target, queries), expected)
              << "pos=" << pos << " mask=" << static_cast<int>(mask) << ": "
              << status.ToString();
        }
      }
    }
  }
  // Both outcomes occur: column data is legitimately accepted, structure is
  // rejected by validation.
  EXPECT_GT(loaded_mutants, 0u);
  EXPECT_GT(rejected_mutants, 0u);
}

// ------------------------------------------- cross-process-style merging

TEST(SnapshotMergeTest, IntegerStateEstimatorsMergeFromSnapshotsBitExactly) {
  const std::vector<double> xs = UnitStream(10, 8000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::Query> queries = Workload();

  const auto check = [&](auto make) {
    auto sequential = make();
    sequential.InsertBatch(all);
    auto node_a = make();
    auto node_b = make();
    node_a.InsertBatch(all.first(3500));
    node_b.InsertBatch(all.subspan(3500));
    const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
    const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);

    auto combiner = make();
    io::SpanSource source_a(snap_a);
    io::SpanSource source_b(snap_b);
    ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
    ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
    EXPECT_EQ(combiner.count(), sequential.count());
    EXPECT_EQ(AnswersOf(combiner, queries), AnswersOf(sequential, queries));
  };
  check([] { return selectivity::EquiWidthHistogram(0.0, 1.0, 64); });
  check([] { return selectivity::EquiDepthHistogram(0.0, 1.0, 16); });
  check([] {
    selectivity::WaveletSynopsisSelectivity::Options options;
    options.grid_log2 = 8;
    options.budget = 32;
    options.rebuild_interval = 1 << 20;
    return *selectivity::WaveletSynopsisSelectivity::Create(options);
  });
}

TEST(SnapshotMergeTest, SketchMergeFromSnapshotsMatchesSequentialWithinTolerance) {
  const std::vector<double> xs = UnitStream(11, 1 << 14);
  const std::span<const double> all(xs);
  selectivity::StreamingWaveletSelectivity sequential = MakeSketch(1 << 30);
  sequential.InsertBatch(all);
  selectivity::StreamingWaveletSelectivity node_a = MakeSketch(1 << 30);
  selectivity::StreamingWaveletSelectivity node_b = MakeSketch(1 << 30);
  node_a.InsertBatch(all.first(6000));
  node_b.InsertBatch(all.subspan(6000));

  selectivity::StreamingWaveletSelectivity combiner = MakeSketch(1 << 30);
  const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
  const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);
  io::SpanSource source_a(snap_a);
  io::SpanSource source_b(snap_b);
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
  EXPECT_EQ(combiner.count(), sequential.count());
  for (double a = 0.0; a < 0.9; a += 0.07) {
    const double got = combiner.Answer(selectivity::Query::Range(a, a + 0.1));
    const double want = sequential.Answer(selectivity::Query::Range(a, a + 0.1));
    EXPECT_NEAR(got, want, 1e-12 * std::max(1.0, std::fabs(want)));
  }
}

TEST(SnapshotMergeTest, MergeFromSnapshotRejectsIncompatibleConfigs) {
  selectivity::EquiWidthHistogram node(0.0, 1.0, 64);
  node.InsertBatch(UnitStream(12, 500));
  const std::vector<uint8_t> snap = SnapshotBytesOf(node);

  selectivity::EquiWidthHistogram other_buckets(0.0, 1.0, 32);
  io::SpanSource source(snap);
  EXPECT_FALSE(other_buckets.MergeFromSnapshot(source).ok());
  EXPECT_EQ(other_buckets.count(), 0u);

  selectivity::EquiDepthHistogram other_type(0.0, 1.0, 64);
  io::SpanSource source_again(snap);
  EXPECT_FALSE(other_type.MergeFromSnapshot(source_again).ok());
}

// ------------------------------------------------- sharded checkpointing

TEST(ShardedCheckpointTest, CheckpointRestoreContinueMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "/wde_sharded_checkpoint.snap";
  const std::vector<double> xs = UnitStream(13, 40000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::Query> queries = Workload();

  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    options.block_size = 1024;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator uninterrupted = make();
  uninterrupted.InsertBatch(all);

  // Ingest half, checkpoint, "kill" the node, restore into a fresh engine,
  // continue with the second half: partition positions must line up exactly.
  {
    selectivity::ShardedSelectivityEstimator node = make();
    node.InsertBatch(all.first(17000));
    ASSERT_TRUE(node.Checkpoint(path).ok());
  }
  selectivity::ShardedSelectivityEstimator restored = make();
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), 17000u);
  restored.InsertBatch(all.subspan(17000));
  EXPECT_EQ(restored.count(), uninterrupted.count());
  for (size_t s = 0; s < restored.shards(); ++s) {
    EXPECT_EQ(restored.shard(s).count(), uninterrupted.shard(s).count());
  }
  EXPECT_EQ(AnswersOf(restored, queries), AnswersOf(uninterrupted, queries));
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, RestoreRejectsCorruptCheckpointsUntouched) {
  const std::string path = testing::TempDir() + "/wde_sharded_corrupt.snap";
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 16);
  selectivity::ShardedSelectivityEstimator node =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  node.InsertBatch(UnitStream(14, 2000));
  ASSERT_TRUE(node.Checkpoint(path).ok());

  // Truncate the file: Restore must fail and leave the target untouched.
  {
    Result<io::FileSource> full = io::FileSource::Open(path);
    ASSERT_TRUE(full.ok());
    std::vector<uint8_t> bytes(full->remaining());
    ASSERT_TRUE(full->Read(bytes.data(), bytes.size()).ok());
    Result<io::FileSink> sink = io::FileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(sink->Append(bytes.data(), bytes.size() / 2).ok());
    ASSERT_TRUE(sink->Close().ok());
  }
  selectivity::ShardedSelectivityEstimator target =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, {});
  target.InsertBatch(UnitStream(15, 100));
  EXPECT_FALSE(target.Restore(path).ok());
  EXPECT_EQ(target.count(), 100u);  // untouched
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, PacedMergedViewNeverCrossesARestoreBoundary) {
  // Regression for the merge_refresh_interval × restore interaction: with a
  // large refresh interval the engine deliberately serves a stale merged
  // view between rebuilds, but that staleness is a live-pacing contract —
  // it must NOT survive a checkpoint/restore. The restored engine answers
  // from a fresh rebuild of the replicas.
  const std::string path = testing::TempDir() + "/wde_sharded_paced.snap";
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 3;
    options.block_size = 256;
    options.merge_refresh_interval = 1000000;  // effectively never refresh
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  stats::Rng rng(17);
  std::vector<double> low(4000), high(4000);
  for (double& x : low) x = rng.Uniform(0.0, 0.5);
  for (double& x : high) x = rng.Uniform(0.5, 1.0);

  selectivity::ShardedSelectivityEstimator node = make();
  node.InsertBatch(low);
  // Builds the view.
  const double stale = node.Answer(selectivity::Query::Range(0.5, 1.0));
  EXPECT_EQ(stale, 0.0);  // nothing above 0.5 yet
  node.InsertBatch(high);  // pending < interval: the stale view keeps serving
  EXPECT_EQ(node.Answer(selectivity::Query::Range(0.5, 1.0)), stale);
  ASSERT_TRUE(node.Checkpoint(path).ok());

  // Pre-restore the live node still paces; the RESTORED engine must not.
  selectivity::ShardedSelectivityEstimator restored = make();
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), 8000u);
  const double fresh = restored.Answer(selectivity::Query::Range(0.5, 1.0));
  EXPECT_NEAR(fresh, 0.5, 0.05);
  // And the rebuilt answer is exactly a quiesced merge of the same stream:
  // an engine with refresh interval 1 over the identical ingest agrees
  // bitwise (integer histogram state).
  selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
  selectivity::ShardedSelectivityEstimator::Options eager_options;
  eager_options.shards = 3;
  eager_options.block_size = 256;
  selectivity::ShardedSelectivityEstimator eager =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, eager_options);
  eager.InsertBatch(low);
  eager.InsertBatch(high);
  EXPECT_EQ(fresh, eager.Answer(selectivity::Query::Range(0.5, 1.0)));
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, KdeCheckpointRestoresBitwise) {
  // Replicas that carry fitted columns (sorted buffer + bandwidth) restore
  // through the nested envelopes to the same answers.
  const std::string path = testing::TempDir() + "/wde_kde_checkpoint.snap";
  const std::vector<selectivity::Query> queries = Workload();
  selectivity::KdeSelectivity::Options proto_options;
  proto_options.refit_interval = 512;
  selectivity::KdeSelectivity prototype(proto_options);
  selectivity::ShardedSelectivityEstimator::Options options;
  options.shards = 3;
  options.block_size = 256;
  selectivity::ShardedSelectivityEstimator node =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  node.InsertBatch(UnitStream(19, 9000));
  const std::vector<double> before = AnswersOf(node, queries);
  ASSERT_TRUE(node.Checkpoint(path).ok());

  selectivity::ShardedSelectivityEstimator restored =
      *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  ASSERT_TRUE(restored.Restore(path).ok());
  EXPECT_EQ(restored.count(), node.count());
  EXPECT_EQ(AnswersOf(restored, queries), before);
  std::remove(path.c_str());
}

TEST(ShardedCheckpointTest, DistributedNodesMergeViaSnapshots) {
  // The full distributed story: two sharded ingest nodes over disjoint
  // partitions write snapshots; a combiner node restores + merges them and
  // answers exactly like one node over the whole stream.
  const std::vector<double> xs = UnitStream(16, 30000);
  const std::span<const double> all(xs);
  const std::vector<selectivity::Query> queries = Workload();
  const auto make = []() {
    selectivity::EquiWidthHistogram prototype(0.0, 1.0, 64);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = 4;
    return *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
  };
  selectivity::ShardedSelectivityEstimator sequential = make();
  sequential.InsertBatch(all);

  selectivity::ShardedSelectivityEstimator node_a = make();
  selectivity::ShardedSelectivityEstimator node_b = make();
  node_a.InsertBatch(all.first(13000));
  node_b.InsertBatch(all.subspan(13000));
  const std::vector<uint8_t> snap_a = SnapshotBytesOf(node_a);
  const std::vector<uint8_t> snap_b = SnapshotBytesOf(node_b);

  selectivity::ShardedSelectivityEstimator combiner = make();
  io::SpanSource source_a(snap_a);
  io::SpanSource source_b(snap_b);
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_a).ok());
  ASSERT_TRUE(combiner.MergeFromSnapshot(source_b).ok());
  EXPECT_EQ(combiner.count(), sequential.count());
  EXPECT_EQ(AnswersOf(combiner, queries), AnswersOf(sequential, queries));
}

// ------------------------------------------------------ loader equivalence

TEST(LoaderEquivalenceTest, EveryLoaderRestoresEveryTagBitIdentically) {
  // One encoding, four ways in: an unanchored in-memory buffer (columns
  // copied), an anchored one (columns borrowed), a file read into memory and
  // an mmapped file. Each restores every registered tag bitwise, queried or
  // not before the save.
  const std::string path = testing::TempDir() + "/wde_loader_equivalence.snap";
  const std::vector<selectivity::Query> queries = Workload();
  for (const bool query_first : {true, false}) {
    for (const auto& est : MakeIngestedEstimators()) {
      SCOPED_TRACE(est->name());
      if (query_first) AnswersOf(*est, queries);  // warm the lazy caches
      const std::vector<double> before = AnswersOf(*est, queries);
      auto bytes = std::make_shared<std::vector<uint8_t>>(SnapshotBytesOf(*est));

      std::vector<std::unique_ptr<selectivity::SelectivityEstimator>> restored;
      io::SpanSource copied(*bytes);
      restored.push_back(*selectivity::LoadEstimatorSnapshot(copied));
      io::SpanSource borrowed(*bytes, bytes);
      restored.push_back(*selectivity::LoadEstimatorSnapshot(borrowed));
      ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(*est, path).ok());
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> file =
          selectivity::LoadEstimatorSnapshotFile(path);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      restored.push_back(std::move(file).value());
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> mapped =
          selectivity::LoadEstimatorSnapshotFileMapped(path);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      restored.push_back(std::move(mapped).value());
      for (const auto& r : restored) {
        EXPECT_EQ(r->name(), est->name());
        EXPECT_EQ(r->count(), est->count());
        EXPECT_EQ(AnswersOf(*r, queries), before);
      }
      // A mapped restore may borrow the file's pages zero-copy; mutating the
      // estimator must un-share (CoW) rather than write through the mapping,
      // and the estimator keeps working after further ingest. A
      // d-dimensional estimator consumes d interleaved values per
      // observation.
      restored.back()->InsertBatch(UnitStream(20, 500));
      EXPECT_EQ(restored.back()->count(),
                est->count() + 500 / static_cast<size_t>(est->dims()));
      AnswersOf(*restored.back(), queries);  // must not crash or corrupt
    }
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------- durable file writes

std::vector<uint8_t> FileBytes(const std::string& path) {
  Result<io::FileSource> file = io::FileSource::Open(path);
  WDE_CHECK(file.ok(), file.status().ToString().c_str());
  std::vector<uint8_t> bytes(file->remaining());
  WDE_CHECK_OK(file->Read(bytes.data(), bytes.size()));
  return bytes;
}

bool FileExists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

int FailRename(const char* from, const char* to) {
  (void)from;
  (void)to;
  return -1;
}

TEST(DurableFileTest, FailedRenameKeepsPreviousSnapshotAndRemovesTemp) {
  const std::string path = testing::TempDir() + "/wde_durable_rename.snap";
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 16);
  hist.InsertBatch(UnitStream(40, 500));
  ASSERT_TRUE(selectivity::SaveEstimatorSnapshotFile(hist, path).ok());
  const std::vector<uint8_t> previous = FileBytes(path);

  hist.InsertBatch(UnitStream(41, 500));
  io::internal::rename_file = &FailRename;
  const Status failed = selectivity::SaveEstimatorSnapshotFile(hist, path);
  io::internal::rename_file = &std::rename;
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(FileBytes(path), previous);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
      selectivity::LoadEstimatorSnapshotFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->count(), 500u);
  std::remove(path.c_str());
}

TEST(DurableFileTest, FailedWriteKeepsPreviousFileAndRemovesTemp) {
  const std::string path = testing::TempDir() + "/wde_durable_write.bin";
  const std::vector<uint8_t> previous = {1, 2, 3};
  ASSERT_TRUE(io::WriteFileDurably(path, [&](io::Sink& sink) {
                return sink.Append(previous.data(), previous.size());
              }).ok());
  const Status failed = io::WriteFileDurably(path, [](io::Sink& sink) {
    const uint8_t partial[] = {9, 9};
    WDE_RETURN_IF_ERROR(sink.Append(partial, sizeof(partial)));
    return Status::Internal("writer died midway");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(FileBytes(path), previous);
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wde
