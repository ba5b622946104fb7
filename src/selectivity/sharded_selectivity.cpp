#include "selectivity/sharded_selectivity.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "io/chunk.hpp"
#include "memory/fast_state.hpp"
#include "selectivity/estimator_registry.hpp"
#include "util/string_util.hpp"

namespace wde {
namespace selectivity {

namespace {

/// A sharded engine never wraps another one: MakeEstimator rejects the
/// nesting, and Create/LoadStateImpl hold the same line so a restore cannot
/// recurse once per hostile nested prototype envelope.
Status CheckPrototypeTag(std::string_view tag) {
  if (tag == "sharded") {
    return Status::InvalidArgument("nesting sharded inside sharded is not supported");
  }
  return Status::OK();
}

/// The TYPE tag of the envelope at `source`'s position, read from a copy so
/// `source` itself does not advance. LoadStateImpl checks every nested tag
/// this way BEFORE parsing the nested state, so hostile bytes can never make
/// a restore recurse into a nested sharded engine.
Result<std::string> PeekEnvelopeTag(io::SpanSource source) {
  WDE_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> tag,
      io::ReadChunkExpecting(source, internal::kChunkEstimatorType));
  return std::string(tag.begin(), tag.end());
}

}  // namespace

Result<ShardedSelectivityEstimator> ShardedSelectivityEstimator::Create(
    const SelectivityEstimator& prototype, const Options& options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be positive");
  }
  if (options.block_size == 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (options.merge_refresh_interval == 0) {
    return Status::InvalidArgument("merge_refresh_interval must be positive");
  }
  if (prototype.dims() > 1 &&
      options.block_size % static_cast<size_t>(prototype.dims()) != 0) {
    return Status::InvalidArgument(
        "block_size must be a multiple of the prototype's dims() so the "
        "interleaved coordinates of one observation never split across "
        "shards");
  }
  WDE_RETURN_IF_ERROR(CheckPrototypeTag(prototype.snapshot_type_tag()));
  std::unique_ptr<SelectivityEstimator> keeper = prototype.CloneEmpty();
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas;
  replicas.reserve(options.shards);
  for (size_t s = 0; s < options.shards; ++s) {
    replicas.push_back(prototype.CloneEmpty());
  }
  return ShardedSelectivityEstimator(options, std::move(keeper),
                                     std::move(replicas));
}

void ShardedSelectivityEstimator::Insert(double x) {
  ++pending_since_merge_;
  const size_t shard = (position_ / options_.block_size) % replicas_.size();
  replicas_[shard]->Insert(x);
  ++position_;
}

void ShardedSelectivityEstimator::InsertBatch(std::span<const double> xs) {
  if (xs.empty()) return;
  pending_since_merge_ += xs.size();
  const size_t K = replicas_.size();
  if (K == 1) {
    replicas_[0]->InsertBatch(xs);
    position_ += xs.size();
    return;
  }
  // Cut the batch at block boundaries and assign each run to its owning
  // shard, purely from (position, block_size, K). Every run lands in shard
  // order inside its per-shard list, so each shard replays its sub-stream in
  // stream order no matter which thread executes it.
  struct Chunk {
    size_t offset;
    size_t len;
  };
  const size_t B = options_.block_size;
  std::vector<std::vector<Chunk>> chunks(K);
  size_t offset = 0;
  size_t pos = position_;
  while (offset < xs.size()) {
    const size_t shard = (pos / B) % K;
    const size_t run = std::min(B - (pos % B), xs.size() - offset);
    chunks[shard].push_back(Chunk{offset, run});
    offset += run;
    pos += run;
  }
  position_ = pos;
  // One task per shard: tasks touch disjoint replicas, so scheduling cannot
  // affect any replica's state — the fixed-K determinism contract.
  pool().ParallelFor(static_cast<int>(K), [&](int s) {
    for (const Chunk& c : chunks[static_cast<size_t>(s)]) {
      replicas_[static_cast<size_t>(s)]->InsertBatch(xs.subspan(c.offset, c.len));
    }
  });
}

std::unique_ptr<SelectivityEstimator> ShardedSelectivityEstimator::BuildMerged()
    const {
  std::unique_ptr<SelectivityEstimator> merged = prototype_->CloneEmpty();
  for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
    // Replicas are clones of one prototype, so the merge cannot be
    // incompatible; a failure here is a broken MergeFrom implementation.
    WDE_CHECK_OK(merged->MergeFrom(*replica));
  }
  return merged;
}

void ShardedSelectivityEstimator::RefreshMerged() const {
  const bool can_tail_merge = options_.refit_mode == RefitMode::kIncremental &&
                              merged_ != nullptr &&
                              merged_hw_.size() == replicas_.size() &&
                              merged_->SupportsTailMerge();
  if (!can_tail_merge) {
    merged_ = BuildMerged();
    merged_hw_.resize(replicas_.size());
    for (size_t s = 0; s < replicas_.size(); ++s) {
      merged_hw_[s] = replicas_[s]->count();
    }
    return;
  }
  // Delta refresh: append each replica's values above the high-water mark to
  // the existing view, then refit the view once. A from-zero rebuild would
  // concatenate whole replicas in shard order, the delta path appends the
  // tails after the previous concatenation — different insertion orders of
  // the same multiset, which tail-mergeable (buffer-keeping) estimators
  // answer bit-identically (their fits depend only on the sorted multiset;
  // see the MergeTailFrom contract). The forced refit mirrors the scratch
  // path's first-query fit at the full count: without it an interval-gated
  // inner refit could keep serving the pre-delta fit and diverge.
  bool appended = false;
  for (size_t s = 0; s < replicas_.size(); ++s) {
    const size_t replica_count = replicas_[s]->count();
    if (replica_count == merged_hw_[s]) continue;
    WDE_CHECK_OK(merged_->MergeTailFrom(*replicas_[s], merged_hw_[s]));
    merged_hw_[s] = replica_count;
    appended = true;
  }
  if (appended) merged_->ForceRefit();
}

std::unique_ptr<SelectivityEstimator>
ShardedSelectivityEstimator::ExtractMergedView() const {
  const bool can_delta = options_.refit_mode == RefitMode::kIncremental &&
                         merged_ != nullptr &&
                         merged_hw_.size() == replicas_.size() &&
                         merged_->SupportsTailMerge();
  if (!can_delta) return BuildMerged();
  // Clone the engine's view copy-on-write and fold each replica's delta into
  // the CLONE, leaving the engine's own view, high-water marks, and pacing
  // budget untouched: extraction must never change what subsequent engine
  // queries answer (the scratch path's from-zero build has no side effects
  // either, and refit_equivalence_test pins the two modes bitwise across
  // schedules that query the engine after an extract). The clone's buffer is
  // [view prefix..., replica tails...] — a different insertion order of the
  // same multiset than the from-zero rebuild, which tail-mergeable
  // (buffer-keeping) estimators answer bit-identically.
  std::unique_ptr<SelectivityEstimator> view = merged_->CloneForView();
  for (size_t s = 0; s < replicas_.size(); ++s) {
    if (replicas_[s]->count() == merged_hw_[s]) continue;
    WDE_CHECK_OK(view->MergeTailFrom(*replicas_[s], merged_hw_[s]));
  }
  return view;
}

SelectivityEstimator& ShardedSelectivityEstimator::Merged() const {
  if (merged_ == nullptr || pending_since_merge_ >= options_.merge_refresh_interval) {
    RefreshMerged();
    pending_since_merge_ = 0;
  }
  return *merged_;
}

void ShardedSelectivityEstimator::ForceRefitImpl() const {
  if (merged_ == nullptr || pending_since_merge_ != 0) {
    RefreshMerged();
    pending_since_merge_ = 0;
  }
  merged_->ForceRefit();
}

double ShardedSelectivityEstimator::EstimateRangeImpl(double a, double b) const {
  return Merged().Answer(Query::Range(a, b));
}

void ShardedSelectivityEstimator::AnswerImpl(std::span<const Query> queries,
                                             std::span<double> out) const {
  SelectivityEstimator& merged = Merged();
  // Warm-up: the first query forces every lazily fitted cache the batch can
  // touch (refit, boundary/prefix rebuild), so the concurrent chunks below
  // are pure reads against the merged view.
  merged.Answer(queries.first(1), out.first(1));
  const size_t rest = queries.size() - 1;
  if (rest == 0) return;
  // Small batches are not worth a dispatch; one serial pass. The threshold
  // affects scheduling only — per-query answers are independent, so any
  // chunking is bit-identical.
  constexpr size_t kMinQueriesPerTask = 32;
  const size_t K = replicas_.size();
  if (K == 1 || rest < 2 * kMinQueriesPerTask) {
    merged.Answer(queries.subspan(1), out.subspan(1));
    return;
  }
  // Contiguous chunks, one per shard-width task — a pure function of
  // (batch size, K), never of the pool schedule.
  const size_t chunk = std::max(kMinQueriesPerTask, (rest + K - 1) / K);
  const auto tasks = static_cast<int>((rest + chunk - 1) / chunk);
  pool().ParallelFor(tasks, [&](int t) {
    const size_t begin = 1 + static_cast<size_t>(t) * chunk;
    const size_t len = std::min(chunk, queries.size() - begin);
    merged.Answer(queries.subspan(begin, len), out.subspan(begin, len));
  });
}

size_t ShardedSelectivityEstimator::count() const {
  size_t total = 0;
  for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
    total += replica->count();
  }
  return total;
}

std::string ShardedSelectivityEstimator::name() const {
  return Format("sharded(%zux%s)", replicas_.size(), prototype_->name().c_str());
}

std::unique_ptr<SelectivityEstimator> ShardedSelectivityEstimator::CloneEmpty()
    const {
  Result<ShardedSelectivityEstimator> clone = Create(*prototype_, options_);
  WDE_CHECK(clone.ok(), "options were valid at construction");
  return std::make_unique<ShardedSelectivityEstimator>(std::move(clone).value());
}

Status ShardedSelectivityEstimator::MergeFrom(const SelectivityEstimator& other) {
  Status peer = CheckMergePeer(other);
  if (!peer.ok()) return peer;
  const auto& rhs = static_cast<const ShardedSelectivityEstimator&>(other);
  if (replicas_.size() != rhs.replicas_.size() ||
      options_.block_size != rhs.options_.block_size) {
    return Status::FailedPrecondition("MergeFrom: shard layout mismatch");
  }
  // Probe replica compatibility once before mutating anything (replicas are
  // homogeneous clones on both sides, so one probe covers all shards); the
  // shard-wise merges below then cannot fail halfway. Probing against rhs's
  // empty prototype keeps this configuration-only — no shard data is copied.
  std::unique_ptr<SelectivityEstimator> probe = prototype_->CloneEmpty();
  Status compatible = probe->MergeFrom(*rhs.prototype_);
  if (!compatible.ok()) return compatible;
  for (size_t s = 0; s < replicas_.size(); ++s) {
    WDE_CHECK_OK(replicas_[s]->MergeFrom(*rhs.replicas_[s]));
  }
  position_ += rhs.position_;
  // Force a from-zero rebuild regardless of the refresh cadence: the
  // shard-wise merges rewrote replica interiors, not tails, so the
  // high-water marks are meaningless too.
  merged_.reset();
  merged_hw_.clear();
  return Status::OK();
}

Status ShardedSelectivityEstimator::SaveStateImpl(
    memory::FastStateWriter& writer) const {
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), replicas_.size()));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), options_.block_size));
  WDE_RETURN_IF_ERROR(
      io::WriteU64(writer.head(), options_.merge_refresh_interval));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), position_));
  WDE_RETURN_IF_ERROR(io::WriteU64(writer.head(), pending_since_merge_));
  // The prototype is an empty configuration keeper — a few hundred bytes —
  // so its envelope lives in the head.
  WDE_RETURN_IF_ERROR(prototype_->SaveState(writer.head()));
  WDE_RETURN_IF_ERROR(io::WriteU8(writer.head(), merged_ != nullptr ? 1 : 0));
  // One U8 column per replica, each holding that estimator's own
  // envelope. base_offset 0: a column starts on a 64-byte boundary of the
  // outer region, so the nested pad computed against offset 0 keeps the
  // nested column region 64-byte aligned whenever the outer one is.
  for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
    io::VectorSink frame;
    WDE_RETURN_IF_ERROR(replica->SaveState(frame));
    writer.AddU8Owned(frame.TakeBytes());
  }
  if (merged_ != nullptr) {
    io::VectorSink frame;
    WDE_RETURN_IF_ERROR(merged_->SaveState(frame));
    writer.AddU8Owned(frame.TakeBytes());
  }
  return Status::OK();
}

Status ShardedSelectivityEstimator::LoadStateImpl(
    memory::FastStateReader& reader) {
  WDE_ASSIGN_OR_RETURN(const uint64_t shards, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t block_size, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t refresh, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t position, io::ReadU64(reader.head()));
  WDE_ASSIGN_OR_RETURN(const uint64_t pending, io::ReadU64(reader.head()));
  if (shards == 0 || shards > 65536 || block_size == 0 || refresh == 0) {
    return Status::InvalidArgument("corrupt sharded state layout");
  }
  WDE_ASSIGN_OR_RETURN(const std::string tag, PeekEnvelopeTag(reader.head()));
  WDE_RETURN_IF_ERROR(CheckPrototypeTag(tag));
  Result<std::unique_ptr<SelectivityEstimator>> prototype =
      LoadEstimatorEnvelope(reader.head());
  if (!prototype.ok()) return prototype.status();
  WDE_ASSIGN_OR_RETURN(const uint8_t has_merged, io::ReadU8(reader.head()));
  if (has_merged > 1 || reader.head().remaining() != 0) {
    return Status::InvalidArgument("corrupt sharded state");
  }
  const memory::Arena& arena = reader.arena();
  if (arena.num_columns() != static_cast<size_t>(shards) + has_merged) {
    return Status::InvalidArgument("corrupt sharded state columns");
  }
  for (const memory::ColumnDesc& column : arena.columns()) {
    if (column.kind != memory::ColumnKind::kU8) {
      return Status::InvalidArgument("corrupt sharded state columns");
    }
  }
  std::vector<std::unique_ptr<SelectivityEstimator>> replicas;
  replicas.reserve(static_cast<size_t>(shards));
  for (uint64_t s = 0; s < shards; ++s) {
    // Pass the arena's storage keepalive down so a replica's own zero-copy
    // borrows (e.g. a KDE sample buffer) anchor the outer storage — the
    // mmapped image, or the reader's heap copy on the in-memory path.
    io::SpanSource column(arena.U8(static_cast<size_t>(s)),
                          arena.storage_keepalive());
    WDE_ASSIGN_OR_RETURN(const std::string replica_tag, PeekEnvelopeTag(column));
    if (replica_tag != tag) {
      return Status::InvalidArgument(
          "corrupt sharded state: heterogeneous shard replicas");
    }
    Result<std::unique_ptr<SelectivityEstimator>> replica =
        LoadEstimatorEnvelope(column);
    if (!replica.ok()) return replica.status();
    if (column.remaining() != 0) {
      return Status::InvalidArgument(
          "corrupt sharded state: trailing replica bytes");
    }
    replicas.push_back(std::move(replica).value());
  }
  std::unique_ptr<SelectivityEstimator> merged;
  if (has_merged != 0) {
    io::SpanSource column(arena.U8(static_cast<size_t>(shards)),
                          arena.storage_keepalive());
    WDE_ASSIGN_OR_RETURN(const std::string merged_tag, PeekEnvelopeTag(column));
    if (merged_tag != tag) {
      return Status::InvalidArgument("corrupt sharded state: merged view mismatch");
    }
    Result<std::unique_ptr<SelectivityEstimator>> loaded =
        LoadEstimatorEnvelope(column);
    if (!loaded.ok()) return loaded.status();
    if (column.remaining() != 0) {
      return Status::InvalidArgument(
          "corrupt sharded state: merged view mismatch");
    }
    merged = std::move(loaded).value();
  }
  // A paced merged view never crosses a restore boundary: when the saved
  // view predates `pending` inserts (legal staleness while the saver was
  // running, bounded by its merge_refresh_interval), serving it in a new
  // process would extend a stale view's lifetime across the restart. Drop it
  // and let the first query rebuild from the replicas — the restored engine
  // answers at least as fresh as the saver, never staler (see Restore()).
  if (pending != 0) merged.reset();
  options_.shards = static_cast<size_t>(shards);
  options_.block_size = static_cast<size_t>(block_size);
  options_.merge_refresh_interval = static_cast<size_t>(refresh);
  prototype_ = std::move(prototype).value();
  replicas_ = std::move(replicas);
  position_ = static_cast<size_t>(position);
  pending_since_merge_ = static_cast<size_t>(pending);
  merged_ = std::move(merged);
  // Re-anchor the delta-refresh marks. A view only survives the restore when
  // pending == 0, i.e. it holds exactly the replica counts.
  merged_hw_.clear();
  if (merged_ != nullptr) {
    merged_hw_.reserve(replicas_.size());
    for (const std::unique_ptr<SelectivityEstimator>& replica : replicas_) {
      merged_hw_.push_back(replica->count());
    }
  }
  return Status::OK();
}

Status ShardedSelectivityEstimator::Checkpoint(const std::string& path) const {
  return SaveEstimatorSnapshotFile(*this, path);
}

Status ShardedSelectivityEstimator::Restore(const std::string& path) {
  // Parse the whole file into a fresh engine through the shared loader —
  // framing, envelope, DIMS, trailing bytes — then commit by swap, so on any
  // error this engine is untouched.
  Result<std::unique_ptr<SelectivityEstimator>> loaded =
      LoadEstimatorSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  if (std::string_view((*loaded)->snapshot_type_tag()) != snapshot_type_tag()) {
    return Status::FailedPrecondition("checkpoint of " + (*loaded)->name() +
                                      " cannot restore into " + name());
  }
  if ((*loaded)->dims() != dims()) {
    return Status::FailedPrecondition(
        "snapshot dimensionality does not match " + name());
  }
  auto& restored = static_cast<ShardedSelectivityEstimator&>(**loaded);
  // The executor pool and the refit mode are runtime knobs, not state: keep
  // ours.
  restored.options_.pool = options_.pool;
  restored.options_.refit_mode = options_.refit_mode;
  *this = std::move(restored);
  return Status::OK();
}

std::unique_ptr<SelectivityEstimator> ShardedSelectivityEstimator::CloneForView()
    const {
  return ExtractMergedView();
}

}  // namespace selectivity
}  // namespace wde
