// Tier-1 tests for the concurrent serving engine (src/serving): epoch
// monotonicity under insert-/time-/explicitly-paced publishing, immutability
// of held views across later publishes (the RCU pinning contract), reader
// answers bit-identical to the quiesced merged view at the same epoch, the
// typed-query result cache's hit/miss/epoch-invalidation semantics and its
// cache-on ≡ cache-off bit-identity, admission batching, and the
// checkpoint → kill → restore → continue cycle including the strict epoch
// bump on restore. The multi-threaded hammering of the same surface lives in
// serving_stress_test.cpp (tsan CI job).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "serving/estimator_service.hpp"
#include "serving/query_cache.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"

namespace wde {
namespace {

constexpr double kNanQ = std::numeric_limits<double>::quiet_NaN();

std::vector<double> UnitStream(uint64_t seed, size_t n) {
  stats::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.UniformDouble();
  return xs;
}

/// A mixed-kind workload with a dirty tail: NaN parameters, an inverted
/// range, an out-of-range quantile — everything the Answer() normalization
/// must absorb identically with and without the cache.
std::vector<selectivity::Query> MixedWorkload(uint64_t seed, size_t count) {
  stats::Rng rng(seed);
  std::vector<selectivity::Query> queries =
      selectivity::MixedQueryWorkload(rng, count, 0.0, 1.0);
  queries.push_back(selectivity::Query::Range(0.8, 0.2));  // inverted
  queries.push_back(selectivity::Query::Point(kNanQ));
  queries.push_back(selectivity::Query::Range(kNanQ, 0.5));
  queries.push_back(selectivity::Query::Quantile(2.5));  // clamps to 1
  queries.push_back(selectivity::Query::Less(-std::numeric_limits<double>::infinity()));
  return queries;
}

selectivity::EstimatorSpec ShardedHistogramSpec() {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "equi-width";
  spec.buckets = 64;
  spec.shards = 3;
  spec.block_size = 256;
  return spec;
}

std::unique_ptr<serving::EstimatorService> MakeService(
    const serving::ServiceOptions& options,
    const selectivity::EstimatorSpec& spec = ShardedHistogramSpec()) {
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(spec, options);
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

std::vector<double> Answers(const serving::EstimatorService& service,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  service.Answer(queries, out);
  return out;
}

std::vector<double> Answers(const selectivity::SelectivityEstimator& estimator,
                            const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  estimator.Answer(queries, out);
  return out;
}

TEST(EstimatorServiceTest, EpochStartsAtOneAndPublishesAreStrictlyMonotone) {
  serving::ServiceOptions options;
  options.publish_interval = 0;  // explicit publishes only
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  EXPECT_EQ(service->epoch(), 1u);
  uint64_t last = service->epoch();
  for (int i = 0; i < 5; ++i) {
    const uint64_t next = service->Publish();
    EXPECT_EQ(next, last + 1);
    EXPECT_EQ(service->epoch(), next);
    last = next;
  }
}

TEST(EstimatorServiceTest, InsertPacedPublishFiresExactlyAtTheInterval) {
  serving::ServiceOptions options;
  options.publish_interval = 1000;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  const std::vector<double> xs = UnitStream(7, 999);
  service->InsertBatch(xs);
  EXPECT_EQ(service->epoch(), 1u);  // one short of the pacing budget
  service->Insert(0.5);
  EXPECT_EQ(service->epoch(), 2u);
  // The published view contains everything admitted before the publish.
  EXPECT_EQ(service->CurrentView().estimator->count(), 1000u);
}

TEST(EstimatorServiceTest, StalenessBudgetPublishesOnNextAdmission) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.max_staleness_ms = 1;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  service->Insert(0.25);  // within budget: epoch may or may not have advanced
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t before = service->epoch();
  service->Insert(0.75);  // view is now over budget: must publish
  EXPECT_GT(service->epoch(), before);
}

TEST(EstimatorServiceTest, HeldViewsAreImmutableAcrossLaterPublishes) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  const std::vector<selectivity::Query> queries = MixedWorkload(11, 64);

  service->InsertBatch(UnitStream(12, 4000));
  service->Publish();
  const serving::EstimatorService::View held = service->CurrentView();
  const std::vector<double> before = Answers(*held.estimator, queries);

  service->InsertBatch(UnitStream(13, 4000));
  service->Publish();
  service->InsertBatch(UnitStream(14, 4000));
  service->Publish();

  // The pinned epoch still answers bit-identically; the current epoch moved
  // on to a view over more data.
  EXPECT_EQ(Answers(*held.estimator, queries), before);
  EXPECT_GT(service->CurrentView().epoch, held.epoch);
  EXPECT_EQ(held.estimator->count(), 4000u);
  EXPECT_EQ(service->CurrentView().estimator->count(), 12000u);
}

// Non-sharded writers publish through CloneForView: the view shares the
// writer's fitted arenas copy-on-write. Continuing to ingest into the writer
// must un-share — never mutate — the held view's storage, and the next
// publish must reflect the new data.
TEST(EstimatorServiceTest, CowClonedViewsStayBitStableWhileWriterMutates) {
  const std::vector<selectivity::Query> queries = MixedWorkload(21, 64);
  for (const char* tag :
       {"equi-width", "equi-depth", "wavelet-cv", "kde-rot", "haar-synopsis",
        "reservoir"}) {
    SCOPED_TRACE(tag);
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    serving::ServiceOptions options;
    options.publish_interval = 0;
    std::unique_ptr<serving::EstimatorService> service =
        MakeService(options, spec);

    service->InsertBatch(UnitStream(22, 4000));
    service->Publish();
    const serving::EstimatorService::View held = service->CurrentView();
    const std::vector<double> before = Answers(*held.estimator, queries);

    // Hammer the writer's shared arenas after the publish: more inserts, a
    // forced refit (publish), more inserts again.
    service->InsertBatch(UnitStream(23, 4000));
    service->Publish();
    service->InsertBatch(UnitStream(24, 4000));
    service->Publish();

    EXPECT_EQ(Answers(*held.estimator, queries), before);
    EXPECT_EQ(held.estimator->count(), 4000u);
    const serving::EstimatorService::View current = service->CurrentView();
    EXPECT_GT(current.epoch, held.epoch);
    EXPECT_EQ(current.estimator->count(), 12000u);
  }
}

TEST(EstimatorServiceTest, ReaderAnswersMatchQuiescedMergedViewAtSameEpoch) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  const std::vector<double> xs = UnitStream(21, 9000);
  service->InsertBatch(xs);
  service->Publish();

  // A quiesced reference: the same sharded configuration ingested the same
  // stream; its merged view is the ground truth for the published epoch.
  selectivity::EstimatorSpec spec = ShardedHistogramSpec();
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> reference =
      selectivity::MakeEstimator(spec);
  ASSERT_TRUE(reference.ok());
  (*reference)->InsertBatch(xs);

  const std::vector<selectivity::Query> queries = MixedWorkload(22, 128);
  const std::vector<double> via_service = Answers(*service, queries);
  const std::vector<double> via_view =
      Answers(*service->CurrentView().estimator, queries);
  const std::vector<double> via_reference = Answers(**reference, queries);
  EXPECT_EQ(via_service, via_view);
  EXPECT_EQ(via_service, via_reference);
}

TEST(EstimatorServiceTest, CacheHitsMissesAndEpochInvalidation) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.cache_shards = 4;
  options.cache_slots_per_shard = 1024;
  std::unique_ptr<serving::EstimatorService> service = MakeService(options);
  service->InsertBatch(UnitStream(31, 3000));
  service->Publish();

  const std::vector<selectivity::Query> queries = MixedWorkload(32, 50);
  const std::vector<double> first = Answers(*service, queries);
  const serving::CacheStats after_first = service->cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, queries.size());

  // Same batch again: every answer must come from the cache, bit-identically.
  const std::vector<double> second = Answers(*service, queries);
  const serving::CacheStats after_second = service->cache_stats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(after_second.hits, queries.size());
  EXPECT_EQ(after_second.misses, queries.size());

  // Publishing a new epoch invalidates every entry — all misses again, and
  // (same data, no inserts in between) the same bitwise answers.
  service->Publish();
  const std::vector<double> third = Answers(*service, queries);
  const serving::CacheStats after_third = service->cache_stats();
  EXPECT_EQ(third, first);
  EXPECT_EQ(after_third.hits, queries.size());
  EXPECT_EQ(after_third.misses, 2 * queries.size());
}

TEST(EstimatorServiceTest, CacheOnAnswersEqualCacheOffBitwise) {
  serving::ServiceOptions cached;
  cached.publish_interval = 500;
  serving::ServiceOptions uncached = cached;
  uncached.cache_shards = 0;
  std::unique_ptr<serving::EstimatorService> with_cache = MakeService(cached);
  std::unique_ptr<serving::EstimatorService> without_cache =
      MakeService(uncached);

  const std::vector<double> xs = UnitStream(41, 5000);
  with_cache->InsertBatch(xs);
  without_cache->InsertBatch(xs);
  const std::vector<selectivity::Query> queries = MixedWorkload(42, 200);
  // Two passes so the second pass serves mostly from cache.
  EXPECT_EQ(Answers(*with_cache, queries), Answers(*without_cache, queries));
  EXPECT_EQ(Answers(*with_cache, queries), Answers(*without_cache, queries));
  EXPECT_GT(with_cache->cache_stats().hits, 0u);
}

TEST(EstimatorServiceTest, CheckpointRestoreContinueMatchesUninterrupted) {
  const std::string path = testing::TempDir() + "/wde_service_checkpoint.snap";
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  const std::vector<double> xs = UnitStream(51, 20000);
  const std::span<const double> all(xs);

  std::unique_ptr<serving::EstimatorService> uninterrupted =
      MakeService(options);
  uninterrupted->InsertBatch(all);
  uninterrupted->Publish();

  uint64_t checkpoint_epoch = 0;
  {
    std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
    leader->InsertBatch(all.first(9000));
    checkpoint_epoch = leader->epoch();
    ASSERT_TRUE(leader->Checkpoint(path).ok());
  }  // leader "killed"

  std::unique_ptr<serving::EstimatorService> standby = MakeService(options);
  ASSERT_TRUE(standby->Restore(path).ok());
  EXPECT_GT(standby->epoch(), checkpoint_epoch);  // the epoch bump on restore
  EXPECT_EQ(standby->count(), 9000u);
  standby->InsertBatch(all.subspan(9000));
  standby->Publish();

  const std::vector<selectivity::Query> queries = MixedWorkload(52, 128);
  EXPECT_EQ(standby->count(), uninterrupted->count());
  EXPECT_EQ(Answers(*standby, queries), Answers(*uninterrupted, queries));
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, RestoreEpochExceedsBothHistories) {
  const std::string path = testing::TempDir() + "/wde_service_epochs.snap";
  serving::ServiceOptions options;
  options.publish_interval = 0;

  std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
  leader->InsertBatch(UnitStream(61, 1000));
  for (int i = 0; i < 3; ++i) leader->Publish();
  const uint64_t leader_epoch = leader->epoch();
  ASSERT_TRUE(leader->Checkpoint(path).ok());

  // A standby that has already published PAST the leader's epoch: restore
  // must land strictly above both, so neither side's cached results or held
  // views can collide with post-restore epochs.
  std::unique_ptr<serving::EstimatorService> busy_standby = MakeService(options);
  for (int i = 0; i < 9; ++i) busy_standby->Publish();
  const uint64_t standby_epoch = busy_standby->epoch();
  ASSERT_GT(standby_epoch, leader_epoch);
  ASSERT_TRUE(busy_standby->Restore(path).ok());
  EXPECT_GT(busy_standby->epoch(), standby_epoch);

  // A fresh standby restores to exactly leader_epoch + 1.
  std::unique_ptr<serving::EstimatorService> fresh_standby =
      MakeService(options);
  ASSERT_TRUE(fresh_standby->Restore(path).ok());
  EXPECT_EQ(fresh_standby->epoch(), leader_epoch + 1);
  EXPECT_EQ(fresh_standby->count(), 1000u);
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, RestoreRejectsCorruptCheckpointsUntouched) {
  const std::string path = testing::TempDir() + "/wde_service_corrupt.snap";
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
  leader->InsertBatch(UnitStream(71, 500));
  ASSERT_TRUE(leader->Checkpoint(path).ok());

  // Truncate the checkpoint; Restore must fail and change nothing.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_EQ(std::fclose(f), 0);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  std::unique_ptr<serving::EstimatorService> target = MakeService(options);
  target->InsertBatch(UnitStream(72, 50));
  const uint64_t epoch_before = target->Publish();
  EXPECT_FALSE(target->Restore(path).ok());
  EXPECT_EQ(target->count(), 50u);
  EXPECT_EQ(target->epoch(), epoch_before);
  std::remove(path.c_str());
}

selectivity::EstimatorSpec Sharded2dSpec(const std::string& inner) {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = inner;
  spec.dims = 2;
  spec.grid_log2 = 5;
  spec.refit_interval = 512;
  spec.shards = 3;
  spec.block_size = 256;
  return spec;
}

std::vector<selectivity::Query> RectWorkload() {
  std::vector<selectivity::Query> queries;
  for (int i = 0; i < 8; ++i) {
    const double lo = 0.1 * i;
    queries.push_back(selectivity::Query::Rect(lo, lo + 0.3, 0.2, 0.9));
    queries.push_back(selectivity::Query::Marginal(1, lo, lo + 0.25));
    queries.push_back(selectivity::Query::Conditional(lo, lo + 0.2, 0.0, 0.5));
    queries.push_back(selectivity::Query::Range(lo, lo + 0.15));
  }
  return queries;
}

TEST(EstimatorServiceTest, ShardedTwoDimensionalCheckpointsRestoreEverywhere) {
  // A 2-D sharded checkpoint restores through all three entry points — the
  // service, the engine's own Restore, and the registry file loader — to the
  // checkpointed view's answers, bitwise.
  const std::string service_path = testing::TempDir() + "/wde_service_2d.snap";
  const std::string engine_path = testing::TempDir() + "/wde_engine_2d.snap";
  const std::vector<selectivity::Query> queries = RectWorkload();
  serving::ServiceOptions options;
  options.publish_interval = 0;
  for (const std::string inner : {"grid2d", "kde2d-prod"}) {
    SCOPED_TRACE(inner);
    const selectivity::EstimatorSpec spec = Sharded2dSpec(inner);
    const std::vector<double> stream = UnitStream(95, 6000);

    std::unique_ptr<serving::EstimatorService> leader = MakeService(options, spec);
    leader->InsertBatch(stream);
    leader->Publish();
    const std::vector<double> checkpointed =
        Answers(*leader->CurrentView().estimator, queries);
    ASSERT_TRUE(leader->Checkpoint(service_path).ok());
    std::unique_ptr<serving::EstimatorService> standby = MakeService(options, spec);
    const Status restored = standby->Restore(service_path);
    ASSERT_TRUE(restored.ok()) << restored.ToString();
    EXPECT_EQ(standby->count(), leader->count());
    EXPECT_EQ(Answers(*standby, queries), checkpointed);

    std::unique_ptr<selectivity::SelectivityEstimator> engine =
        *selectivity::MakeEstimator(spec);
    engine->InsertBatch(stream);
    auto& sharded = static_cast<selectivity::ShardedSelectivityEstimator&>(*engine);
    ASSERT_TRUE(sharded.Checkpoint(engine_path).ok());
    std::unique_ptr<selectivity::SelectivityEstimator> target =
        *selectivity::MakeEstimator(spec);
    auto& target_sharded =
        static_cast<selectivity::ShardedSelectivityEstimator&>(*target);
    const Status engine_restored = target_sharded.Restore(engine_path);
    ASSERT_TRUE(engine_restored.ok()) << engine_restored.ToString();
    EXPECT_EQ(Answers(target_sharded, queries), checkpointed);

    Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
        selectivity::LoadEstimatorSnapshotFile(engine_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->dims(), 2);
    EXPECT_EQ(Answers(**loaded, queries), checkpointed);
  }
  std::remove(service_path.c_str());
  std::remove(engine_path.c_str());
}

TEST(EstimatorServiceTest, DimensionalityMismatchIsRejectedUntouched) {
  const std::string path = testing::TempDir() + "/wde_service_dims.snap";
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> leader =
      MakeService(options, Sharded2dSpec("grid2d"));
  leader->InsertBatch(UnitStream(96, 2000));
  ASSERT_TRUE(leader->Checkpoint(path).ok());

  // A 1-D service refuses the 2-D checkpoint and keeps serving its own state.
  std::unique_ptr<serving::EstimatorService> target = MakeService(options);
  target->InsertBatch(UnitStream(97, 300));
  const uint64_t epoch_before = target->Publish();
  const std::vector<selectivity::Query> queries = MixedWorkload(98, 32);
  const std::vector<double> answers_before = Answers(*target, queries);
  EXPECT_FALSE(target->Restore(path).ok());
  EXPECT_EQ(target->count(), 300u);
  EXPECT_EQ(target->epoch(), epoch_before);
  EXPECT_EQ(Answers(*target, queries), answers_before);

  // So does a 1-D sharded engine, through its own Restore.
  std::unique_ptr<selectivity::SelectivityEstimator> engine =
      *selectivity::MakeEstimator(ShardedHistogramSpec());
  engine->InsertBatch(UnitStream(99, 300));
  auto& sharded = static_cast<selectivity::ShardedSelectivityEstimator&>(*engine);
  ASSERT_TRUE(static_cast<selectivity::ShardedSelectivityEstimator&>(
                  *selectivity::MakeEstimator(Sharded2dSpec("grid2d")).value())
                  .Checkpoint(path)
                  .ok());
  const std::vector<double> engine_before = Answers(sharded, queries);
  EXPECT_FALSE(sharded.Restore(path).ok());
  EXPECT_EQ(sharded.count(), 300u);
  EXPECT_EQ(Answers(sharded, queries), engine_before);
  std::remove(path.c_str());
}

int FailRename(const char* from, const char* to) {
  (void)from;
  (void)to;
  return -1;
}

TEST(EstimatorServiceTest, FailedCheckpointKeepsThePreviousOne) {
  const std::string path = testing::TempDir() + "/wde_service_durable.snap";
  serving::ServiceOptions options;
  options.publish_interval = 0;
  std::unique_ptr<serving::EstimatorService> leader = MakeService(options);
  leader->InsertBatch(UnitStream(101, 700));
  ASSERT_TRUE(leader->Checkpoint(path).ok());

  leader->InsertBatch(UnitStream(102, 700));
  io::internal::rename_file = &FailRename;
  const Status failed = leader->Checkpoint(path);
  io::internal::rename_file = &std::rename;
  EXPECT_FALSE(failed.ok());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  // The previous checkpoint is intact: it restores to the first 700 values.
  std::unique_ptr<serving::EstimatorService> standby = MakeService(options);
  ASSERT_TRUE(standby->Restore(path).ok());
  EXPECT_EQ(standby->count(), 700u);
  std::remove(path.c_str());
}

TEST(EstimatorServiceTest, ServesAnUnshardedReservoirWriter) {
  // The service publishes through CloneForView alone, so a bare (unsharded)
  // reservoir writer is served like the sharded production configuration.
  selectivity::EstimatorSpec spec;
  spec.tag = "reservoir";
  spec.capacity = 256;
  spec.seed = 9;
  serving::ServiceOptions options;
  options.publish_interval = 512;
  std::unique_ptr<serving::EstimatorService> service =
      MakeService(options, spec);
  service->InsertBatch(UnitStream(91, 2000));
  service->Publish();
  const std::vector<selectivity::Query> queries = MixedWorkload(92, 64);
  const std::vector<double> via_service = Answers(*service, queries);
  EXPECT_EQ(via_service, Answers(*service->CurrentView().estimator, queries));
}

TEST(EstimatorServiceTest, CreateValidatesWriterAndOptions) {
  EXPECT_FALSE(
      serving::EstimatorService::Create(nullptr, serving::ServiceOptions{})
          .ok());
  serving::ServiceOptions no_slots;
  no_slots.cache_shards = 2;
  no_slots.cache_slots_per_shard = 0;
  EXPECT_FALSE(
      serving::EstimatorService::Create(ShardedHistogramSpec(), no_slots).ok());
  serving::ServiceOptions negative_staleness;
  negative_staleness.max_staleness_ms = -5;
  EXPECT_FALSE(serving::EstimatorService::Create(ShardedHistogramSpec(),
                                                 negative_staleness)
                   .ok());
  selectivity::EstimatorSpec bad_spec;
  bad_spec.tag = "no-such-estimator";
  EXPECT_FALSE(
      serving::EstimatorService::Create(bad_spec, serving::ServiceOptions{})
          .ok());
}

TEST(QueryResultCacheTest, KeysHashAndCompareBitwise) {
  const selectivity::Query a = selectivity::Query::Range(0.1, 0.9);
  const selectivity::Query b = selectivity::Query::Range(0.1, 0.9);
  const selectivity::Query c = selectivity::Query::Cdf(0.1);
  EXPECT_TRUE(serving::QueryKeyEquals(a, b));
  EXPECT_EQ(serving::QueryKeyHash(a), serving::QueryKeyHash(b));
  EXPECT_FALSE(serving::QueryKeyEquals(a, c));
  // NaN payloads are honest keys (bit-pattern identity, not ==).
  const selectivity::Query nan1 = selectivity::Query::Point(kNanQ);
  const selectivity::Query nan2 = selectivity::Query::Point(kNanQ);
  EXPECT_TRUE(serving::QueryKeyEquals(nan1, nan2));
  // ±0.0 are distinct keys even though they compare == as doubles.
  EXPECT_FALSE(serving::QueryKeyEquals(selectivity::Query::Cdf(0.0),
                                       selectivity::Query::Cdf(-0.0)));
}

TEST(QueryResultCacheTest, LookupInsertAndEpochSemantics) {
  serving::QueryResultCache cache(2, 100);  // rounds up to 128 slots
  EXPECT_EQ(cache.slots_per_shard(), 128u);
  const selectivity::Query q = selectivity::Query::Less(0.3);
  double out = 0.0;
  EXPECT_FALSE(cache.Lookup(q, 1, &out));
  cache.Insert(q, 1, 0.25);
  ASSERT_TRUE(cache.Lookup(q, 1, &out));
  EXPECT_EQ(out, 0.25);
  // A different epoch never hits, in either direction.
  EXPECT_FALSE(cache.Lookup(q, 2, &out));
  cache.Insert(q, 2, 0.5);
  ASSERT_TRUE(cache.Lookup(q, 2, &out));
  EXPECT_EQ(out, 0.5);
  EXPECT_FALSE(cache.Lookup(q, 1, &out));
  // Epoch 0 is the reserved empty tag: inserts are ignored, lookups miss.
  cache.Insert(q, 0, 0.75);
  EXPECT_FALSE(cache.Lookup(q, 0, &out));
  const serving::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
}

}  // namespace
}  // namespace wde
