// Concurrency stress suite for the serving engine, designed to run under
// ThreadSanitizer (the tsan CI preset includes it by name). N writer threads
// ingest and publish while M reader threads answer mixed batches, pin views,
// and re-answer through them; a checkpointer thread snapshots and a standby
// restores mid-traffic. The assertions are the invariants tsan cannot see:
// per-reader epoch monotonicity, served answers equal to the view of the
// epoch they were served at (cache or not), and answers through a HELD view
// staying bit-identical no matter how many publishes happen in between and
// after every writer has quiesced (the RCU immutability contract). A sharded
// kde2d-prod schedule covers the 2-D query kinds and the quadtree each
// published view shares with readers, and a cache-level case hammers a few
// colliding slots. Every schedule runs over a deterministic seed matrix so
// failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "serving/estimator_service.hpp"
#include "serving/query_cache.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"

namespace wde {
namespace {

selectivity::EstimatorSpec ShardedHistogramSpec() {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "equi-width";
  spec.buckets = 64;
  spec.shards = 3;
  spec.block_size = 128;
  return spec;
}

/// The 2-D case: every published view refits the merged kde2d-prod view and
/// rebuilds its shared quadtree, which readers then walk concurrently.
selectivity::EstimatorSpec ShardedKde2dSpec() {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = "kde2d-prod";
  spec.dims = 2;
  spec.shards = 4;
  spec.block_size = 128;
  spec.refit_interval = 256;
  return spec;
}

/// Rect, marginal (either axis) and conditional queries over [0, 1]^2.
std::vector<selectivity::Query> MultiDimQueries(stats::Rng& rng, size_t count) {
  std::vector<selectivity::Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double a = rng.UniformDouble(), b = rng.UniformDouble();
    double c = rng.UniformDouble(), d = rng.UniformDouble();
    if (b < a) std::swap(a, b);
    if (d < c) std::swap(c, d);
    switch (i % 4) {
      case 0:
        queries.push_back(selectivity::Query::Rect(a, b, c, d));
        break;
      case 1:
        queries.push_back(selectivity::Query::Marginal(0, a, b));
        break;
      case 2:
        queries.push_back(selectivity::Query::Marginal(1, c, d));
        break;
      default:
        queries.push_back(selectivity::Query::Conditional(a, b, c, d));
        break;
    }
  }
  return queries;
}

std::unique_ptr<serving::EstimatorService> MakeService(
    const selectivity::EstimatorSpec& spec,
    const serving::ServiceOptions& options) {
  Result<std::unique_ptr<serving::EstimatorService>> service =
      serving::EstimatorService::Create(spec, options);
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

std::vector<double> AnswersOf(const selectivity::SelectivityEstimator& view,
                              const std::vector<selectivity::Query>& queries) {
  std::vector<double> out(queries.size());
  view.Answer(queries, out);
  return out;
}

/// A batch a reader answered through a held view, replayed through the same
/// view once every writer has stopped.
struct PinnedSample {
  serving::EstimatorService::View view;
  std::vector<selectivity::Query> queries;
  std::vector<double> answers;
};

/// One full schedule: `writers` ingest threads racing `readers` answer
/// threads (plus an optional checkpoint/restore thread) over one service.
/// Readers check epoch monotonicity, served-vs-view equality and held-view
/// bit-stability inline and keep every 8th batch for a replay after
/// quiesce; failures are counted atomically and asserted on the joined
/// thread, because gtest EXPECT_* is not thread-safe.
void RunSchedule(uint64_t seed, int writers, int readers,
                 bool with_checkpointer, const serving::ServiceOptions& options,
                 int batches_per_reader,
                 const selectivity::EstimatorSpec& spec = ShardedHistogramSpec()) {
  std::unique_ptr<serving::EstimatorService> service =
      MakeService(spec, options);
  const bool two_d = spec.dims == 2;
  std::atomic<uint64_t> epoch_regressions{0};
  std::atomic<uint64_t> held_view_divergences{0};
  std::atomic<uint64_t> served_divergences{0};
  std::atomic<bool> stop_writers{false};
  std::vector<std::vector<PinnedSample>> samples(static_cast<size_t>(readers));

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(writers + readers) + 1);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      stats::Rng rng(seed * 1000003 + static_cast<uint64_t>(w));
      // 2-D blocks hold whole (x, y) observations.
      std::vector<double> block(two_d ? 256 : 257);
      while (!stop_writers.load(std::memory_order_relaxed)) {
        for (double& x : block) x = rng.UniformDouble();
        service->InsertBatch(block);
        if (rng.UniformDouble() < 0.05) service->Publish();
      }
    });
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      stats::Rng rng(seed * 2000003 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      for (int b = 0; b < batches_per_reader; ++b) {
        const std::vector<selectivity::Query> queries =
            two_d ? MultiDimQueries(rng, 32)
                  : selectivity::MixedQueryWorkload(rng, 32, 0.0, 1.0);
        std::vector<double> out(queries.size());
        const uint64_t epoch_before = service->epoch();
        service->Answer(queries, out);
        const serving::EstimatorService::View held = service->CurrentView();
        if (held.epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = held.epoch;
        // The pinned view must answer bit-identically now and after many
        // more concurrent publishes have retired it.
        const std::vector<double> first = AnswersOf(*held.estimator, queries);
        // No publish between the two epoch reads: the batch was served at
        // the held view's epoch, from cache or not, so it must equal it.
        if (held.epoch == epoch_before && out != first) {
          served_divergences.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
        if (AnswersOf(*held.estimator, queries) != first) {
          held_view_divergences.fetch_add(1, std::memory_order_relaxed);
        }
        if (b % 8 == 0) {
          samples[static_cast<size_t>(r)].push_back(
              PinnedSample{held, queries, first});
        }
      }
    });
  }
  if (with_checkpointer) {
    threads.emplace_back([&] {
      const std::string path = testing::TempDir() + "/wde_stress_" +
                               std::to_string(seed) + ".snap";
      std::unique_ptr<serving::EstimatorService> standby =
          MakeService(spec, options);
      for (int i = 0; i < 4; ++i) {
        WDE_CHECK(service->Checkpoint(path).ok(), "stress checkpoint failed");
        // Warm-standby restore races the leader's writers and publishes.
        WDE_CHECK(standby->Restore(path).ok(), "stress restore failed");
        std::this_thread::yield();
      }
      std::remove(path.c_str());
    });
  }

  // Readers decide the schedule length; writers spin until they finish.
  for (size_t t = threads.size(); t-- > static_cast<size_t>(writers);) {
    threads[t].join();
    threads.pop_back();
  }
  stop_writers.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  size_t replay_divergences = 0;
  for (const std::vector<PinnedSample>& per_reader : samples) {
    for (const PinnedSample& sample : per_reader) {
      if (AnswersOf(*sample.view.estimator, sample.queries) != sample.answers) {
        ++replay_divergences;
      }
    }
  }
  EXPECT_EQ(epoch_regressions.load(), 0u) << "seed " << seed;
  EXPECT_EQ(held_view_divergences.load(), 0u) << "seed " << seed;
  EXPECT_EQ(served_divergences.load(), 0u) << "seed " << seed;
  EXPECT_EQ(replay_divergences, 0u) << "seed " << seed;
  EXPECT_GE(service->epoch(), 1u);
}

TEST(ServingStressTest, WritersVersusCachedReaders) {
  serving::ServiceOptions options;
  options.publish_interval = 2048;
  options.cache_shards = 4;
  options.cache_slots_per_shard = 512;
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunSchedule(seed, /*writers=*/2, /*readers=*/3,
                /*with_checkpointer=*/false, options,
                /*batches_per_reader=*/60);
  }
}

TEST(ServingStressTest, WritersVersusUncachedReaders) {
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  options.cache_shards = 0;  // every answer goes to the view
  for (uint64_t seed : {4u, 5u}) {
    RunSchedule(seed, /*writers=*/3, /*readers=*/2,
                /*with_checkpointer=*/false, options,
                /*batches_per_reader=*/60);
  }
}

TEST(ServingStressTest, CheckpointAndRestoreRaceTraffic) {
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  options.cache_shards = 2;
  options.cache_slots_per_shard = 256;
  for (uint64_t seed : {6u, 7u}) {
    RunSchedule(seed, /*writers=*/2, /*readers=*/2,
                /*with_checkpointer=*/true, options,
                /*batches_per_reader=*/40);
  }
}

TEST(ServingStressTest, ShardedKde2dWritersVersusMultiDimReaders) {
  // Writers refit and publish sharded kde2d-prod views while readers answer
  // rect, marginal and conditional queries through the shared quadtree.
  serving::ServiceOptions options;
  options.publish_interval = 1024;
  options.cache_shards = 0;  // every answer walks the view's quadtree
  for (uint64_t seed : {9u, 10u}) {
    RunSchedule(seed, /*writers=*/2, /*readers=*/3,
                /*with_checkpointer=*/false, options,
                /*batches_per_reader=*/30, ShardedKde2dSpec());
  }
}

TEST(ServingStressTest, TimePacedPublishesUnderTrickleIngest) {
  serving::ServiceOptions options;
  options.publish_interval = 0;
  options.max_staleness_ms = 1;  // every admission is effectively over budget
  options.cache_shards = 2;
  options.cache_slots_per_shard = 256;
  RunSchedule(/*seed=*/8, /*writers=*/2, /*readers=*/2,
              /*with_checkpointer=*/false, options,
              /*batches_per_reader=*/40);
}

TEST(ServingStressTest, CollidingSlotsNeverServeAnotherKeysValue) {
  // Two slots under 16 keys, so every store overwrites a slot readers are
  // probing. Each value is a function of its key and epoch; two threads
  // store and two probe, and a hit must always return its own key's value,
  // never a torn or neighbouring entry. Every probe counts exactly once.
  constexpr int kRounds = 200000;
  constexpr size_t kKeys = 16;
  constexpr uint64_t kEpochs = 2;
  serving::QueryResultCache cache(1, 2);
  std::vector<selectivity::Query> keys;
  for (size_t i = 0; i < kKeys; ++i) {
    const double x = static_cast<double>(i) / kKeys;
    keys.push_back(i % 2 == 0 ? selectivity::Query::Range(x, x + 0.5)
                              : selectivity::Query::Rect(x, 1.0, 0.0, x));
  }
  const auto value_of = [](size_t key, uint64_t epoch) {
    return static_cast<double>(key) + 0.25 * static_cast<double>(epoch);
  };
  std::atomic<uint64_t> wrong_values{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> probes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      stats::Rng rng(500 + static_cast<uint64_t>(t));
      uint64_t own_hits = 0;
      for (int i = 0; i < kRounds; ++i) {
        const size_t key = static_cast<size_t>(rng.UniformDouble() * kKeys) % kKeys;
        const uint64_t epoch = 1 + static_cast<uint64_t>(i) % kEpochs;
        if (t % 2 == 0) {
          cache.Insert(keys[key], epoch, value_of(key, epoch));
          continue;
        }
        double out = -1.0;
        if (cache.Lookup(keys[key], epoch, &out)) {
          ++own_hits;
          if (out != value_of(key, epoch)) {
            wrong_values.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      hits.fetch_add(own_hits);
      if (t % 2 == 1) probes.fetch_add(kRounds);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  const serving::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses + stats.lookup_bypasses, probes.load());
}

}  // namespace
}  // namespace wde
