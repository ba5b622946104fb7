// Shard-scaling bench for the sharded parallel ingest/query engine: ingest a
// large uniform stream into the adaptive wavelet sketch and answer a range
// workload, sequentially and through ShardedSelectivityEstimator at several
// shard counts (one pool thread per shard). Produces the committed
// BENCH_shard_scaling.json artifact (see docs/BENCHMARKS.md): per-row
// shards/threads metadata, items/second, speedup vs the sequential baseline,
// plus the determinism evidence — max absolute error of sharded vs
// sequential answers (contract: <= 1e-12; selectivities lie in [0, 1], see
// MaxAbsError) and bit-identity of fixed-K
// answers across pool widths.
//
// Plain steady_clock timing, best of --repeats runs, so the binary builds
// everywhere and CI can always produce the artifact. Parallel speedup
// requires physical cores; the "host" block records hardware_concurrency so
// flat curves on small containers are self-explaining.
//
// Usage: perf_sharded [--n=1000000] [--queries=1024] [--shards=1,2,4,8]
//                     [--repeats=3] [--out=BENCH_shard_scaling.json] [--check]
//
// --check turns the two correctness fields into a gate: exit 1 if any row
// violates max_abs_error_vs_sequential <= 1e-12 or loses fixed-K
// bit-identity across pool widths (CI runs with --check so the determinism
// contract is enforced at production scale, not just at test sizes).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "parallel/thread_pool.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

constexpr size_t kIngestChunk = 65536;  // production-style batched ingest
constexpr size_t kShardBlock = 4096;    // ShardedSelectivityEstimator blocks

const wavelet::WaveletBasis& Sym8Basis() {
  static const wavelet::WaveletBasis basis = []() {
    Result<wavelet::WaveletBasis> b =
        wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
    WDE_CHECK(b.ok());
    return *b;
  }();
  return basis;
}

selectivity::StreamingWaveletSelectivity MakeSketch(size_t refit_interval) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 11;
  options.refit_interval = refit_interval;
  return *selectivity::StreamingWaveletSelectivity::Create(Sym8Basis(), options);
}

struct RunResult {
  double seconds = 0.0;
  std::vector<double> answers;
};

/// Ingests the stream in kIngestChunk batches and answers the query batch,
/// timing the whole insert+query workload.
template <typename Estimator>
RunResult RunWorkload(Estimator& estimator, const std::vector<double>& stream,
                      const std::vector<selectivity::Query>& queries) {
  RunResult result;
  result.answers.resize(queries.size());
  const auto start = std::chrono::steady_clock::now();
  const std::span<const double> all(stream);
  for (size_t offset = 0; offset < all.size(); offset += kIngestChunk) {
    estimator.InsertBatch(all.subspan(offset, std::min(kIngestChunk, all.size() - offset)));
  }
  estimator.Answer(queries, result.answers);
  result.seconds = bench::perf::SecondsSince(start);
  return result;
}

// Selectivity answers lie in [0, 1], so the determinism contract
// |merged − sequential| <= 1e-12 · max(1, |sequential|) — the same floored
// criterion the tier1 merge tests assert — reduces to plain absolute error
// here. Reported (and gated) as such; calling it "relative" would overstate
// the bound for small selectivities.
double MaxAbsError(const std::vector<double>& got, const std::vector<double>& want) {
  double max_abs = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(got[i] - want[i]));
  }
  return max_abs;
}

struct Row {
  std::string mode;
  size_t shards = 0;
  int threads = 1;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double speedup = 1.0;
  double max_abs_error = 0.0;
  bool bit_identical_across_pool_widths = true;
};

std::vector<size_t> ShardListFlag(int argc, char** argv) {
  const std::string spec = ArgString(argc, argv, "shards", "1,2,4,8");
  std::vector<size_t> shards;
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(pos, comma == std::string::npos
                                                   ? std::string::npos
                                                   : comma - pos);
    if (!token.empty()) {
      shards.push_back(static_cast<size_t>(std::strtoull(token.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  WDE_CHECK(!shards.empty(), "--shards must name at least one shard count");
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 1000000);
  const size_t query_count = ArgSize(argc, argv, "queries", 1024);
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 3));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_shard_scaling.json");
  const std::vector<size_t> shard_counts = ShardListFlag(argc, argv);
  // n/4 keeps periodic refits in the workload while landing the final refit
  // exactly at n, so sequential and merged answers reconstruct from the same
  // full-count sums and the 1e-12 contract is observable in the artifact.
  const size_t refit_interval = std::max<size_t>(1, n / 4);

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();
  stats::Rng query_rng(5);
  const std::vector<selectivity::Query> queries = selectivity::AsRangeQueries(
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02, 0.3));

  const double total_items = static_cast<double>(n + queries.size());
  std::vector<Row> rows;

  // Sequential baseline: the plain streaming sketch through the batch paths.
  RunResult sequential;
  {
    double best = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      selectivity::StreamingWaveletSelectivity sketch = MakeSketch(refit_interval);
      RunResult run = RunWorkload(sketch, stream, queries);
      if (r == 0 || run.seconds < best) {
        best = run.seconds;
        sequential = std::move(run);
      }
    }
    Row row;
    row.mode = "sequential";
    row.shards = 0;
    row.threads = 1;
    row.seconds = sequential.seconds;
    row.items_per_second = total_items / sequential.seconds;
    rows.push_back(row);
    std::printf("sequential: %.3fs  %.3g items/s\n", sequential.seconds,
                row.items_per_second);
  }

  const auto run_sharded = [&](size_t shards, parallel::ThreadPool* pool) {
    const selectivity::StreamingWaveletSelectivity prototype =
        MakeSketch(refit_interval);
    selectivity::ShardedSelectivityEstimator::Options options;
    options.shards = shards;
    options.block_size = kShardBlock;
    options.pool = pool;
    selectivity::ShardedSelectivityEstimator sharded =
        *selectivity::ShardedSelectivityEstimator::Create(prototype, options);
    return RunWorkload(sharded, stream, queries);
  };

  for (size_t shards : shard_counts) {
    parallel::ThreadPool pool(static_cast<int>(shards));
    RunResult best;
    for (size_t r = 0; r < repeats; ++r) {
      RunResult run = run_sharded(shards, &pool);
      if (r == 0 || run.seconds < best.seconds) best = std::move(run);
    }
    // Determinism evidence: the same K on a single-thread pool must answer
    // bit-identically to the multi-thread pool above.
    parallel::ThreadPool serial_pool(0);
    const RunResult serial = run_sharded(shards, &serial_pool);
    bool bit_identical = serial.answers.size() == best.answers.size();
    for (size_t i = 0; bit_identical && i < serial.answers.size(); ++i) {
      bit_identical = serial.answers[i] == best.answers[i];
    }

    Row row;
    row.mode = "sharded";
    row.shards = shards;
    row.threads = static_cast<int>(shards);
    row.seconds = best.seconds;
    row.items_per_second = total_items / best.seconds;
    row.speedup = rows.front().seconds / best.seconds;
    row.max_abs_error = MaxAbsError(best.answers, sequential.answers);
    row.bit_identical_across_pool_widths = bit_identical;
    rows.push_back(row);
    std::printf(
        "sharded K=%zu: %.3fs  %.3g items/s  speedup %.2fx  max_abs_err %.2e  "
        "bit_identical %s\n",
        shards, row.seconds, row.items_per_second, row.speedup,
        row.max_abs_error, bit_identical ? "true" : "false");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_sharded\",\n");
  std::fprintf(out,
               "  \"workload\": {\"estimator\": \"wavelet-stcv(j0=2,j*=11)\", "
               "\"n\": %zu, \"queries\": %zu, \"ingest_chunk\": %zu, "
               "\"shard_block_size\": %zu, \"refit_interval\": %zu, "
               "\"repeats\": %zu},\n",
               n, query_count, kIngestChunk, kShardBlock, refit_interval, repeats);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"shards\": %zu, \"threads\": %d, "
                 "\"seconds\": %.6f, \"items_per_second\": %.1f, "
                 "\"speedup_vs_sequential\": %.4f, "
                 "\"max_abs_error_vs_sequential\": %.3e, "
                 "\"bit_identical_across_pool_widths\": %s}%s\n",
                 row.mode.c_str(), row.shards, row.threads, row.seconds,
                 row.items_per_second, row.speedup, row.max_abs_error,
                 row.bit_identical_across_pool_widths ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (row.max_abs_error > 1e-12) {
        std::fprintf(stderr,
                     "CHECK FAILED: K=%zu max_abs_error_vs_sequential %.3e > 1e-12\n",
                     row.shards, row.max_abs_error);
        ++violations;
      }
      if (!row.bit_identical_across_pool_widths) {
        std::fprintf(stderr,
                     "CHECK FAILED: K=%zu answers differ across pool widths\n",
                     row.shards);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("determinism contract checks passed\n");
  }
  return 0;
}
