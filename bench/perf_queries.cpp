// Query-taxonomy bench: every registered estimator (built declaratively from
// one EstimatorSpec per tag) ingests a uniform stream, then answers
//   (a) a range-only batch        (the classic range-predicate shape),
//   (b) a mixed-kind batch        (ranges, points, one-sided, CDF, quantiles
//                                  through the one Answer() surface),
//   (c) the mixed batch as a per-query scalar loop (the batch path's
//                                  amortization baseline).
// Produces the committed BENCH_query_taxonomy.json artifact (see
// docs/BENCHMARKS.md): per-estimator timings, queries/second and the batch
// speedup, plus the correctness evidence — mixed batch ≡ scalar loop
// bitwise and the CDF/quantile round-trip error max_p |F(F^{-1}(p)) - p|.
//
// No google-benchmark dependency: plain steady_clock timing, so the binary
// builds everywhere and CI can always produce the artifact. Every timed row
// runs its batch (or scalar loop) back to back for a window of at least
// 200 ms per repeat, over --repeats (>= 5) repeats; the JSON
// records the median rate and the min/max across repeats, and the gates
// read the median. (A single 1024-query batch lasts ~2 ms on the fast tags,
// too short a window to separate a regression from scheduler noise.)
//
// Usage: perf_queries [--n=200000] [--queries=1024] [--repeats=5]
//                     [--out=BENCH_query_taxonomy.json] [--check]
//
// --check turns the two correctness fields and two throughput floors into a
// gate: exit 1 if any estimator's mixed batch is not bit-identical to its
// scalar loop, if the round-trip error exceeds 0.08 (estimator granularity:
// reservoir jumps, bucket fractions, signed-estimate wiggle), if kde-rot
// answers fewer than 1e5 range queries per second (its O(log n + B)
// moment-tree CDF; CI runs at n = 1e6, where the linear kernel-CDF window it
// replaced managed ~1.7k), or if kde-rot answers fewer than 1.9e5 mixed
// queries per second (half the slowest of ten 4-vCPU runs with its
// Newton–bisection quantiles, 3.9e5; the ~40-step bisection they replaced
// managed 2.2–3.0e5 at n = 1e6, so the floor leaves shared CI runners 2×
// headroom rather than separating the two). CI runs with --check
// so the taxonomy contract is enforced at production scale, not just at
// test sizes; like every chrono-timed bench, --check refuses a debug binary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;
using bench::perf::kWindowSeconds;
using bench::perf::Rate;
using bench::perf::WindowedRate;

constexpr size_t kIngestChunk = 65536;
constexpr double kKdeRotMinRangeQps = 1e5;
constexpr double kKdeRotMinMixedQps = 1.9e5;
struct Row {
  std::string tag;
  std::string name;
  Rate range_batch;
  Rate mixed_batch;
  Rate mixed_scalar;
  double batch_speedup_vs_scalar = 0.0;
  bool mixed_batch_bit_identical_to_scalar = true;
  double cdf_quantile_roundtrip_max_error = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t query_count = ArgSize(argc, argv, "queries", 1024);
  const size_t repeats = std::max<size_t>(5, ArgSize(argc, argv, "repeats", 5));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_query_taxonomy.json");

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();

  stats::Rng query_rng(5);
  const std::vector<selectivity::RangeQuery> range_workload =
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02,
                                         0.3);
  const std::vector<selectivity::Query> ranges_as_queries =
      selectivity::AsRangeQueries(range_workload);
  const std::vector<selectivity::Query> mixed_workload =
      selectivity::MixedQueryWorkload(query_rng, query_count, 0.0, 1.0);

  std::vector<Row> rows;
  for (const std::string& tag : selectivity::EstimatorRegistry::Global().Tags()) {
    // One description per estimator: the spec is the whole configuration
    // story (the sharded row wraps the flagship wavelet sketch).
    selectivity::EstimatorSpec spec;
    spec.tag = tag;
    spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
    if (spec.dims == 0) spec.dims = 1;
    spec.buckets = 64;
    spec.grid_log2 = 10;
    spec.budget = 64;
    spec.refit_interval = std::max<size_t>(1, n / 4);
    spec.capacity = 4096;
    spec.sharded_inner_tag = "wavelet-cv";
    spec.shards = 4;
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> made =
        selectivity::MakeEstimator(spec);
    WDE_CHECK(made.ok(), "every registered tag must build from a spec");
    selectivity::SelectivityEstimator& est = **made;

    const std::span<const double> all(stream);
    for (size_t offset = 0; offset < all.size(); offset += kIngestChunk) {
      est.InsertBatch(
          all.subspan(offset, std::min(kIngestChunk, all.size() - offset)));
    }

    Row row;
    row.tag = tag;
    row.name = est.name();

    std::vector<double> range_answers(range_workload.size());
    row.range_batch = WindowedRate(repeats, kWindowSeconds, query_count, [&] {
      est.Answer(ranges_as_queries, range_answers);
    });

    std::vector<double> mixed_answers(mixed_workload.size());
    row.mixed_batch = WindowedRate(repeats, kWindowSeconds, query_count, [&] {
      est.Answer(mixed_workload, mixed_answers);
    });

    // Scalar loop over the same mixed batch, and the bitwise contract.
    std::vector<double> scalar_answers(mixed_workload.size());
    row.mixed_scalar = WindowedRate(repeats, kWindowSeconds, query_count, [&] {
      for (size_t i = 0; i < mixed_workload.size(); ++i) {
        scalar_answers[i] = est.Answer(mixed_workload[i]);
      }
    });
    row.batch_speedup_vs_scalar =
        row.mixed_batch.median / row.mixed_scalar.median;
    for (size_t i = 0; i < mixed_workload.size(); ++i) {
      if (mixed_answers[i] != scalar_answers[i]) {
        row.mixed_batch_bit_identical_to_scalar = false;
        break;
      }
    }

    // CDF/quantile round trip on a fixed level grid.
    for (double p = 0.05; p < 1.0; p += 0.05) {
      const double quantile = est.Answer(selectivity::Query::Quantile(p));
      const double round_trip = est.Answer(selectivity::Query::Cdf(quantile));
      row.cdf_quantile_roundtrip_max_error = std::max(
          row.cdf_quantile_roundtrip_max_error, std::fabs(round_trip - p));
    }

    std::printf(
        "%-14s range %.3g q/s [%.3g, %.3g]  mixed %.3g q/s [%.3g, %.3g]  "
        "scalar %.3g q/s  speedup %.2fx  bitwise %s  roundtrip %.3g\n",
        tag.c_str(), row.range_batch.median, row.range_batch.min,
        row.range_batch.max, row.mixed_batch.median, row.mixed_batch.min,
        row.mixed_batch.max, row.mixed_scalar.median,
        row.batch_speedup_vs_scalar,
        row.mixed_batch_bit_identical_to_scalar ? "yes" : "NO",
        row.cdf_quantile_roundtrip_max_error);
    rows.push_back(row);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_queries\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, "
               "\"ingest_chunk\": %zu, \"repeats\": %zu, "
               "\"window_ms\": %.0f, "
               "\"mix\": \"40%% range / 12%% each point,less,greater,cdf,"
               "quantile\"},\n",
               n, query_count, kIngestChunk, repeats, 1e3 * kWindowSeconds);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        out,
        "    {\"tag\": \"%s\", \"estimator\": \"%s\", "
        "\"range_batch_qps\": %.1f, \"range_batch_qps_min\": %.1f, "
        "\"range_batch_qps_max\": %.1f, "
        "\"mixed_batch_qps\": %.1f, \"mixed_batch_qps_min\": %.1f, "
        "\"mixed_batch_qps_max\": %.1f, "
        "\"mixed_scalar_qps\": %.1f, \"mixed_scalar_qps_min\": %.1f, "
        "\"mixed_scalar_qps_max\": %.1f, "
        "\"batch_speedup_vs_scalar\": %.4f, "
        "\"mixed_batch_bit_identical_to_scalar\": %s, "
        "\"cdf_quantile_roundtrip_max_error\": %.3e}%s\n",
        row.tag.c_str(), row.name.c_str(), row.range_batch.median,
        row.range_batch.min, row.range_batch.max, row.mixed_batch.median,
        row.mixed_batch.min, row.mixed_batch.max, row.mixed_scalar.median,
        row.mixed_scalar.min, row.mixed_scalar.max,
        row.batch_speedup_vs_scalar,
        row.mixed_batch_bit_identical_to_scalar ? "true" : "false",
        row.cdf_quantile_roundtrip_max_error,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (!row.mixed_batch_bit_identical_to_scalar) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s mixed batch differs from scalar loop\n",
                     row.tag.c_str());
        ++violations;
      }
      if (row.cdf_quantile_roundtrip_max_error > 0.08) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s cdf/quantile roundtrip error %.3g > "
                     "0.08\n",
                     row.tag.c_str(), row.cdf_quantile_roundtrip_max_error);
        ++violations;
      }
      if (row.tag == "kde-rot" &&
          row.range_batch.median < kKdeRotMinRangeQps) {
        std::fprintf(stderr,
                     "CHECK FAILED: kde-rot median range throughput %.3g q/s "
                     "< %.3g\n",
                     row.range_batch.median, kKdeRotMinRangeQps);
        ++violations;
      }
      if (row.tag == "kde-rot" &&
          row.mixed_batch.median < kKdeRotMinMixedQps) {
        std::fprintf(stderr,
                     "CHECK FAILED: kde-rot median mixed throughput %.3g q/s "
                     "< %.3g\n",
                     row.mixed_batch.median, kKdeRotMinMixedQps);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("query taxonomy contract checks passed\n");
  }
  return 0;
}
