// Evaluation-kernel bench: the KDE query paths and the SIMD batch kernels
// vs their scalar baselines, on one uniform sample. Produces the
// committed BENCH_kernels.json artifact (see docs/BENCHMARKS.md): per-row
// baseline/optimized seconds, speedup, and the equivalence evidence — either
// bit-identity (rows whose optimized path carries the repo's bitwise
// contract) or a max-abs-error against the row's documented tolerance.
//
// Rows and their contracts:
//   kde_evaluate_many    EvaluateMany vs scalar Evaluate loop —
//                        bitwise, speedup-guarded.
//   kde_range_batch      CdfAt(b)−CdfAt(a) through the Epanechnikov moment
//                        tree (O(log n + B) per endpoint) vs the O(n)
//                        per-sample IntegrateRange oracle — gated at 1e-9
//                        abs; guarded.
//   kde_cdf_fresh        CdfAt at 2^16 distinct data-centred points, each
//                        once per pass, vs the same walk over the split of
//                        two std::partition_point searches — bitwise,
//                        guarded. Fresh points, not a repeated batch, so the
//                        branch predictor cannot learn the baseline's search.
//   wavelet_evaluate_many WaveletEstimate::EvaluateMany vs scalar Evaluate
//                        loop — bitwise, guarded.
//   hist_prefix_rebuild  PrefixSumExclusiveBlocked vs Sequential on integer
//                        counts — bitwise (exact reassociation), guarded.
//
// Usage: perf_kernels [--n=200000] [--queries=1024] [--repeats=3]
//                     [--out=BENCH_kernels.json] [--check]
//
// --check turns the contracts into gates: exit 1 if any bitwise row loses
// bit-identity, any tolerance row exceeds its bound, or any guarded row's
// optimized path is slower than its scalar baseline (speedup < 1.0).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "kernel/bandwidth.hpp"
#include "kernel/kde.hpp"
#include "kernel/kernels.hpp"
#include "numerics/simd.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

struct Row {
  std::string name;
  std::string equivalence;  // "bitwise" | "tolerance"
  size_t items = 0;         // evaluations per timed pass
  double seconds_baseline = 0.0;
  double seconds_optimized = 0.0;
  double speedup = 1.0;
  double tolerance = 0.0;       // tolerance rows: the gated bound
  double max_abs_error = 0.0;   // tolerance rows: observed error
  bool bit_identical = true;    // bitwise rows: observed identity
  bool speedup_guarded = false; // --check fails if guarded && speedup < 1
};

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

double MaxAbsError(const std::vector<double>& got, const std::vector<double>& want) {
  double max_abs = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(got[i] - want[i]));
  }
  return max_abs;
}

kernel::KernelDensityEstimator MakeKde(kernel::KernelType type,
                                       const std::vector<double>& data) {
  const kernel::Kernel kernel(type);
  const double bandwidth = kernel::RuleOfThumbBandwidth(data);
  Result<kernel::KernelDensityEstimator> kde =
      kernel::KernelDensityEstimator::Create(kernel, bandwidth, data);
  WDE_CHECK(kde.ok(), kde.status().ToString().c_str());
  return *std::move(kde);
}

/// KernelDensityEstimator::SaturationSplit's reference: two binary searches
/// with the predicates of Kernel::Cdf's saturation branches.
std::pair<size_t, size_t> PartitionPointSplit(const kernel::KernelDensityEstimator& kde,
                                              double x) {
  const std::span<const double> sorted = kde.samples();
  const double h = kde.bandwidth();
  const double radius = kde.kernel().support_radius();
  const auto ones_end = std::partition_point(
      sorted.begin(), sorted.end(),
      [&](double xi) { return (x - xi) / h >= radius; });
  const auto zeros_begin = std::partition_point(
      ones_end, sorted.end(), [&](double xi) { return (x - xi) / h > -radius; });
  return {static_cast<size_t>(ones_end - sorted.begin()),
          static_cast<size_t>(zeros_begin - sorted.begin())};
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t query_count = ArgSize(argc, argv, "queries", 1024);
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 3));
  const std::string out_path = ArgString(argc, argv, "out", "BENCH_kernels.json");

  stats::Rng data_rng(1);
  std::vector<double> data(n);
  for (double& x : data) x = data_rng.UniformDouble();

  // Queries slightly overhanging [0, 1] so the saturated/empty-window edges
  // of the density and CDF paths are exercised, not just interior points.
  stats::Rng query_rng(5);
  std::vector<double> queries(query_count);
  for (double& x : queries) x = -0.1 + 1.2 * query_rng.UniformDouble();
  std::vector<double> range_lo(query_count), range_hi(query_count);
  for (size_t i = 0; i < query_count; ++i) {
    const double a = query_rng.UniformDouble();
    const double b = query_rng.UniformDouble();
    range_lo[i] = std::min(a, b);
    range_hi[i] = std::max(a, b);
  }

  std::vector<Row> rows;
  std::vector<double> baseline(query_count), optimized(query_count);
  double checksum = 0.0;  // keeps the timed passes observable

  // --- kde_evaluate_many: SIMD-gathered batch vs scalar loop (bitwise). ---
  {
    const kernel::KernelDensityEstimator kde =
        MakeKde(kernel::KernelType::kEpanechnikov, data);
    Row row;
    row.name = "kde_evaluate_many";
    row.equivalence = "bitwise";
    row.items = query_count;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < query_count; ++i) baseline[i] = kde.Evaluate(queries[i]);
      checksum += baseline[0];
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      kde.EvaluateMany(queries, optimized);
      checksum += optimized[0];
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.bit_identical = BitIdentical(optimized, baseline);
    rows.push_back(row);
  }

  // --- kde_range_batch: CdfAt-difference ranges vs IntegrateRange. The
  // tree sums the same cubic terms in closed form per node (within CdfAt's
  // documented rounding bound), so the gate is a tight absolute tolerance
  // rather than bit-identity. ---
  {
    const kernel::KernelDensityEstimator kde =
        MakeKde(kernel::KernelType::kEpanechnikov, data);
    Row row;
    row.name = "kde_range_batch";
    row.equivalence = "tolerance";
    row.items = query_count;
    row.tolerance = 1e-9;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < query_count; ++i) {
        baseline[i] = kde.IntegrateRange(range_lo[i], range_hi[i]);
      }
      checksum += baseline[0];
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < query_count; ++i) {
        const double mass = kde.CdfAt(range_hi[i]) - kde.CdfAt(range_lo[i]);
        optimized[i] = std::clamp(mass, 0.0, 1.0);
      }
      checksum += optimized[0];
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.max_abs_error = MaxAbsError(optimized, baseline);
    rows.push_back(row);
  }

  // --- kde_cdf_fresh: CdfAt vs the partition_point split (bitwise). ---
  {
    const kernel::KernelDensityEstimator kde =
        MakeKde(kernel::KernelType::kEpanechnikov, data);
    // 2^16 distinct samples in random order (a partial Fisher–Yates draw).
    const size_t points = std::min<size_t>(size_t{1} << 16, n);
    std::vector<size_t> picks(n);
    for (size_t i = 0; i < n; ++i) picks[i] = i;
    stats::Rng pick_rng(17);
    std::vector<double> xs(points), cdf_base(points), cdf_opt(points);
    for (size_t i = 0; i < points; ++i) {
      std::swap(picks[i], picks[i + pick_rng.UniformInt(n - i)]);
      xs[i] = data[picks[i]];
    }
    Row row;
    row.name = "kde_cdf_fresh";
    row.equivalence = "bitwise";
    row.items = points;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < points; ++i) {
        cdf_base[i] = kde.CdfFromSplit(xs[i], PartitionPointSplit(kde, xs[i]));
      }
      checksum += cdf_base[0];
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < points; ++i) cdf_opt[i] = kde.CdfAt(xs[i]);
      checksum += cdf_opt[0];
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.bit_identical = BitIdentical(cdf_opt, cdf_base);
    rows.push_back(row);
  }

  // --- wavelet_evaluate_many: level-hoisted + shared-weight-window batch vs
  // the scalar per-point reconstruction (bitwise). ---
  {
    Result<core::WaveletDensityFit> fit =
        core::WaveletDensityFit::Fit(bench::Sym8Basis(), data);
    WDE_CHECK(fit.ok(), fit.status().ToString().c_str());
    const core::WaveletEstimate estimate = fit->LinearEstimate(8);
    // Enough points that the per-level setup amortizes, as in production
    // grid/batch queries.
    const size_t points = std::max<size_t>(query_count, 16384);
    std::vector<double> xs(points), wave_base(points), wave_opt(points);
    stats::Rng xrng(9);
    for (double& x : xs) x = xrng.UniformDouble();
    Row row;
    row.name = "wavelet_evaluate_many";
    row.equivalence = "bitwise";
    row.items = points;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t i = 0; i < points; ++i) wave_base[i] = estimate.Evaluate(xs[i]);
      checksum += wave_base[0];
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      estimate.EvaluateMany(xs, wave_opt);
      checksum += wave_opt[0];
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.bit_identical = BitIdentical(wave_opt, wave_base);
    rows.push_back(row);
  }

  // --- hist_prefix_rebuild: blocked vs sequential exclusive prefix sum over
  // integer-valued counts (exact reassociation ⇒ bitwise). Sized like a large
  // equi-width histogram; repeated per pass so the timing is resolvable. ---
  {
    const size_t buckets = 65536;
    const size_t passes = 64;
    std::vector<double> counts(buckets);
    stats::Rng crng(13);
    for (double& c : counts) {
      c = static_cast<double>(static_cast<uint64_t>(crng.UniformDouble() * 1024.0));
    }
    std::vector<double> prefix_base(buckets), prefix_opt(buckets);
    Row row;
    row.name = "hist_prefix_rebuild";
    row.equivalence = "bitwise";
    row.items = buckets * passes;
    row.speedup_guarded = true;
    row.seconds_baseline = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t p = 0; p < passes; ++p) {
        checksum += numerics::PrefixSumExclusiveSequential(counts, prefix_base);
      }
    });
    row.seconds_optimized = bench::perf::BestOfSeconds(repeats, [&] {
      for (size_t p = 0; p < passes; ++p) {
        checksum += numerics::PrefixSumExclusiveBlocked(counts, prefix_opt);
      }
    });
    row.speedup = row.seconds_baseline / row.seconds_optimized;
    row.bit_identical = BitIdentical(prefix_opt, prefix_base);
    rows.push_back(row);
  }

  for (const Row& row : rows) {
    std::printf("%-24s %8zu items  base %.4fs  opt %.4fs  speedup %.2fx  %s\n",
                row.name.c_str(), row.items, row.seconds_baseline,
                row.seconds_optimized, row.speedup,
                row.equivalence == "bitwise"
                    ? (row.bit_identical ? "bit_identical" : "MISMATCH")
                    : "tolerance");
  }
  std::printf("checksum %.6g\n", checksum);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_kernels\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, \"repeats\": %zu, "
               "\"data\": \"uniform[0,1]\", \"bandwidth\": \"rule-of-thumb\"},\n",
               n, query_count, repeats);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"equivalence\": \"%s\", \"items\": %zu, "
                 "\"seconds_baseline\": %.6f, \"seconds_optimized\": %.6f, "
                 "\"speedup\": %.4f, \"tolerance\": %.3e, "
                 "\"max_abs_error\": %.3e, \"bit_identical\": %s, "
                 "\"speedup_guarded\": %s}%s\n",
                 row.name.c_str(), row.equivalence.c_str(), row.items,
                 row.seconds_baseline, row.seconds_optimized, row.speedup,
                 row.tolerance, row.max_abs_error,
                 row.bit_identical ? "true" : "false",
                 row.speedup_guarded ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (row.equivalence == "bitwise" && !row.bit_identical) {
        std::fprintf(stderr, "CHECK FAILED: %s lost bit-identity\n",
                     row.name.c_str());
        ++violations;
      }
      // 1e-12 slack: the bounds are derived in exact arithmetic; the
      // accumulations themselves round.
      if (row.equivalence == "tolerance" &&
          row.max_abs_error > row.tolerance + 1e-12) {
        std::fprintf(stderr, "CHECK FAILED: %s max_abs_error %.3e > %.3e\n",
                     row.name.c_str(), row.max_abs_error, row.tolerance);
        ++violations;
      }
      if (row.speedup_guarded && row.speedup < 1.0) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s optimized path slower than scalar "
                     "baseline (speedup %.3fx)\n",
                     row.name.c_str(), row.speedup);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("evaluation-kernel contract checks passed\n");
  }
  return 0;
}
