// Multi-dimensional estimation bench: query throughput and accuracy of the
// two registered 2-D estimators — the prefix-sum grid ("grid2d") and the
// product/adaptive KDE ("kde2d-prod") — at an equal sample budget (both
// ingest the same stream; the committed rows carry each estimator's
// snapshot size so the state budgets are visible too).
//
// Section 1 (throughput): batched Answer() vs the scalar per-query loop, per
// tag and per 2-D kind — rectangles, axis-0 and axis-1 marginals over the
// rectangles' sides, and conditionals over the rectangles — on the
// anti-product data set. Each row runs its batch (or scalar loop) back to
// back for a window of at least 200 ms per repeat, over --repeats (>= 5)
// repeats; the JSON records the median rate and the min/max across
// repeats, and the gates read the median. The batch path must be
// bit-identical to the scalar loop (the taxonomy contract), and the
// O(1)-per-rect grid must out-run the KDE, whose rectangle sum walks a
// quadtree of moment nodes (cost O(nodes along the rectangle's edges +
// points in uncertified leaves)).
//
// Section 2 (accuracy): mean absolute error and mean q-error against exact
// truth (the fraction of ingested observations inside each rect) on two
// workloads — a correlated Gaussian mixture and the anti-product
// distribution, whose joint mass rides the diagonals while its marginals
// stay near-uniform. Each estimator's own product-of-marginals answer
// (marginal0 × marginal1) is scored as a baseline row: the gap between the
// joint and the product rows is exactly what native 2-D estimation buys.
//
// Section 3 (refit and memory): the kde2d-prod incremental refit that folds
// 4096 new observations into a fit over n — the copy, tail sort and merge
// of the fitted columns, bandwidths, adaptive factors and the tree rebuild
// — as the p50 (and min/max) of 7 refits from one fitted state, and the
// heap bytes per observation a fit holds once its refit's transients are
// freed (glibc mallinfo2; 0 where it is unavailable).
//
// Plain steady_clock timing, like the other perf drivers. Single-threaded.
//
// Usage: perf_multidim [--n=200000] [--queries=4096] [--repeats=5]
//                      [--out=BENCH_multidim.json] [--check]
//
// --check turns the contracts into gates: exit 1 if any batched answer
// differs bitwise from the scalar loop, if grid2d's median rect throughput
// does not exceed kde2d-prod's, if kde2d-prod's median rate falls below
// 7.9e3 rect, 8.3e3 marginal or 4.8e3 conditional queries per second (CI
// runs at n = 2e5; each floor was set at half the slowest of five 4-vCPU
// best-of-3 runs of one batch — 1.59e4 rect, 1.66e4 axis-1 marginal,
// 9.7e3 conditional — headroom for shared runners), if
// either estimator's joint answers fail to beat its own product-of-marginals
// baseline on the anti-product workload, or if either mean absolute error
// exceeds 0.05. CI runs with --check on the release build; debug binaries
// refuse --check outright (bench_common.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "io/serialize.hpp"
#include "multidim/synthetic2d.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/selectivity_estimator.hpp"
#include "stats/rng.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wde;
using bench::perf::kWindowSeconds;
using bench::perf::Rate;
using bench::perf::WindowedRate;

/// kde2d-prod throughput floors per kind at n = 2e5 (see the file comment).
constexpr double kKde2dMinRectQps = 7.9e3;
constexpr double kKde2dMinMarginalQps = 8.3e3;
constexpr double kKde2dMinConditionalQps = 4.8e3;

std::unique_ptr<selectivity::SelectivityEstimator> Make2d(
    const std::string& tag) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  spec.dims = 2;
  spec.grid_log2 = 6;        // 64 x 64 cells
  spec.refit_interval = 4096;
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> est =
      selectivity::MakeEstimator(spec);
  WDE_CHECK(est.ok(), est.status().ToString().c_str());
  return std::move(est).value();
}

struct RectQuery {
  double lo0, hi0, lo1, hi1;
};

std::vector<RectQuery> RectWorkload(uint64_t seed, size_t count) {
  stats::Rng rng(seed);
  std::vector<RectQuery> out(count);
  for (RectQuery& q : out) {
    q.lo0 = rng.UniformDouble();
    q.hi0 = rng.UniformDouble();
    if (q.hi0 < q.lo0) std::swap(q.lo0, q.hi0);
    q.lo1 = rng.UniformDouble();
    q.hi1 = rng.UniformDouble();
    if (q.hi1 < q.lo1) std::swap(q.lo1, q.hi1);
  }
  return out;
}

/// The timed 2-D kinds, each built from the same rectangles.
enum class Kind { kRect, kMarginal0, kMarginal1, kConditional };
constexpr Kind kKinds[] = {Kind::kRect, Kind::kMarginal0, Kind::kMarginal1,
                           Kind::kConditional};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRect: return "rect";
    case Kind::kMarginal0: return "marginal0";
    case Kind::kMarginal1: return "marginal1";
    case Kind::kConditional: return "conditional";
  }
  return "?";
}

std::vector<selectivity::Query> AsQueries(const std::vector<RectQuery>& rects,
                                          Kind kind) {
  std::vector<selectivity::Query> out;
  out.reserve(rects.size());
  for (const RectQuery& r : rects) {
    switch (kind) {
      case Kind::kRect:
        out.push_back(selectivity::Query::Rect(r.lo0, r.hi0, r.lo1, r.hi1));
        break;
      case Kind::kMarginal0:
        out.push_back(selectivity::Query::Marginal(0, r.lo0, r.hi0));
        break;
      case Kind::kMarginal1:
        out.push_back(selectivity::Query::Marginal(1, r.lo1, r.hi1));
        break;
      case Kind::kConditional:
        out.push_back(
            selectivity::Query::Conditional(r.lo0, r.hi0, r.lo1, r.hi1));
        break;
    }
  }
  return out;
}

/// Exact truth: the fraction of ingested observations inside the rect.
std::vector<double> ExactFractions(const std::vector<double>& interleaved,
                                   const std::vector<RectQuery>& rects) {
  const size_t n = interleaved.size() / 2;
  std::vector<double> out(rects.size());
  for (size_t q = 0; q < rects.size(); ++q) {
    const RectQuery& r = rects[q];
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const double x = interleaved[2 * i];
      const double y = interleaved[2 * i + 1];
      if (x >= r.lo0 && x <= r.hi0 && y >= r.lo1 && y <= r.hi1) ++hits;
    }
    out[q] = static_cast<double>(hits) / static_cast<double>(n);
  }
  return out;
}

struct Accuracy {
  double mean_abs_error = 0.0;
  double mean_qerror = 0.0;
};

Accuracy Score(const std::vector<double>& estimates,
               const std::vector<double>& truth) {
  constexpr double kFloor = 1e-4;
  Accuracy acc;
  for (size_t i = 0; i < estimates.size(); ++i) {
    acc.mean_abs_error += std::fabs(estimates[i] - truth[i]);
    const double lo = std::max(std::min(estimates[i], truth[i]), kFloor);
    const double hi = std::max(std::max(estimates[i], truth[i]), kFloor);
    acc.mean_qerror += hi / lo;
  }
  const double m = static_cast<double>(estimates.size());
  acc.mean_abs_error /= m;
  acc.mean_qerror /= m;
  return acc;
}

size_t SnapshotBytes(const selectivity::SelectivityEstimator& est) {
  io::VectorSink sink;
  WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(est, sink));
  return sink.bytes().size();
}

struct ThroughputRow {
  std::string estimator;
  Kind kind = Kind::kRect;
  size_t queries = 0;
  Rate batch;
  Rate scalar;
  bool batch_equals_scalar = true;
};

/// Bytes the allocator has handed out and not yet taken back: the small-
/// block arenas plus mmapped large blocks (the fitted columns).
size_t HeapInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

struct RefitRow {
  size_t n = 0;
  size_t delta = 0;
  size_t repeats = 0;
  double p50_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double fitted_bytes_per_obs = 0.0;
};

/// kde2d-prod fitted at n observations of `data` (interleaved), then
/// `repeats` incremental refits, each folding the following delta
/// observations into its own view of that fit.
RefitRow MeasureRefit(const std::vector<double>& data, size_t n, size_t delta,
                      size_t repeats) {
  const std::span<const double> all(data);
  std::unique_ptr<selectivity::SelectivityEstimator> fitted =
      Make2d("kde2d-prod");
  fitted->InsertBatch(all.first(2 * n));
  const size_t buffered = HeapInUse();
  fitted->ForceRefit();
  RefitRow row;
  row.n = n;
  row.delta = delta;
  row.repeats = repeats;
  row.fitted_bytes_per_obs =
      (static_cast<double>(HeapInUse()) - static_cast<double>(buffered)) /
      static_cast<double>(n);
  std::vector<double> ms;
  for (size_t r = 0; r < repeats; ++r) {
    // A view shares the fit copy-on-write; its refit builds new columns
    // and leaves the shared fit intact for the next repeat.
    std::unique_ptr<selectivity::SelectivityEstimator> view =
        fitted->CloneForView();
    view->InsertBatch(all.subspan(2 * n, 2 * delta));
    const auto start = std::chrono::steady_clock::now();
    view->ForceRefit();
    ms.push_back(1e3 * bench::perf::SecondsSince(start));
  }
  std::sort(ms.begin(), ms.end());
  row.p50_ms = ms[ms.size() / 2];
  row.min_ms = ms.front();
  row.max_ms = ms.back();
  return row;
}

struct AccuracyRow {
  std::string estimator;
  std::string workload;
  Accuracy joint;
  Accuracy product;  // the estimator's own marginal0 x marginal1 baseline
  size_t snapshot_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t num_queries =
      std::max<size_t>(16, ArgSize(argc, argv, "queries", 4096));
  const size_t repeats = std::max<size_t>(5, ArgSize(argc, argv, "repeats", 5));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_multidim.json");

  // Two data sets, both n observations on [0, 1]^2, interleaved.
  stats::Rng mixture_rng(1);
  const std::vector<multidim::GaussianComponent2d> components = {
      {0.45, 0.30, 0.35, 0.08, 0.06, 0.6},
      {0.35, 0.70, 0.60, 0.07, 0.09, -0.5},
      {0.20, 0.50, 0.80, 0.12, 0.05, 0.0}};
  std::vector<double> mixture;
  multidim::SampleGaussianMixture2d(mixture_rng, components, n, &mixture);
  stats::Rng anti_rng(2);
  std::vector<double> anti;
  multidim::SampleAntiProduct2d(anti_rng, n, 0.03, &anti);

  const std::vector<RectQuery> rects = RectWorkload(5, num_queries);
  const std::vector<selectivity::Query> queries =
      AsQueries(rects, Kind::kRect);

  // -------------------------------------------------------------------------
  // Section 1: throughput per kind (anti-product data), batch vs scalar.
  // -------------------------------------------------------------------------
  std::vector<ThroughputRow> throughput_rows;
  for (const char* tag : {"grid2d", "kde2d-prod"}) {
    std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d(tag);
    est->InsertBatch(anti);
    est->ForceRefit();
    for (const Kind kind : kKinds) {
      const std::vector<selectivity::Query> timed = AsQueries(rects, kind);
      std::vector<double> batch(timed.size());
      ThroughputRow row;
      row.batch = WindowedRate(repeats, kWindowSeconds, timed.size(),
                               [&] { est->Answer(timed, batch); });
      row.scalar = WindowedRate(repeats, kWindowSeconds, timed.size(), [&] {
        double sink = 0.0;
        for (const selectivity::Query& q : timed) sink += est->Answer(q);
        volatile double guard = sink;  // keep the scalar loop from folding away
        (void)guard;
      });
      bool bitwise = true;
      for (size_t i = 0; i < timed.size(); ++i) {
        bitwise = bitwise && batch[i] == est->Answer(timed[i]);
      }
      row.estimator = tag;
      row.kind = kind;
      row.queries = timed.size();
      row.batch_equals_scalar = bitwise;
      throughput_rows.push_back(row);
      std::printf(
          "%-10s %-11s throughput: batch %.3g q/s [%.3g, %.3g]  scalar %.3g "
          "q/s [%.3g, %.3g]  bitwise %s\n",
          tag, KindName(kind), row.batch.median, row.batch.min, row.batch.max,
          row.scalar.median, row.scalar.min, row.scalar.max,
          bitwise ? "true" : "false");
    }
  }

  // -------------------------------------------------------------------------
  // Section 2: accuracy vs exact truth at equal sample budget, joint vs the
  // estimator's own product-of-marginals baseline.
  // -------------------------------------------------------------------------
  std::vector<AccuracyRow> accuracy_rows;
  const std::pair<const char*, const std::vector<double>*> workloads[] = {
      {"mixture", &mixture}, {"anti-product", &anti}};
  for (const auto& [workload_name, data] : workloads) {
    const std::vector<double> truth = ExactFractions(*data, rects);
    for (const char* tag : {"grid2d", "kde2d-prod"}) {
      std::unique_ptr<selectivity::SelectivityEstimator> est = Make2d(tag);
      est->InsertBatch(*data);
      est->ForceRefit();
      std::vector<double> joint(queries.size());
      est->Answer(queries, joint);
      std::vector<double> product(queries.size());
      for (size_t i = 0; i < rects.size(); ++i) {
        const double m0 = est->Answer(
            selectivity::Query::Marginal(0, rects[i].lo0, rects[i].hi0));
        const double m1 = est->Answer(
            selectivity::Query::Marginal(1, rects[i].lo1, rects[i].hi1));
        product[i] = m0 * m1;
      }
      AccuracyRow row;
      row.estimator = tag;
      row.workload = workload_name;
      row.joint = Score(joint, truth);
      row.product = Score(product, truth);
      row.snapshot_bytes = SnapshotBytes(*est);
      accuracy_rows.push_back(row);
      std::printf(
          "%-10s %-12s joint mae %.5f qerr %.2f | product mae %.5f qerr %.2f "
          "| snapshot %zu bytes\n",
          tag, workload_name, row.joint.mean_abs_error, row.joint.mean_qerror,
          row.product.mean_abs_error, row.product.mean_qerror,
          row.snapshot_bytes);
    }
  }

  // -------------------------------------------------------------------------
  // Section 3: kde2d-prod incremental refit and fitted bytes per observation
  // (anti-product data, its own seed: n observations fitted, 4096 folded in).
  // -------------------------------------------------------------------------
  constexpr size_t kRefitDelta = 4096;
  constexpr size_t kRefitRepeats = 7;
  stats::Rng refit_rng(3);
  std::vector<double> refit_data;
  multidim::SampleAntiProduct2d(refit_rng, n + kRefitDelta, 0.03, &refit_data);
  const RefitRow refit = MeasureRefit(refit_data, n, kRefitDelta, kRefitRepeats);
  std::printf(
      "kde2d-prod refit n=%zu +%zu: p50 %.2f ms (min %.2f, max %.2f, %zu "
      "refits) | fitted %.1f bytes/obs\n",
      refit.n, refit.delta, refit.p50_ms, refit.min_ms, refit.max_ms,
      refit.repeats, refit.fitted_bytes_per_obs);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_multidim\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, "
               "\"repeats\": %zu, \"window_ms\": %.0f, \"grid_log2\": 6},\n",
               n, num_queries, repeats, 1e3 * kWindowSeconds);
  bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"throughput\": [\n");
  for (size_t i = 0; i < throughput_rows.size(); ++i) {
    const ThroughputRow& row = throughput_rows[i];
    std::fprintf(out,
                 "    {\"estimator\": \"%s\", \"kind\": \"%s\", "
                 "\"queries\": %zu, \"batch_qps\": %.1f, "
                 "\"batch_qps_min\": %.1f, \"batch_qps_max\": %.1f, "
                 "\"scalar_qps\": %.1f, \"scalar_qps_min\": %.1f, "
                 "\"scalar_qps_max\": %.1f, \"batch_equals_scalar\": %s}%s\n",
                 row.estimator.c_str(), KindName(row.kind), row.queries,
                 row.batch.median, row.batch.min, row.batch.max,
                 row.scalar.median, row.scalar.min, row.scalar.max,
                 row.batch_equals_scalar ? "true" : "false",
                 i + 1 < throughput_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"refit\": {\"estimator\": \"kde2d-prod\", "
               "\"mode\": \"incremental\", \"n\": %zu, \"delta\": %zu, "
               "\"refits\": %zu, \"p50_ms\": %.3f, \"min_ms\": %.3f, "
               "\"max_ms\": %.3f, \"fitted_bytes_per_obs\": %.1f},\n",
               refit.n, refit.delta, refit.repeats, refit.p50_ms, refit.min_ms,
               refit.max_ms, refit.fitted_bytes_per_obs);
  std::fprintf(out, "  \"accuracy\": [\n");
  for (size_t i = 0; i < accuracy_rows.size(); ++i) {
    const AccuracyRow& row = accuracy_rows[i];
    std::fprintf(
        out,
        "    {\"estimator\": \"%s\", \"workload\": \"%s\", "
        "\"mean_abs_error\": %.6f, \"mean_qerror\": %.4f, "
        "\"product_mean_abs_error\": %.6f, \"product_mean_qerror\": %.4f, "
        "\"snapshot_bytes\": %zu}%s\n",
        row.estimator.c_str(), row.workload.c_str(), row.joint.mean_abs_error,
        row.joint.mean_qerror, row.product.mean_abs_error,
        row.product.mean_qerror, row.snapshot_bytes,
        i + 1 < accuracy_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    const auto find = [&](const std::string& tag, Kind kind) {
      for (const ThroughputRow& row : throughput_rows) {
        if (row.estimator == tag && row.kind == kind) return row;
      }
      WDE_CHECK(false, "missing throughput row");
      return ThroughputRow{};
    };
    for (const ThroughputRow& row : throughput_rows) {
      if (!row.batch_equals_scalar) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s batched %s answers differ from the "
                     "scalar loop\n",
                     row.estimator.c_str(), KindName(row.kind));
        ++violations;
      }
    }
    const double grid_rect = find("grid2d", Kind::kRect).batch.median;
    const double kde_rect = find("kde2d-prod", Kind::kRect).batch.median;
    if (grid_rect <= kde_rect) {
      std::fprintf(stderr,
                   "CHECK FAILED: grid2d (%.3g q/s) did not out-run "
                   "kde2d-prod (%.3g q/s) on rect throughput\n",
                   grid_rect, kde_rect);
      ++violations;
    }
    const std::pair<Kind, double> floors[] = {
        {Kind::kRect, kKde2dMinRectQps},
        {Kind::kMarginal0, kKde2dMinMarginalQps},
        {Kind::kMarginal1, kKde2dMinMarginalQps},
        {Kind::kConditional, kKde2dMinConditionalQps}};
    for (const auto& [kind, floor] : floors) {
      const double qps = find("kde2d-prod", kind).batch.median;
      if (qps < floor) {
        std::fprintf(stderr,
                     "CHECK FAILED: kde2d-prod answered a median %.3g %s "
                     "q/s < %.3g\n",
                     qps, KindName(kind), floor);
        ++violations;
      }
    }
    for (const AccuracyRow& row : accuracy_rows) {
      if (row.joint.mean_abs_error > 0.05) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s on %s: mean abs error %.5f > 0.05\n",
                     row.estimator.c_str(), row.workload.c_str(),
                     row.joint.mean_abs_error);
        ++violations;
      }
      if (row.workload == "anti-product" &&
          row.joint.mean_abs_error >= row.product.mean_abs_error) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s joint answers (mae %.5f) no better "
                     "than its product-of-marginals baseline (mae %.5f) on "
                     "the anti-product workload\n",
                     row.estimator.c_str(), row.joint.mean_abs_error,
                     row.product.mean_abs_error);
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("multidim contract checks passed\n");
  }
  return 0;
}
