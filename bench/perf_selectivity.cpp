// google-benchmark microbenches comparing the streaming selectivity
// estimators: per-insert cost, range-query latency, and refit cost — the
// numbers that decide whether the wavelet sketch is deployable in an
// optimizer's statistics pipeline.
//
// The *Scalar/*Batch pairs measure the same work through the per-point
// virtuals vs the span-based batch entry points (which are bit-identical by
// contract; see tests/batch_equivalence_test.cpp). The batch JSON baseline in
// BENCH_selectivity_batch.json is produced from this binary — see
// docs/BENCHMARKS.md for the exact command.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

#include <span>
#include <vector>

#include "selectivity/histogram.hpp"
#include "selectivity/kde_selectivity.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sample_selectivity.hpp"
#include "selectivity/wavelet_selectivity.hpp"
#include "selectivity/wavelet_synopsis.hpp"
#include "stats/rng.hpp"
#include "wavelet/scaled_function.hpp"

namespace {

using namespace wde;

const wavelet::WaveletBasis& Basis() {
  static const wavelet::WaveletBasis basis =
      *wavelet::WaveletBasis::Create(*wavelet::WaveletFilter::Symmlet(8), 12);
  return basis;
}

selectivity::StreamingWaveletSelectivity MakeSketch(size_t refit_interval = 1ULL << 30) {
  selectivity::StreamingWaveletSelectivity::Options options;
  options.j0 = 2;
  options.j_max = 11;
  options.refit_interval = refit_interval;  // huge -> inserts never refit
  return *selectivity::StreamingWaveletSelectivity::Create(Basis(), options);
}

const std::vector<double>& Stream(size_t n) {
  static std::vector<double> data;
  if (data.size() < n) {
    stats::Rng rng(1);
    data.resize(n);
    for (double& x : data) x = rng.UniformDouble();
  }
  return data;
}

std::vector<selectivity::RangeQuery> Queries(size_t count) {
  stats::Rng rng(5);
  return selectivity::CenteredRangeWorkload(rng, count, 0.0, 1.0, 0.02, 0.3);
}

// ------------------------------------------------- wavelet sketch: inserts

void BM_WaveletSketchInsertScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double>& data = Stream(n);
  for (auto _ : state) {
    state.PauseTiming();
    selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) sketch.Insert(data[i]);
    benchmark::DoNotOptimize(sketch.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_WaveletSketchInsertScalar)->Arg(1 << 16)->Arg(1000000);

void BM_WaveletSketchInsertBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double>& data = Stream(n);
  for (auto _ : state) {
    state.PauseTiming();
    selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
    state.ResumeTiming();
    sketch.InsertBatch(std::span<const double>(data.data(), n));
    benchmark::DoNotOptimize(sketch.count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_WaveletSketchInsertBatch)->Arg(1 << 16)->Arg(1000000);

// -------------------------------------------------- wavelet sketch: queries

void BM_WaveletSketchQueryScalar(benchmark::State& state) {
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
  sketch.InsertBatch(Stream(1000000));
  sketch.Refit();
  const std::vector<selectivity::RangeQuery> queries = Queries(1024);
  for (auto _ : state) {
    double acc = 0.0;
    for (const selectivity::RangeQuery& q : queries) {
      acc += sketch.Answer(selectivity::Query::Range(q.lo, q.hi));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_WaveletSketchQueryScalar);

void BM_WaveletSketchQueryBatch(benchmark::State& state) {
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
  sketch.InsertBatch(Stream(1000000));
  sketch.Refit();
  const std::vector<selectivity::Query> queries =
      selectivity::AsRangeQueries(Queries(1024));
  std::vector<double> answers(queries.size());
  for (auto _ : state) {
    sketch.Answer(queries, answers);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_WaveletSketchQueryBatch);

// ------------------------------------- wavelet sketch: full stream workload
// The acceptance workload: ingest a 1e6-sample stream (periodic refits on)
// and answer a query batch — scalar virtuals vs batch entry points.

void BM_WaveletSketchStreamScalar(benchmark::State& state) {
  const size_t n = 1000000;
  const std::vector<double>& data = Stream(n);
  const std::vector<selectivity::RangeQuery> queries = Queries(1024);
  for (auto _ : state) {
    state.PauseTiming();
    selectivity::StreamingWaveletSelectivity sketch = MakeSketch(1 << 18);
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) sketch.Insert(data[i]);
    double acc = 0.0;
    for (const selectivity::RangeQuery& q : queries) {
      acc += sketch.Answer(selectivity::Query::Range(q.lo, q.hi));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n + queries.size()));
}
BENCHMARK(BM_WaveletSketchStreamScalar);

void BM_WaveletSketchStreamBatch(benchmark::State& state) {
  const size_t n = 1000000;
  const std::vector<double>& data = Stream(n);
  const std::vector<selectivity::Query> queries =
      selectivity::AsRangeQueries(Queries(1024));
  std::vector<double> answers(queries.size());
  for (auto _ : state) {
    state.PauseTiming();
    selectivity::StreamingWaveletSelectivity sketch = MakeSketch(1 << 18);
    state.ResumeTiming();
    sketch.InsertBatch(std::span<const double>(data.data(), n));
    sketch.Answer(queries, answers);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n + queries.size()));
}
BENCHMARK(BM_WaveletSketchStreamBatch);

// ------------------------------------------------------ baseline estimators

void BM_InsertEquiWidth(benchmark::State& state) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 64);
  stats::Rng rng(2);
  for (auto _ : state) {
    hist.Insert(rng.UniformDouble());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertEquiWidth);

void BM_InsertReservoir(benchmark::State& state) {
  selectivity::ReservoirSampleSelectivity res(1024);
  stats::Rng rng(3);
  for (auto _ : state) {
    res.Insert(rng.UniformDouble());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertReservoir);

template <typename Estimator>
void QueryLoop(benchmark::State& state, Estimator& estimator) {
  stats::Rng rng(5);
  for (int i = 0; i < 65536; ++i) estimator.Insert(rng.UniformDouble());
  double a = 0.0;
  for (auto _ : state) {
    a += 0.000917;
    if (a > 0.8) a -= 0.8;
    benchmark::DoNotOptimize(estimator.Answer(selectivity::Query::Range(a, a + 0.15)));
  }
}

void BM_QueryEquiWidth(benchmark::State& state) {
  selectivity::EquiWidthHistogram hist(0.0, 1.0, 64);
  QueryLoop(state, hist);
}
BENCHMARK(BM_QueryEquiWidth);

void BM_QueryEquiDepth(benchmark::State& state) {
  selectivity::EquiDepthHistogram hist(0.0, 1.0, 64);
  QueryLoop(state, hist);
}
BENCHMARK(BM_QueryEquiDepth);

void BM_QueryKde(benchmark::State& state) {
  selectivity::KdeSelectivity::Options options;
  selectivity::KdeSelectivity kde(options);
  QueryLoop(state, kde);
}
BENCHMARK(BM_QueryKde);

void BM_InsertHaarSynopsis(benchmark::State& state) {
  selectivity::WaveletSynopsisSelectivity synopsis =
      *selectivity::WaveletSynopsisSelectivity::Create({});
  stats::Rng rng(4);
  for (auto _ : state) {
    synopsis.Insert(rng.UniformDouble());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertHaarSynopsis);

void BM_QueryHaarSynopsis(benchmark::State& state) {
  selectivity::WaveletSynopsisSelectivity synopsis =
      *selectivity::WaveletSynopsisSelectivity::Create({});
  QueryLoop(state, synopsis);
}
BENCHMARK(BM_QueryHaarSynopsis);

void BM_WaveletRefit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  selectivity::StreamingWaveletSelectivity sketch = MakeSketch();
  sketch.InsertBatch(std::span<const double>(Stream(n).data(), n));
  for (auto _ : state) {
    sketch.Refit();
  }
}
BENCHMARK(BM_WaveletRefit)->Arg(4096)->Arg(65536);

}  // namespace

// Not BENCHMARK_MAIN(): the build-type gate must run before benchmark
// registration parses --benchmark_out, so a debug binary can never write a
// JSON baseline (see bench_common.hpp).
int main(int argc, char** argv) {
  if (!wde::bench::perf::CheckBuildForBaseline(argc, argv)) return 2;
  benchmark::AddCustomContext("build_type", wde::bench::perf::BuildType());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
