// The end-to-end serving benchmark: one workload per process drives a
// serving::EstimatorService from outside, the way a query optimizer's
// statistics service is used — an open-loop writer ingests a stream from the
// paper's dependent processes on a fixed schedule while closed-loop readers
// (planner threads that wait for each estimate) answer typed-query batches.
//
// Usage:
//   perfbench_pipeline --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --scratch <dir>
//
// Everything the timed window touches — the stream (quantile-transformed
// onto the paper's bimodal mixture, §5.2), the query pools, the prefilled
// checkpoint — is generated from --seed before the window starts. With
// --trace 0 the last stdout line is the end-to-end result; with --trace 1
// the window alternates untraced and traced one-second slices, spans are
// recorded in memory around the public calls of each layer (written to
// <scratch>/trace-<workload>.jsonl at exit), a single-thread side
// replay of the same stream times the selectivity and snapshot layers, and
// the last line carries the per-layer metrics. The correctness checks run in
// both modes; any failure exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "harness/cases.hpp"
#include "io/chunk.hpp"
#include "io/serialize.hpp"
#include "multidim/synthetic2d.hpp"
#include "processes/logistic_map.hpp"
#include "processes/noncausal_ma.hpp"
#include "processes/target_density.hpp"
#include "selectivity/estimator_registry.hpp"
#include "selectivity/estimator_spec.hpp"
#include "selectivity/query_workload.hpp"
#include "selectivity/sharded_selectivity.hpp"
#include "serving/estimator_service.hpp"
#include "stats/rng.hpp"

namespace {

using namespace wde;
using Clock = std::chrono::steady_clock;
using selectivity::Query;
using selectivity::QueryKind;
using serving::EstimatorService;

// The window is cut into slices: the unit of the per-slice statistics (see
// SlicedLatency) and of the traced/untraced alternation of --trace 1.
constexpr double kSliceSeconds = 1.0;
// setup_s is the median of at least kMinSetupRepeats set-ups, repeated
// until kSetupSeconds have passed (at most kMaxSetupRepeats).
constexpr size_t kMinSetupRepeats = 11;
constexpr size_t kMaxSetupRepeats = 201;
constexpr double kSetupSeconds = 0.3;
constexpr size_t kSamplesPerReader = 32;
constexpr size_t kMaxSpansPerThread = 1 << 16;
constexpr size_t kLatencyCapacity = size_t{1} << 22;  // batches per reader
constexpr double kDrainSeconds = 2.0;
constexpr int kClusters = 32;  // Gauss-cluster-centred queries
// Writer-block and freshness tails are p90: every workload's schedule puts
// at least 120 blocks in a slice, so 12 lie beyond it.
constexpr double kBlockTailPct = 90.0;

// ---------------------------------------------------------------- workloads

enum class Centres { kData, kUniform, kGauss };

const char* CentresName(Centres c) {
  switch (c) {
    case Centres::kData:
      return "data-centred";
    case Centres::kUniform:
      return "uniform-centred";
    case Centres::kGauss:
      return "gauss-cluster-centred";
  }
  return "?";
}

struct Workload {
  std::string name;
  selectivity::EstimatorSpec spec;
  size_t publish_interval = 8192;  // ServiceOptions default
  harness::DependenceCase dependence = harness::DependenceCase::kLogisticMap;
  size_t prefill = 0;        // values (2-D: two per observation)
  double write_rate = 0.0;   // values per second
  size_t block = 4096;       // values per writer block
  int readers = 2;
  size_t batch = 64;
  Centres centres = Centres::kData;
  size_t hot_pool = 0;       // > 0: skewed repetition over this many queries
  size_t fresh_queries = 0;  // per reader, when hot_pool == 0
  double checkpoint_every_s = 0.0;  // 0: no checkpointer
  double read_tail_pct = 99.0;
  // Read and freshness figures per one-second slice (see SlicedLatency), or
  // pooled over the window where slices would hold too few samples.
  bool sliced = true;
  double mae_bound = 0.0;
  size_t eval_queries = 4096;  // accuracy is measured on this many queries

  int dims() const { return spec.dims; }
};

selectivity::EstimatorSpec ShardedSpec(const char* inner) {
  selectivity::EstimatorSpec spec;
  spec.tag = "sharded";
  spec.sharded_inner_tag = inner;
  spec.shards = 4;
  return spec;
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "hot-hist") {
    w.spec = ShardedSpec("equi-width");
    w.spec.buckets = 256;
    w.dependence = harness::DependenceCase::kLogisticMap;
    w.prefill = 1 << 18;
    w.write_rate = 500000.0;
    w.block = 4096;
    w.readers = 2;
    w.batch = 64;
    w.centres = Centres::kGauss;
    w.hot_pool = 1024;
    w.mae_bound = 0.01;
  } else if (name == "kde-scan") {
    w.spec = ShardedSpec("kde-rot");
    w.publish_interval = 16384;
    w.dependence = harness::DependenceCase::kNoncausalMa;
    w.prefill = 200000;
    w.write_rate = 5000.0;
    w.block = 32;
    w.readers = 2;
    w.batch = 16;
    w.centres = Centres::kData;
    w.fresh_queries = 1 << 17;
    w.checkpoint_every_s = 2.0;
    w.read_tail_pct = 98.0;
    w.sliced = false;
    w.mae_bound = 0.02;
  } else if (name == "rect-2d") {
    w.spec = ShardedSpec("kde2d-prod");
    w.spec.dims = 2;
    w.prefill = 2 * 100000;
    w.write_rate = 2 * 2000.0;
    w.block = 32;
    w.readers = 2;
    w.batch = 8;
    w.centres = Centres::kGauss;
    w.fresh_queries = 1 << 15;
    w.read_tail_pct = 95.0;
    w.sliced = false;
    w.mae_bound = 0.02;
    w.eval_queries = 1024;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

// ------------------------------------------------------------------ streams

/// The paper's §5.2 sampling X = F^{-1}(G(Y)): one sequential raw path, then
/// the per-value quantile transform (~4 µs through the mixture's bisection
/// inverse) split across threads. Same values as TransformedProcess::Sample.
std::vector<double> Stream1d(harness::DependenceCase dependence, size_t n,
                             stats::Rng& rng,
                             const processes::TargetDensity& target) {
  std::unique_ptr<processes::RawProcess> raw;
  if (dependence == harness::DependenceCase::kNoncausalMa) {
    // N = 256 fixed-point iterations: the (4/5)^N approximation error of
    // the Doukhan–Truquet scheme is far below double precision, where the
    // paper's N = n would cost O(n²).
    raw = std::make_unique<processes::NoncausalMaProcess>(
        256.0 / static_cast<double>(n));
  } else {
    raw = std::make_unique<processes::LogisticMapProcess>();
  }
  std::vector<double> values = raw->Path(n, rng);
  const size_t workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t * n / workers; i < (t + 1) * n / workers; ++i) {
        values[i] = target.InverseCdf(raw->MarginalCdf(values[i]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return values;
}

/// Copies `count` values starting at logical stream position `pos`; the
/// stream repeats once exhausted (its marginal is stationary, so the
/// analytic truth still holds).
void CopyStream(const std::vector<double>& stream, size_t pos, size_t count,
                std::vector<double>* out) {
  out->resize(count);
  for (size_t i = 0; i < count; ++i) (*out)[i] = stream[(pos + i) % stream.size()];
}

// ------------------------------------------------------------------ queries

/// The three centre generators of the feedback-KDE query generator: a random
/// data point, a uniform point of the domain, or the next of kClusters
/// uniform cluster centres plus Gaussian noise.
class CentreSource {
 public:
  CentreSource(Centres kind, const std::vector<double>* data, int dims,
               stats::Rng& rng)
      : kind_(kind), data_(data), dims_(dims) {
    for (int i = 0; i < kClusters * dims; ++i) clusters_.push_back(rng.UniformDouble());
  }

  void Next(stats::Rng& rng, double* centre) {
    const size_t d = static_cast<size_t>(dims_);
    switch (kind_) {
      case Centres::kData: {
        const size_t obs = data_->size() / d;
        const size_t i = static_cast<size_t>(rng.UniformInt(obs));
        for (size_t k = 0; k < d; ++k) centre[k] = (*data_)[i * d + k];
        return;
      }
      case Centres::kUniform:
        for (size_t k = 0; k < d; ++k) centre[k] = rng.UniformDouble();
        return;
      case Centres::kGauss: {
        for (size_t k = 0; k < d; ++k) {
          centre[k] = std::clamp(clusters_[next_ * d + k] + rng.Gaussian(0.0, 0.03),
                                 0.0, 1.0);
        }
        next_ = (next_ + 1) % (clusters_.size() / d);
        return;
      }
    }
  }

 private:
  Centres kind_;
  const std::vector<double>* data_;
  int dims_;
  std::vector<double> clusters_;
  size_t next_ = 0;
};

constexpr QueryKind kKinds1d[] = {QueryKind::kRange, QueryKind::kPoint,
                                  QueryKind::kLess,  QueryKind::kGreater,
                                  QueryKind::kCdf,   QueryKind::kQuantile};
constexpr QueryKind kKinds2d[] = {QueryKind::kRect, QueryKind::kMarginal,
                                  QueryKind::kConditional};
constexpr QueryKind kAllKinds[] = {
    QueryKind::kRange,    QueryKind::kPoint, QueryKind::kLess,
    QueryKind::kGreater,  QueryKind::kCdf,   QueryKind::kQuantile,
    QueryKind::kRect,     QueryKind::kMarginal, QueryKind::kConditional};

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange: return "range";
    case QueryKind::kPoint: return "point";
    case QueryKind::kLess: return "less";
    case QueryKind::kGreater: return "greater";
    case QueryKind::kCdf: return "cdf";
    case QueryKind::kQuantile: return "quantile";
    case QueryKind::kRect: return "rect";
    case QueryKind::kMarginal: return "marginal";
    case QueryKind::kConditional: return "conditional";
  }
  return "?";
}

/// Draws a kind: 1-D workloads use the library's default kind mix, 2-D ones
/// half rectangles, a quarter each marginals and conditionals.
QueryKind DrawKind(stats::Rng& rng, int dims, bool mass_only) {
  if (dims == 2) {
    const double u = rng.UniformDouble();
    return u < 0.5 ? QueryKind::kRect
                   : (u < 0.75 ? QueryKind::kMarginal : QueryKind::kConditional);
  }
  const selectivity::QueryKindMix mix;
  const double weights[] = {mix.range, mix.point,   mix.less,
                            mix.greater, mix.cdf, mass_only ? 0.0 : mix.quantile};
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng.UniformDouble() * total;
  for (size_t k = 0; k < 6; ++k) {
    if (u < weights[k]) return kKinds1d[k];
    u -= weights[k];
  }
  return QueryKind::kRange;
}

/// One query of `kind` around `centre`: ranges and rectangles get widths
/// uniform in [0.01, 0.1] (1-D) or [0.05, 0.3] per axis (2-D); single-point
/// kinds take the centre itself (a quantile level, for kQuantile).
Query MakeQuery(QueryKind kind, const double* centre, int dims, stats::Rng& rng) {
  const double w0 = dims == 2 ? rng.Uniform(0.05, 0.3) : rng.Uniform(0.01, 0.1);
  const double w1 = dims == 2 ? rng.Uniform(0.05, 0.3) : 0.0;
  const double c0 = centre[0];
  const double c1 = dims == 2 ? centre[1] : 0.0;
  switch (kind) {
    case QueryKind::kRange: return Query::Range(c0 - w0 / 2, c0 + w0 / 2);
    case QueryKind::kPoint: return Query::Point(c0);
    case QueryKind::kLess: return Query::Less(c0);
    case QueryKind::kGreater: return Query::Greater(c0);
    case QueryKind::kCdf: return Query::Cdf(c0);
    case QueryKind::kQuantile: return Query::Quantile(c0);
    case QueryKind::kRect:
      return Query::Rect(c0 - w0 / 2, c0 + w0 / 2, c1 - w1 / 2, c1 + w1 / 2);
    case QueryKind::kMarginal: {
      const uint8_t axis = dims == 2 ? static_cast<uint8_t>(rng.UniformInt(2)) : 0;
      const double c = axis == 0 ? c0 : c1;
      const double w = axis == 0 ? w0 : w1;
      return Query::Marginal(axis, c - w / 2, c + w / 2);
    }
    case QueryKind::kConditional:
      return Query::Conditional(c0 - w0 / 2, c0 + w0 / 2, c1 - w1 / 2, c1 + w1 / 2);
  }
  return Query::Range(0.0, 1.0);
}

std::vector<Query> Generate(CentreSource& source, stats::Rng& rng, int dims,
                            size_t count, bool mass_only) {
  std::vector<Query> out;
  out.reserve(count);
  double centre[2] = {0.0, 0.0};
  for (size_t i = 0; i < count; ++i) {
    source.Next(rng, centre);
    out.push_back(MakeQuery(DrawKind(rng, dims, mass_only), centre, dims, rng));
  }
  return out;
}

/// Batches of `batch` queries drawn from `pool` with Zipf(1.1) repetition
/// over a random popularity order: the hot-query traffic a result cache is
/// for.
std::vector<Query> SkewedBatches(const std::vector<Query>& pool, size_t batches,
                                 size_t batch, stats::Rng& rng) {
  std::vector<size_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(i))]);
  }
  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.1);
    cdf[r] = total;
  }
  std::vector<Query> out;
  out.reserve(batches * batch);
  for (size_t i = 0; i < batches * batch; ++i) {
    const double u = rng.UniformDouble() * total;
    const size_t rank = std::min(
        pool.size() - 1,
        static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    out.push_back(pool[order[rank]]);
  }
  return out;
}

// -------------------------------------------------------------------- truth

/// The exact mass of a mass-kind query over the ingested values: the stream's
/// first `ingested` values (it repeats once exhausted), as the estimator
/// answers it — closed intervals, point queries as [x - w/2, x + w/2].
class ExactTruth {
 public:
  ExactTruth(const std::vector<double>& stream, size_t ingested, int dims)
      : dims_(dims), total_(static_cast<double>(ingested / static_cast<size_t>(dims))) {
    const size_t cycles = ingested / stream.size();
    const size_t rest = ingested % stream.size();
    if (dims == 2) {
      // Brute-force counts; 2-D streams are sized never to repeat.
      WDE_CHECK(cycles <= 1 && (cycles == 0 || rest == 0));
      obs_.assign(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(ingested));
      return;
    }
    // 1-D: a sorted copy of the whole stream weighted by its full cycles,
    // plus the sorted remainder.
    full_weight_ = static_cast<double>(cycles);
    if (cycles > 0) {
      full_ = stream;
      std::sort(full_.begin(), full_.end());
    }
    rest_.assign(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(rest));
    std::sort(rest_.begin(), rest_.end());
  }

  double Mass(const Query& q, double equality_width) const {
    const double inf = std::numeric_limits<double>::infinity();
    if (dims_ == 1) {
      switch (q.kind) {
        case QueryKind::kRange:
        case QueryKind::kMarginal:
          return Count1d(q.a, q.b);
        case QueryKind::kPoint:
          return Count1d(q.a - equality_width / 2, q.a + equality_width / 2);
        case QueryKind::kLess:
        case QueryKind::kCdf:
          return Count1d(-inf, q.a);
        case QueryKind::kGreater:
          return Count1d(q.a, inf);
        default:
          return 0.0;
      }
    }
    switch (q.kind) {
      case QueryKind::kRect:
        return Count2d(q.a, q.b, q.c, q.d) / total_;
      case QueryKind::kMarginal:
        return (q.axis == 0 ? Count2d(q.a, q.b, -inf, inf) : Count2d(-inf, inf, q.a, q.b)) /
               total_;
      case QueryKind::kConditional: {
        const double condition = Count2d(-inf, inf, q.c, q.d);
        return condition > 0.0 ? Count2d(q.a, q.b, q.c, q.d) / condition : 0.0;
      }
      default:
        return 0.0;
    }
  }

 private:
  static double InClosed(const std::vector<double>& sorted, double lo, double hi) {
    if (lo > hi) return 0.0;
    return static_cast<double>(std::upper_bound(sorted.begin(), sorted.end(), hi) -
                               std::lower_bound(sorted.begin(), sorted.end(), lo));
  }

  double Count1d(double lo, double hi) const {
    return (full_weight_ * InClosed(full_, lo, hi) + InClosed(rest_, lo, hi)) / total_;
  }

  double Count2d(double lo0, double hi0, double lo1, double hi1) const {
    size_t n = 0;
    for (size_t i = 0; i + 1 < obs_.size(); i += 2) {
      n += obs_[i] >= lo0 && obs_[i] <= hi0 && obs_[i + 1] >= lo1 && obs_[i + 1] <= hi1;
    }
    return static_cast<double>(n);
  }

  int dims_;
  double total_;
  double full_weight_ = 0.0;
  std::vector<double> full_, rest_, obs_;
};

/// The analytic mass of a 1-D mass-kind query under the stream's marginal.
double AnalyticMass(const processes::TargetDensity& target, const Query& q,
                    double equality_width) {
  const auto cdf = [&](double x) { return target.Cdf(std::clamp(x, 0.0, 1.0)); };
  switch (q.kind) {
    case QueryKind::kRange:
    case QueryKind::kMarginal:
      return cdf(q.b) - cdf(q.a);
    case QueryKind::kPoint:
      return cdf(q.a + equality_width / 2) - cdf(q.a - equality_width / 2);
    case QueryKind::kLess:
    case QueryKind::kCdf:
      return cdf(q.a);
    case QueryKind::kGreater:
      return 1.0 - cdf(q.a);
    default:
      return 0.0;
  }
}

// ------------------------------------------------------------------ helpers

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Sleeps to within 200 µs of `due`, then spins, so the writer's schedule
/// does not inherit the scheduler's wake-up jitter.
void WaitUntil(Clock::time_point due) {
  const auto coarse = due - std::chrono::microseconds(200);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) {
  }
}

/// Nearest-rank percentile of an unsorted sample (copied).
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t index = std::min(
      v.size() - 1, static_cast<size_t>(pct / 100.0 * static_cast<double>(v.size())));
  return v[index];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

size_t Beyond(size_t n, double pct) {
  if (n == 0) return 0;
  const size_t index =
      std::min(n - 1, static_cast<size_t>(pct / 100.0 * static_cast<double>(n)));
  return n - 1 - index;
}

/// A latency statistic and how it was taken (percentile, sample counts).
struct Stat {
  double value = 0.0;
  std::string how;
};

Stat PooledLatency(const std::vector<double>& samples, double pct) {
  char how[160];
  std::snprintf(how, sizeof(how), "p%g of %zu pooled samples (%zu beyond)", pct,
                samples.size(), Beyond(samples.size(), pct));
  return Stat{Percentile(samples, pct), how};
}

/// `pct` of each one-second slice's samples, then the better (lower)
/// quartile over the slices. A shared host stalls whole seconds at a time;
/// the quartile keeps such seconds out of the figure unless they fill three
/// quarters of the window — the same one-sided-noise reasoning as
/// bench_common's best-of timings.
Stat SlicedLatency(const std::vector<std::vector<double>>& slices, double pct) {
  std::vector<double> per_slice;
  size_t fewest = std::numeric_limits<size_t>::max();
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    per_slice.push_back(Percentile(slice, pct));
    fewest = std::min(fewest, slice.size());
  }
  if (per_slice.empty()) return Stat{0.0, "no samples"};
  char how[160];
  std::snprintf(how, sizeof(how),
                "p%g per 1-s slice, lower quartile of %zu slices (>= %zu samples, "
                ">= %zu beyond, per slice)",
                pct, per_slice.size(), fewest, Beyond(fewest, pct));
  return Stat{Percentile(per_slice, 25.0), how};
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double LoadAverage() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

serving::ServiceOptions ServiceOptionsFor(const Workload& w, bool cache) {
  serving::ServiceOptions options;  // default cache geometry on every workload
  options.publish_interval = w.publish_interval;
  if (!cache) options.cache_shards = 0;
  return options;
}

std::unique_ptr<EstimatorService> MakeService(const Workload& w, bool cache) {
  Result<std::unique_ptr<EstimatorService>> service =
      EstimatorService::Create(w.spec, ServiceOptionsFor(w, cache));
  WDE_CHECK(service.ok(), service.status().ToString().c_str());
  return std::move(service).value();
}

std::unique_ptr<selectivity::ShardedSelectivityEstimator> MakeEngine(const Workload& w) {
  Result<std::unique_ptr<selectivity::SelectivityEstimator>> made =
      selectivity::MakeEstimator(w.spec);
  WDE_CHECK(made.ok(), made.status().ToString().c_str());
  auto* sharded = dynamic_cast<selectivity::ShardedSelectivityEstimator*>(made->get());
  WDE_CHECK(sharded != nullptr);
  made->release();
  return std::unique_ptr<selectivity::ShardedSelectivityEstimator>(sharded);
}

std::vector<double> AnswerAll(const selectivity::SelectivityEstimator& e,
                              const std::vector<Query>& queries) {
  std::vector<double> out(queries.size());
  e.Answer(queries, out);
  return out;
}

std::vector<double> AnswerAll(const EstimatorService& s,
                              const std::vector<Query>& queries) {
  std::vector<double> out(queries.size());
  s.Answer(queries, out);
  return out;
}

// No restore entry point accepts a 2-D sharded checkpoint yet:
// EstimatorService::Restore (and every registry loader) rebuilds a "sharded"
// envelope from a 1-D shell, which rejects the DIMS chunk, and
// ShardedSelectivityEstimator::Restore's framing pre-check does not expect
// that chunk either. Until they do, 2-D workloads checkpoint the sharded
// engine, load the file into a live 2-D engine with LoadState (which
// validates DIMS against itself) and wrap it in a new service — the same
// state and work, one layer down.

/// Writes the checkpoint of the prefilled state that every set-up restores,
/// and returns the answers its view gives on `pool`.
std::vector<double> WritePrefillCheckpoint(const Workload& w,
                                           std::span<const double> prefill,
                                           const std::string& path,
                                           const std::vector<Query>& pool,
                                           Status* status) {
  if (w.dims() == 1) {
    std::unique_ptr<EstimatorService> original = MakeService(w, true);
    original->InsertBatch(prefill);
    original->Publish();
    *status = original->Checkpoint(path);
    return AnswerAll(*original->CurrentView().estimator, pool);
  }
  std::unique_ptr<selectivity::ShardedSelectivityEstimator> engine = MakeEngine(w);
  engine->InsertBatch(prefill);
  *status = engine->Checkpoint(path);
  return AnswerAll(*engine->ExtractMergedView(), pool);
}

/// Create + Restore of the prefilled checkpoint; `restore_ms` times the
/// Restore call alone.
Result<std::unique_ptr<EstimatorService>> RestoreService(const Workload& w,
                                                         const std::string& path,
                                                         double* restore_ms) {
  if (w.dims() == 1) {
    std::unique_ptr<EstimatorService> service = MakeService(w, true);
    const auto r0 = Clock::now();
    const Status status = service->Restore(path);
    *restore_ms = SecondsBetween(r0, Clock::now()) * 1e3;
    if (!status.ok()) return status;
    return service;
  }
  std::unique_ptr<selectivity::ShardedSelectivityEstimator> engine = MakeEngine(w);
  const auto r0 = Clock::now();
  Result<io::FileSource> file = io::FileSource::Open(path);
  if (!file.ok()) return file.status();
  WDE_RETURN_IF_ERROR(io::ReadSnapshotHeader(*file).status());
  WDE_RETURN_IF_ERROR(engine->LoadState(*file));
  *restore_ms = SecondsBetween(r0, Clock::now()) * 1e3;
  return EstimatorService::Create(std::move(engine), ServiceOptionsFor(w, true));
}

// ------------------------------------------------------------------ tracing

/// One span: a timed public call, relative to the window start. `request`
/// is the reader batch or writer block the call served.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(uint64_t thread_tag) : next_id_(thread_tag << 40) {
    spans_.reserve(1024);
  }

  uint64_t Add(const char* name, double start_s, double end_s, uint64_t parent,
               uint64_t request) {
    const uint64_t id = ++next_id_;
    if (spans_.size() < kMaxSpansPerThread) {
      spans_.push_back(Span{name, start_s, end_s, id, parent, request});
    } else {
      ++dropped_;
    }
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

// -------------------------------------------------------------- the window

struct BlockRecord {
  double due = 0.0;  // seconds since the window start
  double start = 0.0;
  double end = 0.0;
  bool bumped = false;  // this InsertBatch published an epoch
  uint64_t epoch = 0;   // epoch after the call
};

/// A sampled concurrent batch whose Answer() provably ran at the pinned
/// view's epoch; replayed through the pin after quiesce.
struct PinnedSample {
  EstimatorService::View view;
  size_t offset = 0;  // into the reader's query sequence
  std::vector<double> answers;
};

struct ReaderResult {
  std::vector<float> latency_us;  // preallocated: RSS must not track throughput
  size_t recorded = 0;
  std::vector<size_t> slice_queries;
  std::vector<size_t> slice_end;  // latency_us index one past each slice
  size_t batches = 0;
  size_t failed_batches = 0;
  std::vector<PinnedSample> samples;
  // Traced slices only.
  std::vector<double> self_us;
  std::vector<std::pair<double, uint64_t>> epoch_seen;  // (time, epoch)
  size_t traced_batches = 0;
  SpanLog spans{0};
};

struct CheckpointRecord {
  double ms = 0.0;
  bool ok = false;
};

struct WindowResult {
  double achieved_s = 0.0;
  std::vector<ReaderResult> readers;
  std::vector<BlockRecord> blocks;
  size_t blocks_scheduled = 0;
  size_t blocks_missed = 0;  // not admitted by the drain deadline
  SpanLog writer_spans{1};
  SpanLog checkpoint_spans{2};
  std::vector<CheckpointRecord> checkpoints;
  std::vector<serving::CacheStats> slice_cache;  // cumulative, at slice ends
  serving::CacheStats cache_at_start;
};

bool SliceTraced(bool trace, size_t slice) { return trace && slice % 2 == 1; }

size_t SliceOf(double t, size_t slices) {
  return std::min(slices - 1, static_cast<size_t>(std::max(0.0, t) / kSliceSeconds));
}

WindowResult RunWindow(const Workload& w, EstimatorService& service,
                       const std::vector<double>& stream,
                       const std::vector<std::vector<Query>>& reader_queries,
                       double seconds, bool trace, const std::string& scratch) {
  WindowResult result;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(seconds / kSliceSeconds)));
  const double period = static_cast<double>(w.block) / w.write_rate;
  result.blocks_scheduled = static_cast<size_t>(seconds / period);
  result.readers.resize(static_cast<size_t>(w.readers));
  result.cache_at_start = service.cache_stats();

  const auto t0 = Clock::now() + std::chrono::milliseconds(50);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto since = [&](Clock::time_point t) { return SecondsBetween(t0, t); };

  std::thread writer([&] {
    std::vector<double> block;
    result.blocks.reserve(result.blocks_scheduled);
    for (size_t i = 0; i < result.blocks_scheduled; ++i) {
      CopyStream(stream, w.prefill + i * w.block, w.block, &block);
      const double due = static_cast<double>(i) * period;
      WaitUntil(at(due));
      const auto start = Clock::now();
      if (since(start) > seconds + kDrainSeconds) {
        result.blocks_missed = result.blocks_scheduled - i;
        break;
      }
      const uint64_t before = service.epoch();
      service.InsertBatch(block);
      const auto end = Clock::now();
      const uint64_t after = service.epoch();
      BlockRecord record{due, since(start), since(end), after != before, after};
      result.blocks.push_back(record);
      const uint64_t block_span = result.writer_spans.Add(
          "bench.writer.block", record.due, record.end, 0, i);
      result.writer_spans.Add(record.bumped ? "serving.InsertBatch+publish"
                                            : "serving.InsertBatch",
                              record.start, record.end, block_span, i);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < w.readers; ++r) {
    readers.emplace_back([&, r] {
      ReaderResult& out = result.readers[static_cast<size_t>(r)];
      out.spans = SpanLog(3 + static_cast<uint64_t>(r));
      out.slice_queries.assign(slices, 0);
      out.slice_end.assign(slices, 0);
      out.latency_us.assign(kLatencyCapacity, 0.0f);
      const std::vector<Query>& queries = reader_queries[static_cast<size_t>(r)];
      const size_t sequence = queries.size() / w.batch;
      std::vector<double> answers(w.batch);
      std::vector<double> direct(w.batch);
      const double sample_every = seconds / static_cast<double>(kSamplesPerReader);
      double next_sample = sample_every * (0.5 + 0.1 * r);
      std::this_thread::sleep_until(t0);
      for (size_t b = 0;; ++b) {
        const double now = since(Clock::now());
        if (now >= seconds) break;
        const bool traced = SliceTraced(trace, SliceOf(now, slices));
        const size_t offset = (b % sequence) * w.batch;
        const std::span<const Query> batch(queries.data() + offset, w.batch);
        EstimatorService::View pin;
        const bool sampling = now >= next_sample;
        if (sampling) pin = service.CurrentView();
        const uint64_t epoch_seen = traced ? service.epoch() : 0;
        const auto a = Clock::now();
        service.Answer(batch, answers);
        const auto e = Clock::now();
        const double us = std::chrono::duration<double, std::micro>(e - a).count();
        if (out.recorded < kLatencyCapacity) out.latency_us[out.recorded++] = static_cast<float>(us);
        const size_t slice = SliceOf(since(e), slices);
        out.slice_queries[slice] += w.batch;
        out.slice_end[slice] = out.recorded;
        ++out.batches;
        for (double v : answers) {
          if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
            ++out.failed_batches;
            break;
          }
        }
        if (sampling) {
          next_sample += sample_every;
          if (service.epoch() == pin.epoch) {
            out.samples.push_back(PinnedSample{std::move(pin), offset, answers});
          }
        }
        if (traced) {
          ++out.traced_batches;
          out.spans.Add("serving.EstimatorService::Answer", since(a), since(e), 0, b);
          out.epoch_seen.emplace_back(since(a), epoch_seen);
          if (out.traced_batches % 16 == 1) {
            const EstimatorService::View view = service.CurrentView();
            const auto d0 = Clock::now();
            view.estimator->Answer(batch, direct);
            const auto d1 = Clock::now();
            out.spans.Add("selectivity::SelectivityEstimator::Answer", since(d0),
                          since(d1), 0, b);
            out.self_us.push_back(
                us - std::chrono::duration<double, std::micro>(d1 - d0).count());
          }
        }
      }
    });
  }

  // This thread samples the cache counters at slice ends and runs the
  // periodic checkpointer, if the workload has one.
  double next_checkpoint = w.checkpoint_every_s > 0.0
                               ? 0.5 * kSliceSeconds
                               : std::numeric_limits<double>::infinity();
  const std::string path = scratch + "/window-checkpoint.bin";
  for (size_t s = 0; s < slices; ++s) {
    const double slice_end = std::min(seconds, static_cast<double>(s + 1) * kSliceSeconds);
    while (next_checkpoint < slice_end) {
      std::this_thread::sleep_until(at(next_checkpoint));
      const auto c0 = Clock::now();
      const Status status = service.Checkpoint(path);
      const auto c1 = Clock::now();
      result.checkpoints.push_back(CheckpointRecord{SecondsBetween(c0, c1) * 1e3, status.ok()});
      result.checkpoint_spans.Add("serving.EstimatorService::Checkpoint", since(c0),
                              since(c1), 0, result.checkpoints.size());
      next_checkpoint += w.checkpoint_every_s;
    }
    std::this_thread::sleep_until(at(slice_end));
    result.slice_cache.push_back(service.cache_stats());
  }
  for (std::thread& reader : readers) reader.join();
  result.achieved_s = since(Clock::now());
  writer.join();
  return result;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  void Fail(const std::string& check, const std::string& detail) {
    std::printf("CHECK FAILED %s: %s\n", check.c_str(), detail.c_str());
    correct_ = false;
  }

  void Pass(const std::string& check, const std::string& detail) {
    std::printf("check ok %s: %s\n", check.c_str(), detail.c_str());
  }

  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
  }
  return Median(ms);
}

/// The single-thread side replay of the traced run: the same stream through
/// MakeEstimator(spec) (the sharded engine, no service around it), timing
/// ingest, merged-view extraction and warm-up, per-kind answers on the final
/// view, and the snapshot file helpers on that view (one estimator of the
/// inner tag: the registry cannot reload a 2-D sharded envelope, see
/// RestoreService). Returns false on a snapshot error.
bool SideReplay(const Workload& w, const std::vector<double>& stream,
                size_t ingested, CentreSource& centres, const std::string& scratch,
                Report* report, uint64_t* attempted) {
  std::unique_ptr<selectivity::ShardedSelectivityEstimator> sharded = MakeEngine(w);
  const size_t total = std::min(ingested, size_t{1} << 20);
  const size_t extract_every = std::max(w.publish_interval, total / 16);
  std::vector<double> block;
  std::vector<double> insert_us, extract_ms, warm_ms, clone_us;
  std::unique_ptr<selectivity::SelectivityEstimator> view;
  size_t since_extract = 0;
  const Query probe = w.dims() == 2 ? Query::Rect(0.25, 0.75, 0.25, 0.75)
                                   : Query::Range(0.25, 0.75);
  for (size_t pos = 0; pos < total; pos += w.block) {
    CopyStream(stream, pos, std::min(w.block, total - pos), &block);
    const auto i0 = Clock::now();
    sharded->InsertBatch(block);
    insert_us.push_back(SecondsBetween(i0, Clock::now()) * 1e6);
    since_extract += block.size();
    if (since_extract >= extract_every || pos + w.block >= total) {
      since_extract = 0;
      const auto e0 = Clock::now();
      view = sharded->ExtractMergedView();
      const auto e1 = Clock::now();
      view->Answer(probe);
      const auto e2 = Clock::now();
      std::unique_ptr<selectivity::SelectivityEstimator> clone = view->CloneForView();
      const auto e3 = Clock::now();
      extract_ms.push_back(SecondsBetween(e0, e1) * 1e3);
      warm_ms.push_back(SecondsBetween(e1, e2) * 1e3);
      if (clone != nullptr) clone_us.push_back(SecondsBetween(e2, e3) * 1e6);
    }
  }

  // Per-kind cost on the final (warm) view: single-kind batches of 64
  // queries around the workload's own centre generator.
  stats::Rng rng(7);
  for (QueryKind kind : kAllKinds) {
    std::vector<Query> batch;
    double centre[2] = {0.0, 0.0};
    for (size_t i = 0; i < 64; ++i) {
      centres.Next(rng, centre);
      batch.push_back(MakeQuery(kind, centre, w.dims(), rng));
    }
    std::vector<double> out(batch.size());
    std::vector<double> per_query_ns;
    const auto begin = Clock::now();
    while (per_query_ns.size() < 3 || SecondsBetween(begin, Clock::now()) < 0.02) {
      const auto a0 = Clock::now();
      view->Answer(batch, out);
      per_query_ns.push_back(SecondsBetween(a0, Clock::now()) * 1e9 /
                             static_cast<double>(batch.size()));
    }
    report->Add(std::string("selectivity.answer.") + KindName(kind) + ".ns",
                Median(per_query_ns), "ns");
  }
  report->Add("selectivity.sharded.insert.us", Median(insert_us), "us");
  report->Add("selectivity.sharded.extract.ms", Median(extract_ms), "ms");
  report->Add("selectivity.view.warm_ms", Median(warm_ms), "ms");
  report->Add("selectivity.clone_for_view.us", Median(clone_us), "us");

  bool ok = true;
  const std::string portable = scratch + "/side-portable.snap";
  const std::string fast = scratch + "/side-fast.snap";
  const auto track = [&](const Status& status) {
    ++*attempted;
    if (!status.ok()) {
      std::printf("snapshot error: %s\n", status.ToString().c_str());
      ok = false;
    }
  };
  const double save_ms = MedianMs(3, [&] {
    track(selectivity::SaveEstimatorSnapshotFile(*view, portable));
  });
  const double load_ms = MedianMs(3, [&] {
    track(selectivity::LoadEstimatorSnapshotFile(portable).status());
  });
  const double fast_save_ms = MedianMs(3, [&] {
    track(selectivity::SaveEstimatorSnapshotFastFile(*view, fast));
  });
  const double mapped_load_ms = MedianMs(3, [&] {
    track(selectivity::LoadEstimatorSnapshotFileMapped(fast).status());
  });
  std::error_code ec;
  report->Add("io.snapshot.bytes",
              static_cast<double>(std::filesystem::file_size(portable, ec)), "bytes");
  report->Add("io.snapshot.save_ms", save_ms, "ms");
  report->Add("io.snapshot.load_ms", load_ms, "ms");
  report->Add("memory.snapshot.bytes",
              static_cast<double>(std::filesystem::file_size(fast, ec)), "bytes");
  report->Add("memory.snapshot.save_ms", fast_save_ms, "ms");
  report->Add("memory.snapshot.mapped_load_ms", mapped_load_ms, "ms");
  return ok;
}

void WriteSpans(const std::string& path, const WindowResult& window) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::printf("cannot write spans to %s: %s\n", path.c_str(), std::strerror(errno));
    return;
  }
  size_t written = 0;
  size_t dropped = window.writer_spans.dropped() + window.checkpoint_spans.dropped();
  const auto dump = [&](const SpanLog& log) {
    for (const Span& s : log.spans()) {
      std::fprintf(file,
                   "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"id\": %llu, \"parent\": %llu, \"request\": %llu}\n",
                   s.name, s.start_s, s.end_s, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      ++written;
    }
  };
  dump(window.writer_spans);
  dump(window.checkpoint_spans);
  for (const ReaderResult& r : window.readers) {
    dump(r.spans);
    dropped += r.spans.dropped();
  }
  std::fclose(file);
  std::printf("spans: %zu written to %s (%zu dropped over the per-thread cap)\n",
              written, path.c_str(), dropped);
}

int Run(const Args& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double load_start = LoadAverage();
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // ---- inputs, all from the seed, none of it timed
  stats::Rng master(args.seed);
  const auto target = std::make_shared<processes::TruncatedGaussianMixtureDensity>(
      processes::TruncatedGaussianMixtureDensity::Bimodal());
  const double period = static_cast<double>(w.block) / w.write_rate;
  const size_t needed =
      w.prefill + (static_cast<size_t>(args.seconds / period) + 1) * w.block;
  std::vector<double> stream;
  {
    stats::Rng rng = master.Fork(1);
    if (w.dims() == 2) {
      multidim::SampleAntiProduct2d(rng, needed / 2, 0.05, &stream);
    } else {
      stream = Stream1d(w.dependence, std::min<size_t>(needed, size_t{1} << 20), rng,
                        *target);
    }
  }
  stats::Rng cluster_rng = master.Fork(2);
  CentreSource centres(w.centres, &stream, w.dims(), cluster_rng);
  std::vector<std::vector<Query>> reader_queries;
  std::vector<Query> check_pool;
  if (w.hot_pool > 0) {
    stats::Rng rng = master.Fork(3);
    check_pool = Generate(centres, rng, w.dims(), w.hot_pool, false);
    for (int r = 0; r < w.readers; ++r) {
      stats::Rng reader_rng = master.Fork(10 + static_cast<uint64_t>(r));
      reader_queries.push_back(SkewedBatches(check_pool, 1024, w.batch, reader_rng));
    }
  } else {
    for (int r = 0; r < w.readers; ++r) {
      stats::Rng reader_rng = master.Fork(10 + static_cast<uint64_t>(r));
      reader_queries.push_back(
          Generate(centres, reader_rng, w.dims(), w.fresh_queries, false));
    }
    check_pool.assign(reader_queries[0].begin(), reader_queries[0].begin() + 256);
  }
  std::vector<Query> eval_pool;
  {
    stats::Rng rng = master.Fork(4);
    CentreSource uniform(Centres::kUniform, &stream, w.dims(), rng);
    eval_pool = Generate(uniform, rng, w.dims(), w.eval_queries, true);
  }

  // ---- set-up: a prefilled state checkpointed before timing, then
  // Create + Restore + the first answered batch, repeated.
  std::filesystem::create_directories(args.scratch);
  const std::string prefill_path = args.scratch + "/prefill-checkpoint.bin";
  Status checkpointed = Status::OK();
  const std::vector<double> checkpointed_answers = WritePrefillCheckpoint(
      w, std::span<const double>(stream.data(), w.prefill), prefill_path, check_pool,
      &checkpointed);
  ++attempted;
  if (!checkpointed.ok()) {
    ++failed;
    std::printf("prefill checkpoint failed: %s\n", checkpointed.ToString().c_str());
  }
  std::vector<Query> first_batch;
  {
    // The first answered batch of every set-up: the workload's kinds in a
    // fixed rotation, so its cost does not hinge on the seed's kind draw.
    stats::Rng rng = master.Fork(5);
    double centre[2] = {0.0, 0.0};
    for (size_t i = 0; i < w.batch; ++i) {
      centres.Next(rng, centre);
      const QueryKind kind = w.dims() == 2 ? kKinds2d[i % std::size(kKinds2d)]
                                           : kKinds1d[i % std::size(kKinds1d)];
      first_batch.push_back(MakeQuery(kind, centre, w.dims(), rng));
    }
  }
  std::vector<double> setup_s, restore_ms;
  std::unique_ptr<EstimatorService> service;
  const auto setup_begin = Clock::now();
  while (setup_s.size() < kMinSetupRepeats ||
         (setup_s.size() < kMaxSetupRepeats &&
          SecondsBetween(setup_begin, Clock::now()) < kSetupSeconds)) {
    service.reset();
    const auto s0 = Clock::now();
    double ms = 0.0;
    Result<std::unique_ptr<EstimatorService>> restored =
        RestoreService(w, prefill_path, &ms);
    ++attempted;
    if (!restored.ok()) {
      ++failed;
      std::printf("restore failed: %s\n", restored.status().ToString().c_str());
      service = MakeService(w, true);
    } else {
      service = std::move(restored).value();
    }
    std::vector<double> out(first_batch.size());
    service->Answer(first_batch, out);
    setup_s.push_back(SecondsBetween(s0, Clock::now()));
    restore_ms.push_back(ms);
  }
  if (BitwiseEqual(checkpointed_answers, AnswerAll(*service, check_pool))) {
    report.Pass("restore", std::to_string(check_pool.size()) +
                               " answers bitwise-equal to the checkpointed view");
  } else {
    report.Fail("restore", "restored service differs from the checkpointed view");
  }

  // ---- the timed window
  const WindowResult window = RunWindow(w, *service, stream, reader_queries,
                                        args.seconds, args.trace, args.scratch);
  const size_t ingested = w.prefill + window.blocks.size() * w.block;
  // Read before the checks below allocate: the figure covers the inputs,
  // set-up and the window, not the benchmark's own bookkeeping after it.
  const double peak_rss_mb = PeakRssMb();

  // ---- quiesce and check
  service->Publish();
  const EstimatorService::View final_view = service->CurrentView();
  final_view.estimator->ForceRefit();

  size_t replayed = 0;
  size_t replay_mismatch = 0;
  for (size_t r = 0; r < window.readers.size(); ++r) {
    for (const PinnedSample& sample : window.readers[r].samples) {
      const std::vector<Query> queries(
          reader_queries[r].begin() + static_cast<std::ptrdiff_t>(sample.offset),
          reader_queries[r].begin() + static_cast<std::ptrdiff_t>(sample.offset + w.batch));
      replay_mismatch += !BitwiseEqual(AnswerAll(*sample.view.estimator, queries),
                                       sample.answers);
      ++replayed;
    }
  }
  if (replay_mismatch == 0 && replayed > 0) {
    report.Pass("pinned-replay", std::to_string(replayed) +
                                     " sampled concurrent batches replay bitwise");
  } else {
    report.Fail("pinned-replay", std::to_string(replay_mismatch) + " of " +
                                     std::to_string(replayed) + " sampled batches differ");
  }

  {
    // Cache transparency over the same stream: the cache-on service answers
    // the pool twice (the second pass hits) and must equal the cache-off one.
    std::unique_ptr<EstimatorService> on = MakeService(w, true);
    std::unique_ptr<EstimatorService> off = MakeService(w, false);
    const size_t n = std::min(ingested, w.prefill + 8 * w.block);
    std::vector<double> values;
    CopyStream(stream, 0, n, &values);
    on->InsertBatch(values);
    off->InsertBatch(values);
    on->Publish();
    off->Publish();
    const std::vector<double> first = AnswerAll(*on, check_pool);
    const std::vector<double> second = AnswerAll(*on, check_pool);
    const std::vector<double> uncached = AnswerAll(*off, check_pool);
    const serving::CacheStats stats = on->cache_stats();
    if (BitwiseEqual(first, uncached) && BitwiseEqual(second, uncached) && stats.hits > 0) {
      report.Pass("cache-transparency",
                  std::to_string(check_pool.size()) + " queries x2, " +
                      std::to_string(stats.hits) + " hits, bitwise-equal to cache_shards=0");
    } else {
      report.Fail("cache-transparency", "cached answers differ from uncached (or no hits)");
    }
  }

  size_t failed_batches = 0;
  size_t batches = 0;
  for (const ReaderResult& r : window.readers) {
    failed_batches += r.failed_batches;
    batches += r.batches;
  }
  if (failed_batches == 0) {
    report.Pass("answer-range", std::to_string(batches) +
                                    " batches, every answer finite and in [0, 1]");
  } else {
    report.Fail("answer-range", std::to_string(failed_batches) +
                                    " batches with a non-finite or out-of-range answer");
  }

  // Accuracy of the final view. The metric compares against the exact mass
  // of the ingested values; for 1-D streams the error against the analytic
  // marginal is checked too (it adds the sample's own deviation F_n - F,
  // which is set by the seed rather than by the estimator).
  double mae = 0.0;
  {
    const std::vector<double> answers = AnswerAll(*final_view.estimator, eval_pool);
    const double width = final_view.estimator->EqualityWidth();
    const ExactTruth exact(stream, ingested, w.dims());
    double analytic = 0.0;
    for (size_t i = 0; i < eval_pool.size(); ++i) {
      mae += std::fabs(answers[i] - exact.Mass(eval_pool[i], width));
      if (w.dims() == 1) {
        analytic += std::fabs(answers[i] - AnalyticMass(*target, eval_pool[i], width));
      }
    }
    mae /= static_cast<double>(eval_pool.size());
    analytic /= static_cast<double>(eval_pool.size());
    char detail[200];
    std::snprintf(detail, sizeof(detail),
                  "%zu mass queries: mae %.3g vs exact counts, %.3g vs the analytic "
                  "marginal, bound %.3g",
                  eval_pool.size(), mae, analytic, w.mae_bound);
    if (std::isfinite(mae) && mae < w.mae_bound && analytic < w.mae_bound) {
      report.Pass("mae-vs-truth", detail);
    } else {
      report.Fail("mae-vs-truth", detail);
    }
  }

  // ---- accounting
  attempted += batches + window.blocks_scheduled + window.checkpoints.size();
  failed += failed_batches + window.blocks_missed;
  for (const CheckpointRecord& c : window.checkpoints) failed += !c.ok;

  // ---- derived timings
  const size_t slices = window.slice_cache.size();
  std::vector<double> latencies;
  std::vector<std::vector<double>> read_slices(slices);
  std::vector<double> slice_qps;
  for (size_t s = 0; s < slices; ++s) {
    size_t queries = 0;
    for (const ReaderResult& r : window.readers) queries += r.slice_queries[s];
    const double length = std::min(args.seconds, (s + 1) * kSliceSeconds) - s * kSliceSeconds;
    if (!SliceTraced(args.trace, s)) slice_qps.push_back(static_cast<double>(queries) / length);
  }
  for (const ReaderResult& r : window.readers) {
    size_t begin = 0;
    for (size_t s = 0; s < slices; ++s) {
      const size_t end = std::max(begin, r.slice_end[s]);
      read_slices[s].insert(read_slices[s].end(), r.latency_us.begin() + begin,
                            r.latency_us.begin() + end);
      begin = end;
    }
    latencies.insert(latencies.end(), r.latency_us.begin(),
                     r.latency_us.begin() + static_cast<std::ptrdiff_t>(r.recorded));
  }
  std::vector<double> write_ms, fresh_ms, late_ms, insert_us, publish_ms;
  std::vector<std::vector<double>> write_slices(slices), fresh_slices(slices);
  for (const BlockRecord& b : window.blocks) {
    write_ms.push_back((b.end - b.due) * 1e3);
    write_slices[SliceOf(b.due, slices)].push_back(write_ms.back());
    late_ms.push_back((b.start - b.due) * 1e3);
    (b.bumped ? publish_ms : insert_us)
        .push_back((b.end - b.start) * (b.bumped ? 1e3 : 1e6));
  }
  {
    // A block is visible once the first InsertBatch at or after it that
    // bumped the epoch has returned; blocks after the last bump never
    // became visible inside the window and are left out.
    double visible_at = -1.0;
    for (size_t i = window.blocks.size(); i-- > 0;) {
      const BlockRecord& b = window.blocks[i];
      if (b.bumped) visible_at = b.end;
      if (visible_at < 0.0) continue;
      fresh_ms.push_back((visible_at - b.due) * 1e3);
      fresh_slices[SliceOf(b.due, slices)].push_back(fresh_ms.back());
    }
  }
  const Stat read_p50 = w.sliced ? SlicedLatency(read_slices, 50.0)
                                 : PooledLatency(latencies, 50.0);
  const Stat read_tail = w.sliced ? SlicedLatency(read_slices, w.read_tail_pct)
                                  : PooledLatency(latencies, w.read_tail_pct);
  const Stat write_p50 = SlicedLatency(write_slices, 50.0);
  const Stat write_tail = SlicedLatency(write_slices, kBlockTailPct);
  const Stat fresh_p50 = w.sliced ? SlicedLatency(fresh_slices, 50.0)
                                  : PooledLatency(fresh_ms, 50.0);
  const Stat fresh_tail = w.sliced ? SlicedLatency(fresh_slices, kBlockTailPct)
                                   : PooledLatency(fresh_ms, kBlockTailPct);

  // ---- provenance and sample counts (lines before the result)
  const double load_end = LoadAverage();
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"compiler\": \"%s\", \"flags\": \"%s\", \"build_type\": \"%s\", "
      "\"window_s\": %.4f, \"achieved_window_s\": %.4f, \"loadavg_start\": %.2f, "
      "\"loadavg_end\": %.2f, \"spec\": \"%s/%s K=%zu dims=%d\", "
      "\"publish_interval\": %zu, \"write_rate_values_per_s\": %.0f, \"block\": %zu, "
      "\"readers\": %d, \"batch\": %zu, \"queries\": \"%s\", \"checkpoint_every_s\": %.1f}}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), bench::perf::CompilerVersion(),
      WDE_BENCH_BUILD_FLAGS, bench::perf::BuildType(), args.seconds, window.achieved_s,
      load_start, load_end, w.spec.tag.c_str(), w.spec.sharded_inner_tag.c_str(),
      w.spec.shards, w.dims(), w.publish_interval, w.write_rate, w.block, w.readers,
      w.batch, w.hot_pool > 0 ? "gauss-cluster-centred pool, zipf(1.1) repetition"
                              : CentresName(w.centres),
      w.checkpoint_every_s);
  std::printf("samples: read batches %zu, writer blocks %zu of %zu scheduled, fresh %zu, "
              "epochs %zu, checkpoints %zu, pinned samples %zu\n",
              latencies.size(), window.blocks.size(), window.blocks_scheduled,
              fresh_ms.size(), publish_ms.size(), window.checkpoints.size(), replayed);
  std::printf("statistics: read_qps over the achieved window; read_p50_us %s; "
              "read_tail_us %s; fresh_p50_ms %s; fresh_tail_ms %s\n",
              read_p50.how.c_str(), read_tail.how.c_str(), fresh_p50.how.c_str(),
              fresh_tail.how.c_str());
  // Writer-block latency (due time to InsertBatch return) is printed but not
  // a result metric: on a 4-vCPU VM the pool wake-ups inside every small
  // InsertBatch swing it 25-35% from run to run, more than any bound.
  std::printf("writer (not gated): write_p50_ms %.6g ms (%s); write_tail_ms %.6g ms (%s)\n",
              write_p50.value, write_p50.how.c_str(), write_tail.value,
              write_tail.how.c_str());
  std::printf("operations: attempted %llu, failed %llu, failed/attempted %.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(1, attempted)));

  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("read_qps", static_cast<double>(batches * w.batch) / window.achieved_s,
               "q/s");
    report.Add("read_p50_us", read_p50.value, "us");
    report.Add("read_tail_us", read_tail.value, "us");
    report.Add("fresh_p50_ms", fresh_p50.value, "ms");
    report.Add("fresh_tail_ms", fresh_tail.value, "ms");
    report.Add("mae_vs_truth", mae, "mass");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Cache counters over the traced slices only.
    serving::CacheStats traced;
    for (size_t s = 0; s < slices; ++s) {
      if (!SliceTraced(true, s)) continue;
      const serving::CacheStats& end = window.slice_cache[s];
      const serving::CacheStats& begin =
          s == 0 ? window.cache_at_start : window.slice_cache[s - 1];
      traced.hits += end.hits - begin.hits;
      traced.misses += end.misses - begin.misses;
      traced.lookup_bypasses += end.lookup_bypasses - begin.lookup_bypasses;
      traced.insert_drops += end.insert_drops - begin.insert_drops;
    }
    const double probes = static_cast<double>(
        std::max<uint64_t>(1, traced.hits + traced.misses + traced.lookup_bypasses));
    const double inserts = static_cast<double>(
        std::max<uint64_t>(1, traced.misses + traced.lookup_bypasses));
    report.Add("serving.cache.hit_ratio", static_cast<double>(traced.hits) / probes, "ratio");
    report.Add("serving.cache.bypass_ratio",
               static_cast<double>(traced.lookup_bypasses) / probes, "ratio");
    report.Add("serving.cache.drop_ratio",
               static_cast<double>(traced.insert_drops) / inserts, "ratio");
    std::vector<double> self_us;
    std::vector<double> age_ms;
    std::vector<double> published_at;  // by epoch, from the writer's records
    for (const BlockRecord& b : window.blocks) {
      if (b.bumped) {
        if (published_at.size() <= b.epoch) published_at.resize(b.epoch + 1, -1.0);
        published_at[b.epoch] = b.end;
      }
    }
    size_t traced_batches = 0;
    for (const ReaderResult& r : window.readers) {
      self_us.insert(self_us.end(), r.self_us.begin(), r.self_us.end());
      traced_batches += r.traced_batches;
      for (const auto& [t, epoch] : r.epoch_seen) {
        if (epoch < published_at.size() && published_at[epoch] >= 0.0) {
          age_ms.push_back(std::max(0.0, t - published_at[epoch]) * 1e3);
        }
      }
    }
    report.Add("serving.answer.self_us", Median(self_us), "us");
    report.Add("serving.publish.p50_ms", Median(publish_ms), "ms");
    report.Add("serving.publish.max_ms", Percentile(publish_ms, 100.0), "ms");
    report.Add("serving.epochs", static_cast<double>(publish_ms.size()), "count");
    report.Add("serving.insert.p50_us", Median(insert_us), "us");
    report.Add("serving.view_age.p50_ms", Median(age_ms), "ms");

    // Checkpoints of the live service: in-window ones plus three after
    // quiesce, so every workload reports the layer.
    std::vector<double> checkpoint_ms;
    for (const CheckpointRecord& c : window.checkpoints) checkpoint_ms.push_back(c.ms);
    const std::string path = args.scratch + "/final-checkpoint.bin";
    for (int r = 0; r < 3; ++r) {
      const auto c0 = Clock::now();
      const Status status = service->Checkpoint(path);
      checkpoint_ms.push_back(SecondsBetween(c0, Clock::now()) * 1e3);
      ++attempted;
      failed += !status.ok();
    }
    std::error_code ec;
    report.Add("serving.checkpoint.p50_ms", Median(checkpoint_ms), "ms");
    report.Add("serving.checkpoint.bytes",
               static_cast<double>(std::filesystem::file_size(path, ec)), "bytes");
    report.Add("serving.restore.ms", Median(restore_ms), "ms");

    if (!SideReplay(w, stream, ingested, centres, args.scratch, &report, &attempted)) {
      ++failed;
    }

    std::vector<double> traced_qps;
    for (size_t s = 0; s < slices; ++s) {
      if (!SliceTraced(true, s)) continue;
      size_t queries = 0;
      for (const ReaderResult& r : window.readers) queries += r.slice_queries[s];
      const double length = std::min(args.seconds, (s + 1) * kSliceSeconds) - s * kSliceSeconds;
      traced_qps.push_back(static_cast<double>(queries) / length);
    }
    report.Add("bench.writer.late.p50_ms", Median(late_ms), "ms");
    report.Add("bench.writer.late.max_ms", Percentile(late_ms, 100.0), "ms");
    report.Add("bench.writer.blocks", static_cast<double>(window.blocks.size()), "count");
    report.Add("bench.reader.batches", static_cast<double>(traced_batches), "count");
    report.Add("bench.trace.overhead",
               slice_qps.empty() || traced_qps.empty()
                   ? 0.0
                   : Median(traced_qps) / Median(slice_qps),
               "ratio");
    WriteSpans(args.scratch + "/trace-" + w.name + ".jsonl", window);
  }

  report.Print(attempted, failed);
  return report.correct() && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Timing from an assertions-on build is refused outright.
  if (!wde::bench::perf::CheckBuildForTiming(/*check_mode=*/true)) return 2;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_pipeline --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir>\n");
    return 2;
  }
  return Run(args);
}
