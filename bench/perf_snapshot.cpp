// Snapshot-subsystem bench: for every registered estimator tag
// (EstimatorRegistry::Global().Tags()), ingest a stream, then measure
// snapshot size and save/load throughput through the registry's
// whole-snapshot paths — the in-memory load and the mmap file restore of the
// one state encoding. Produces the committed BENCH_snapshot.json artifact
// (see docs/BENCHMARKS.md) with a per-row round-trip verdict: answers of
// every restored estimator (in-memory, mmapped) must be bit-identical to the
// saved one on a range workload.
//
// Besides throughput, each row records the restore *latency* of the mmapped
// path (the warm-standby metric: how long until a restored estimator can
// answer) and the peak-RSS delta of loading (the in-memory load copies the
// columns out of the caller's buffer; the mmap path touches only headers
// until queries fault pages in). RSS deltas come from /proc/self/status
// VmHWM around a clear_refs peak reset — Linux-only, reported as 0
// elsewhere.
//
// Plain steady_clock timing, best of --repeats runs, so the binary builds
// everywhere and CI can always produce the artifact.
//
// Usage: perf_snapshot [--n=200000] [--queries=256] [--repeats=5]
//                      [--out=BENCH_snapshot.json] [--check]
//
// --check: exit 1 if any estimator fails to round-trip bit-identically on
// either path — the fidelity contract at bench scale, not just test sizes.
// It gates fidelity only, never speed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <string>
#include <thread>
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

/// The bench configuration of `tag` at production-ish settings (the sketch
/// at the perf_sharded level budget; sharded wraps a 64-bucket equi-width).
selectivity::EstimatorSpec BenchSpecFor(const std::string& tag) {
  selectivity::EstimatorSpec spec;
  spec.tag = tag;
  spec.dims = selectivity::EstimatorRegistry::Global().NativeDims(tag);
  spec.buckets = tag == "equi-depth" ? 32 : 64;
  spec.capacity = 4096;
  spec.seed = 17;
  if (tag == "haar-synopsis") {
    spec.grid_log2 = 10;
    spec.budget = 64;
  }
  if (tag == "wavelet-cv") {
    spec.j0 = 2;
    spec.j_max = 11;
    spec.refit_interval = 65536;
  }
  if (tag == "sharded") {
    spec.sharded_inner_tag = "equi-width";
    spec.shards = 4;
  }
  return spec;
}

/// Reads one "Key:   <n> kB" line of /proc/self/status; 0 off-Linux.
size_t ProcStatusBytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t bytes = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      bytes = std::strtoull(line + key_len + 1, nullptr, 10) * 1024;
      break;
    }
  }
  std::fclose(f);
  return bytes;
}

/// Resets the process peak-RSS high-water mark to the current RSS (Linux
/// clear_refs); no-op elsewhere. Lets one process measure per-phase peaks.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// Peak-RSS delta of running fn() once: how much extra memory the load path
/// needs beyond what is already resident. Trims the allocator first so pages
/// freed by earlier phases do not mask the allocation under test.
template <typename Fn>
size_t PeakRssDeltaOf(Fn&& fn) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  ResetPeakRss();
  const size_t before = ProcStatusBytes("VmRSS");
  fn();
  const size_t peak = ProcStatusBytes("VmHWM");
  return peak > before ? peak - before : 0;
}

struct Row {
  std::string tag;
  std::string name;
  size_t bytes = 0;
  double save_seconds = 0.0;       // in-memory save
  double load_seconds = 0.0;       // in-memory load
  double mmap_load_seconds = 0.0;  // restore latency from the mmapped file
  size_t load_peak_rss_bytes = 0;
  size_t mmap_peak_rss_bytes = 0;
  bool roundtrip_bit_identical = false;  // in-memory restore == saved
  bool mmap_bit_identical = false;       // mmapped restore == saved
};

double MbPerS(size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type gate first: a debug binary must never gate CI or
  // regenerate committed numbers (see bench_common.hpp).
  if (!bench::perf::CheckBuildForTiming(ArgBool(argc, argv, "check"))) {
    return 2;
  }
  const size_t n = ArgSize(argc, argv, "n", 200000);
  const size_t query_count = ArgSize(argc, argv, "queries", 256);
  const size_t repeats = std::max<size_t>(1, ArgSize(argc, argv, "repeats", 5));
  const std::string out_path =
      ArgString(argc, argv, "out", "BENCH_snapshot.json");
  const std::string tmp_path = out_path + ".snap.tmp";

  stats::Rng data_rng(1);
  std::vector<double> stream(n);
  for (double& x : stream) x = data_rng.UniformDouble();
  stats::Rng query_rng(5);
  const std::vector<selectivity::Query> queries = selectivity::AsRangeQueries(
      selectivity::CenteredRangeWorkload(query_rng, query_count, 0.0, 1.0, 0.02, 0.3));

  std::vector<Row> rows;
  for (const std::string& tag : selectivity::EstimatorRegistry::Global().Tags()) {
    Result<std::unique_ptr<selectivity::SelectivityEstimator>> made =
        selectivity::MakeEstimator(BenchSpecFor(tag));
    WDE_CHECK(made.ok(), made.status().ToString().c_str());
    std::unique_ptr<selectivity::SelectivityEstimator> estimator =
        std::move(made).value();
    // A d-dimensional estimator reads the stream as interleaved coordinates;
    // range queries are its axis-0 marginal.
    estimator->InsertBatch(stream);
    std::vector<double> before(queries.size());
    estimator->Answer(queries, before);  // realistic: fitted cache exists

    Row row;
    row.tag = tag;
    row.name = estimator->name();

    // ---- in-memory save and load ----
    std::vector<uint8_t> bytes;
    row.save_seconds = bench::perf::BestOfSeconds(repeats, [&] {
      io::VectorSink sink;
      WDE_CHECK_OK(selectivity::SaveEstimatorSnapshot(*estimator, sink));
      bytes = sink.TakeBytes();
    });
    row.bytes = bytes.size();

    std::unique_ptr<selectivity::SelectivityEstimator> restored;
    row.load_seconds = bench::perf::BestOfSeconds(repeats, [&] {
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(loaded.ok(), loaded.status().ToString().c_str());
      restored = std::move(loaded).value();
    });
    std::vector<double> after(queries.size());
    restored->Answer(queries, after);
    row.roundtrip_bit_identical =
        restored->count() == estimator->count() && after == before;
    restored.reset();
    row.load_peak_rss_bytes = PeakRssDeltaOf([&] {
      io::SpanSource source(bytes);
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshot(source);
      WDE_CHECK(loaded.ok());
      std::vector<double> probe(queries.size());
      (*loaded)->Answer(queries, probe);
    });

    // ---- mmapped file restore (the warm-standby path) ----
    WDE_CHECK_OK(selectivity::SaveEstimatorSnapshotFile(*estimator, tmp_path));
    std::unique_ptr<selectivity::SelectivityEstimator> mapped_restored;
    row.mmap_load_seconds = bench::perf::BestOfSeconds(repeats, [&] {
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshotFileMapped(tmp_path);
      WDE_CHECK(loaded.ok(), loaded.status().ToString().c_str());
      mapped_restored = std::move(loaded).value();
    });
    std::vector<double> mapped_after(queries.size());
    mapped_restored->Answer(queries, mapped_after);
    row.mmap_bit_identical =
        mapped_restored->count() == estimator->count() && mapped_after == before;
    mapped_restored.reset();
    row.mmap_peak_rss_bytes = PeakRssDeltaOf([&] {
      Result<std::unique_ptr<selectivity::SelectivityEstimator>> loaded =
          selectivity::LoadEstimatorSnapshotFileMapped(tmp_path);
      WDE_CHECK(loaded.ok());
      std::vector<double> probe(queries.size());
      (*loaded)->Answer(queries, probe);
    });
    std::remove(tmp_path.c_str());

    rows.push_back(row);
    std::printf(
        "%-28s %10zu B  save %8.1f MB/s  load %8.1f MB/s  mmap-restore %9.1f us  "
        "rss %6.1f / %6.1f MB | %s\n",
        row.name.c_str(), row.bytes, MbPerS(row.bytes, row.save_seconds),
        MbPerS(row.bytes, row.load_seconds), row.mmap_load_seconds * 1e6,
        static_cast<double>(row.load_peak_rss_bytes) / 1e6,
        static_cast<double>(row.mmap_peak_rss_bytes) / 1e6,
        row.roundtrip_bit_identical && row.mmap_bit_identical ? "bit-identical"
                                                              : "MISMATCH");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  WDE_CHECK(out != nullptr, "cannot open --out path for writing");
  std::fprintf(out, "{\n  \"bench\": \"perf_snapshot\",\n");
  std::fprintf(out,
               "  \"workload\": {\"n\": %zu, \"queries\": %zu, \"repeats\": %zu},\n",
               n, query_count, repeats);
  wde::bench::perf::WriteHostJson(out);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out, "    {\"tag\": \"%s\", \"estimator\": \"%s\",\n",
                 row.tag.c_str(), row.name.c_str());
    std::fprintf(out,
                 "     \"memory\": {\"bytes\": %zu, \"save_seconds\": %.6e, "
                 "\"save_mb_per_s\": %.1f, \"load_seconds\": %.6e, "
                 "\"load_mb_per_s\": %.1f, \"load_peak_rss_bytes\": %zu},\n",
                 row.bytes, row.save_seconds, MbPerS(row.bytes, row.save_seconds),
                 row.load_seconds, MbPerS(row.bytes, row.load_seconds),
                 row.load_peak_rss_bytes);
    std::fprintf(out,
                 "     \"mmap\": {\"load_seconds\": %.6e, "
                 "\"load_mb_per_s\": %.1f, \"load_peak_rss_bytes\": %zu},\n",
                 row.mmap_load_seconds, MbPerS(row.bytes, row.mmap_load_seconds),
                 row.mmap_peak_rss_bytes);
    std::fprintf(out,
                 "     \"roundtrip_bit_identical\": %s, "
                 "\"mmap_bit_identical\": %s}%s\n",
                 row.roundtrip_bit_identical ? "true" : "false",
                 row.mmap_bit_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (ArgBool(argc, argv, "check")) {
    int violations = 0;
    for (const Row& row : rows) {
      if (!row.roundtrip_bit_identical || !row.mmap_bit_identical) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s did not round-trip bit-identically "
                     "(in-memory %s, mmap %s)\n",
                     row.name.c_str(), row.roundtrip_bit_identical ? "ok" : "MISMATCH",
                     row.mmap_bit_identical ? "ok" : "MISMATCH");
        ++violations;
      }
    }
    if (violations > 0) return 1;
    std::printf("round-trip fidelity checks passed (in-memory, mmap)\n");
  }
  return 0;
}
