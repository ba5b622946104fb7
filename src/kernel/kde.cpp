#include "kernel/kde.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "numerics/simd.hpp"
#include "util/check.hpp"

namespace wde {
namespace kernel {
namespace {

// Per-thread scratch for the gathered stride-1 operand/result buffers of the
// batch paths, reused across calls so steady-state evaluation never
// allocates. Thread-local keeps the concurrent read-side (sharded fan-out,
// serving views) race-free without locks.
std::vector<double>& ScratchArgs() {
  thread_local std::vector<double> buf;
  return buf;
}
std::vector<double>& ScratchVals() {
  thread_local std::vector<double> buf;
  return buf;
}

constexpr size_t kLeaf = KernelDensityEstimator::kLeafSize;

using CdfAndDensity = KernelDensityEstimator::CdfAndDensity;

// Σ K_cdf(u_i) and, when kWithDensity, Σ K(u_i), u_i = (x − xs[i])/h, over
// samples strictly inside the Epanechnikov window, summed left to right.
template <bool kWithDensity>
CdfAndDensity DirectWindowSum(const double* xs, size_t count, double x, double h) {
  CdfAndDensity sum;
  for (size_t i = 0; i < count; ++i) {
    const double u = (x - xs[i]) / h;
    sum.cdf += EpanechnikovCdfInterior(u);
    if constexpr (kWithDensity) sum.density += 0.75 * (1.0 - u * u);
  }
  return sum;
}

// The counts of a_keys[i] < a and of b_keys[i] < b over `len` ≥ 1 ascending
// keys each: two interleaved branch-free lower bounds. Every step halves the
// range with a select on a plain `<`, so the trip count depends on len alone
// and the two dependency chains overlap.
std::pair<size_t, size_t> CountLess2(const double* a_keys, double a,
                                     const double* b_keys, double b, size_t len) {
  const double* a_base = a_keys;
  const double* b_base = b_keys;
  while (len > 1) {
    const size_t half = len / 2;
    a_base += a_base[half] < a ? half : 0;
    b_base += b_base[half] < b ? half : 0;
    len -= half;
  }
  return {static_cast<size_t>(a_base - a_keys) + (*a_base < a),
          static_cast<size_t>(b_base - b_keys) + (*b_base < b)};
}

// std::partition_point(sorted, pred) for a pred that holds on a prefix,
// given p = #{i : sorted[i] < key} and a margin such that pred holds below
// key − margin and fails above key + margin. When no sample next to p lies
// within the margin, p is the split; otherwise an exact galloping search from
// p finds it in O(log |p − split|), so a duplicate run on the key costs
// O(log run).
template <class Pred>
size_t FixUpSplit(std::span<const double> sorted, size_t p, double key,
                  double margin, Pred pred) {
  const size_t n = sorted.size();
  if ((p == 0 || sorted[p - 1] < key - margin) &&
      (p == n || sorted[p] > key + margin)) {
    return p;
  }
  size_t lo = 0;
  size_t hi = p;
  if (p < n && pred(sorted[p])) {
    lo = p + 1;
    for (size_t step = 1;; step *= 2) {
      hi = std::min(n, p + step);
      if (hi == n || !pred(sorted[hi])) break;
      lo = hi + 1;
    }
  } else {
    for (size_t step = 1; step <= p; step *= 2) {
      if (pred(sorted[p - step])) {
        lo = p - step + 1;
        break;
      }
      hi = p - step;
    }
  }
  return static_cast<size_t>(
      std::partition_point(sorted.begin() + lo, sorted.begin() + hi, pred) -
      sorted.begin());
}

}  // namespace

/// Implicit segment tree over leaves of kLeafSize consecutive sorted
/// samples. Level 0 holds the ⌈n/B⌉ leaves; node j of level ℓ covers leaves
/// [j·2^ℓ, (j+1)·2^ℓ) and the samples inside them. Each node keeps its own
/// centre m (the midpoint of its smallest and largest sample) and the
/// moments E_p = Σ e_i^p, p = 1..3, of e_i = (x_i − m)/h. A node that lies
/// wholly inside a kernel window spans less than 2h, so |e_i| ≤ 1 and
/// |x − m| ≤ h there: every quantity a query touches is O(1) in units of h,
/// whatever the data offset or bandwidth. Nodes spanning more are built too
/// (they may even overflow) but no query ever reads them.
struct KernelDensityEstimator::MomentTree {
  struct Node {
    double centre;
    double e1;
    double e2;
    double e3;
  };

  /// Level-major node storage; level ℓ starts at level_begin[ℓ].
  std::vector<Node> nodes;
  std::vector<size_t> level_begin;

  /// Samples under node j of `level`, clipped to the buffer.
  static std::pair<size_t, size_t> SampleSpan(size_t level, size_t j, size_t n) {
    const size_t first = (j << level) * kLeaf;
    return {first, std::min(n, ((j + 1) << level) * kLeaf)};
  }

  static std::shared_ptr<const MomentTree> Build(std::span<const double> sorted,
                                                 double h) {
    const size_t n = sorted.size();
    auto tree = std::make_shared<MomentTree>();
    size_t width = (n + kLeaf - 1) / kLeaf;
    // Σ_ℓ ⌈L/2^ℓ⌉ ≤ 2L + ⌈log₂ L⌉ nodes in all.
    tree->nodes.reserve(2 * width + 64);
    // Leaves: direct sums about the leaf centre.
    tree->level_begin.push_back(0);
    for (size_t j = 0; j < width; ++j) {
      const auto [first, last] = SampleSpan(0, j, n);
      Node leaf{std::midpoint(sorted[first], sorted[last - 1]), 0.0, 0.0, 0.0};
      for (size_t i = first; i < last; ++i) {
        const double e = (sorted[i] - leaf.centre) / h;
        const double e_sq = e * e;
        leaf.e1 += e;
        leaf.e2 += e_sq;
        leaf.e3 += e_sq * e;
      }
      tree->nodes.push_back(leaf);
    }
    // Internal nodes: each child's moments re-centred binomially onto the
    // parent's centre, Σ(e + δ)^p with δ = (m_child − m_parent)/h.
    for (size_t level = 0; width > 1; ++level) {
      const size_t children = tree->level_begin[level];
      const size_t parents = (width + 1) / 2;
      tree->level_begin.push_back(tree->nodes.size());
      for (size_t p = 0; p < parents; ++p) {
        const auto [first, last] = SampleSpan(level + 1, p, n);
        Node parent{std::midpoint(sorted[first], sorted[last - 1]), 0.0, 0.0, 0.0};
        for (size_t c = 2 * p; c < std::min(width, 2 * p + 2); ++c) {
          const Node child = tree->nodes[children + c];
          const auto [child_first, child_last] = SampleSpan(level, c, n);
          const double k = static_cast<double>(child_last - child_first);
          const double d = (child.centre - parent.centre) / h;
          parent.e1 += child.e1 + k * d;
          parent.e2 += child.e2 + d * (2.0 * child.e1 + k * d);
          parent.e3 += child.e3 + d * (3.0 * child.e2 + d * (3.0 * child.e1 + k * d));
        }
        tree->nodes.push_back(parent);
      }
      width = parents;
    }
    return tree;
  }

  /// Σ K_cdf(s − e_i) over the full node j of `level` (kLeafSize·2^level
  /// samples), s = (x − m)/h, expanded in powers of s:
  /// (k/2 − ¾E1 + ¼E3) + s·¾(k − E2) + s²·¾E1 − s³·k/4. When kWithDensity,
  /// also its s-derivative Σ K(s − e_i) = c1 + 2c2·s + 3c3·s².
  template <bool kWithDensity>
  CdfAndDensity NodeSum(size_t level, size_t j, double x, double h) const {
    const Node& node = nodes[level_begin[level] + j];
    const double k = static_cast<double>(kLeaf << level);
    const double s = (x - node.centre) / h;
    const double c0 = 0.5 * k - 0.75 * node.e1 + 0.25 * node.e3;
    const double c1 = 0.75 * (k - node.e2);
    const double c2 = 0.75 * node.e1;
    const double c3 = -0.25 * k;
    CdfAndDensity sum;
    sum.cdf = c0 + s * (c1 + s * (c2 + s * c3));
    if constexpr (kWithDensity) sum.density = c1 + s * (2.0 * c2 + s * (3.0 * c3));
    return sum;
  }

  /// Σ K_cdf((x − x_i)/h) (and Σ K when kWithDensity) over the window
  /// samples [lo, hi), lo < hi: the partial leaves at both ends directly,
  /// the full leaves between them as O(log n) covering nodes (the bottom-up
  /// segment-tree walk). The CDF sum's terms and order do not depend on
  /// kWithDensity.
  template <bool kWithDensity>
  CdfAndDensity WindowSum(std::span<const double> sorted, double x, double h,
                          size_t lo, size_t hi) const {
    const size_t first_leaf = lo / kLeaf;
    const size_t last_leaf = (hi - 1) / kLeaf;
    if (first_leaf == last_leaf) {
      return DirectWindowSum<kWithDensity>(sorted.data() + lo, hi - lo, x, h);
    }
    const size_t head_end = (first_leaf + 1) * kLeaf;
    const size_t tail_begin = last_leaf * kLeaf;
    const CdfAndDensity head =
        DirectWindowSum<kWithDensity>(sorted.data() + lo, head_end - lo, x, h);
    const CdfAndDensity tail = DirectWindowSum<kWithDensity>(
        sorted.data() + tail_begin, hi - tail_begin, x, h);
    CdfAndDensity sum{head.cdf + tail.cdf, head.density + tail.density};
    const auto add = [&](const CdfAndDensity& node) {
      sum.cdf += node.cdf;
      sum.density += node.density;
    };
    size_t left = first_leaf + 1;
    size_t right = last_leaf;
    for (size_t level = 0; left < right; ++level, left >>= 1, right >>= 1) {
      if (left & 1) add(NodeSum<kWithDensity>(level, left++, x, h));
      if (right & 1) add(NodeSum<kWithDensity>(level, --right, x, h));
    }
    return sum;
  }
};

KernelDensityEstimator::KernelDensityEstimator(Kernel kernel, double bandwidth,
                                               memory::Arena samples)
    : kernel_(std::move(kernel)),
      bandwidth_(bandwidth),
      samples_(std::move(samples)),
      sorted_(samples_.F64(0)) {
  if (kernel_.type() == KernelType::kEpanechnikov) {
    tree_ = MomentTree::Build(sorted_, bandwidth_);
  }
  auto keys = std::make_shared<std::vector<double>>();
  keys->reserve((sorted_.size() + kLeaf - 1) / kLeaf);
  for (size_t i = 0; i < sorted_.size(); i += kLeaf) keys->push_back(sorted_[i]);
  leaf_keys_ = std::move(keys);
}

Result<KernelDensityEstimator> KernelDensityEstimator::Create(
    Kernel kernel, double bandwidth, std::span<const double> data) {
  if (data.empty()) return Status::InvalidArgument("KDE requires data");
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  if (!std::all_of(data.begin(), data.end(),
                   [](double x) { return std::isfinite(x); })) {
    return Status::InvalidArgument("KDE samples must be finite");
  }
  const memory::ColumnSpec specs[] = {{memory::ColumnKind::kF64, data.size()}};
  memory::Arena samples = memory::Arena::Create(specs);
  std::span<double> dst = samples.MutableF64(0);
  std::copy(data.begin(), data.end(), dst.begin());
  std::sort(dst.begin(), dst.end());
  return KernelDensityEstimator(std::move(kernel), bandwidth, std::move(samples));
}

Result<KernelDensityEstimator> KernelDensityEstimator::FromSorted(
    Kernel kernel, double bandwidth, std::span<const double> sorted,
    std::shared_ptr<const void> keepalive) {
  if (sorted.empty()) return Status::InvalidArgument("KDE requires data");
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("bandwidth must be positive and finite");
  }
  // Finite ends plus `<=` between neighbours (false for NaN) imply every
  // sample is finite and the buffer ascends.
  if (!std::isfinite(sorted.front()) || !std::isfinite(sorted.back())) {
    return Status::InvalidArgument("FromSorted: samples must be finite");
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (!(sorted[i - 1] <= sorted[i])) {
      return Status::InvalidArgument(
          "FromSorted: samples are not finite and ascending");
    }
  }
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(sorted.data()), sorted.size_bytes());
  const memory::ColumnSpec specs[] = {
      {memory::ColumnKind::kF64, sorted.size()}};
  WDE_ASSIGN_OR_RETURN(memory::Arena samples,
                       memory::Arena::FromImage(specs, bytes, std::move(keepalive)));
  return KernelDensityEstimator(std::move(kernel), bandwidth, std::move(samples));
}

double KernelDensityEstimator::Evaluate(double x) const {
  const double radius = kernel_.support_radius() * bandwidth_;
  const auto lo =
      std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
  const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
  double acc = 0.0;
  for (auto it = lo; it != hi; ++it) {
    acc += kernel_.Evaluate((x - *it) / bandwidth_);
  }
  return acc / (static_cast<double>(sorted_.size()) * bandwidth_);
}

void KernelDensityEstimator::EvaluateMany(std::span<const double> xs,
                                          std::span<double> out) const {
  WDE_CHECK_EQ(xs.size(), out.size(), "EvaluateMany spans must match");
  const double radius = kernel_.support_radius() * bandwidth_;
  const double norm = static_cast<double>(sorted_.size()) * bandwidth_;
  std::vector<double>& us = ScratchArgs();
  std::vector<double>& ks = ScratchVals();
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    // Same window, same per-term arithmetic, same left-to-right sum as
    // Evaluate(x) — only the kernel applications run through the gathered
    // SIMD batch, which is elementwise bit-identical.
    const auto lo = std::lower_bound(sorted_.begin(), sorted_.end(), x - radius);
    const auto hi = std::upper_bound(lo, sorted_.end(), x + radius);
    const size_t window = static_cast<size_t>(hi - lo);
    us.resize(window);
    ks.resize(window);
    const double* base = sorted_.data() + (lo - sorted_.begin());
    const double bandwidth = bandwidth_;
    WDE_SIMD_LOOP
    for (size_t m = 0; m < window; ++m) us[m] = (x - base[m]) / bandwidth;
    kernel_.EvaluateMany(us, ks);
    double acc = 0.0;
    for (size_t m = 0; m < window; ++m) acc += ks[m];
    out[i] = acc / norm;
  }
}

std::vector<double> KernelDensityEstimator::EvaluateOnGrid(double lo, double hi,
                                                           size_t points) const {
  WDE_CHECK_GE(points, 2u);
  WDE_CHECK_LT(lo, hi);
  std::vector<double> out(points);
  const double dx = (hi - lo) / static_cast<double>(points - 1);
  for (size_t i = 0; i < points; ++i) {
    out[i] = Evaluate(lo + dx * static_cast<double>(i));
  }
  return out;
}

double KernelDensityEstimator::IntegrateRange(double a, double b) const {
  if (b < a) std::swap(a, b);
  double acc = 0.0;
  for (double x : sorted_) {
    acc += kernel_.Cdf((b - x) / bandwidth_) - kernel_.Cdf((a - x) / bandwidth_);
  }
  return acc / static_cast<double>(sorted_.size());
}

std::pair<size_t, size_t> KernelDensityEstimator::SaturationSplit(double x) const {
  // sorted_ ascends, so u = (x - X_i)/h descends along the array: a prefix
  // of samples saturates Kernel::Cdf at exactly 1.0 (u >= R), a suffix at
  // exactly 0.0 (u <= -R), and only the window between them is summed. Up
  // to rounding the prefix is X_i < x − R·h and the window X_i < x + R·h,
  // so both ends are searched with plain `<` against those keys, over the
  // leaf keys and then inside one leaf. The predicates differ from `<` only
  // for samples within `margin` of a key (docs/ARCHITECTURE.md derives it),
  // and FixUpSplit settles those with the very comparisons the Cdf branches
  // evaluate. The window end is searched over the whole array: u >= R
  // implies u > −R, so it is the same partition point as one searched from
  // ones_end.
  const double radius = kernel_.support_radius();
  const double h = bandwidth_;
  const double reach = radius * h;
  const double ones_key = x - reach;
  const double zeros_key = x + reach;
  const double margin =
      0x1p-49 * (std::abs(x) + reach) + std::numeric_limits<double>::min();
  const std::vector<double>& keys = *leaf_keys_;
  const auto [ones_leaves, zeros_leaves] =
      CountLess2(keys.data(), ones_key, keys.data(), zeros_key, keys.size());
  // Then search the leaf of the last leaf key below each key; the last,
  // partial leaf as the final `leaf` samples, whose extra head lies below
  // the key too.
  const size_t n = sorted_.size();
  const size_t leaf = std::min(kLeaf, n);
  const size_t ones_first =
      std::min((ones_leaves - (ones_leaves > 0)) * kLeaf, n - leaf);
  const size_t zeros_first =
      std::min((zeros_leaves - (zeros_leaves > 0)) * kLeaf, n - leaf);
  const auto [ones_count, zeros_count] =
      CountLess2(sorted_.data() + ones_first, ones_key,
                 sorted_.data() + zeros_first, zeros_key, leaf);
  const size_t ones_end =
      FixUpSplit(sorted_, ones_first + ones_count, ones_key, margin,
                 [&](double xi) { return (x - xi) / h >= radius; });
  const size_t zeros_begin =
      FixUpSplit(sorted_, zeros_first + zeros_count, zeros_key, margin,
                 [&](double xi) { return (x - xi) / h > -radius; });
  return {ones_end, zeros_begin};
}

template <bool kWithDensity>
KernelDensityEstimator::CdfAndDensity KernelDensityEstimator::EpanechnikovWalk(
    double x, std::pair<size_t, size_t> split) const {
  const auto [ones_end, zeros_begin] = split;
  // The saturated prefix sums to its exact integer count.
  CdfAndDensity sum{static_cast<double>(ones_end), 0.0};
  if (zeros_begin != ones_end) {
    const CdfAndDensity window = tree_->WindowSum<kWithDensity>(
        sorted_, x, bandwidth_, ones_end, zeros_begin);
    sum.cdf += window.cdf;
    sum.density = window.density;
  }
  const double n = static_cast<double>(sorted_.size());
  return {sum.cdf / n, sum.density / (n * bandwidth_)};
}

double KernelDensityEstimator::CdfAt(double x) const {
  return CdfFromSplit(x, SaturationSplit(x));
}

double KernelDensityEstimator::CdfFromSplit(
    double x, std::pair<size_t, size_t> split) const {
  if (tree_ != nullptr) return EpanechnikovWalk<false>(x, split).cdf;
  // Other kernels: the window terms are gathered into contiguous scratch
  // and evaluated by the SIMD batch CDF (elementwise bit-identical to
  // Kernel::Cdf), then summed left to right exactly as IntegrateRange's
  // per-sample loop does.
  const auto [ones_end, zeros_begin] = split;
  double acc = static_cast<double>(ones_end);
  const size_t window = zeros_begin - ones_end;
  std::vector<double>& us = ScratchArgs();
  std::vector<double>& ks = ScratchVals();
  us.resize(window);
  ks.resize(window);
  const double* base = sorted_.data() + ones_end;
  const double bandwidth = bandwidth_;
  WDE_SIMD_LOOP
  for (size_t m = 0; m < window; ++m) us[m] = (x - base[m]) / bandwidth;
  kernel_.CdfMany(us, ks);
  for (size_t m = 0; m < window; ++m) acc += ks[m];
  return acc / static_cast<double>(sorted_.size());
}

KernelDensityEstimator::CdfAndDensity KernelDensityEstimator::CdfAndDensityAt(
    double x) const {
  if (tree_ != nullptr) return EpanechnikovWalk<true>(x, SaturationSplit(x));
  return {CdfAt(x), Evaluate(x)};
}

}  // namespace kernel
}  // namespace wde
