#ifndef WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_
#define WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "kernel/kernels.hpp"
#include "memory/arena.hpp"
#include "multidim/prod_kde2d.hpp"
#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace selectivity {

/// Product/adaptive 2-D KDE in the ProdAdaKde2d style: per-dimension
/// Epanechnikov bandwidths from the paper's rule of thumb (optionally
/// refined by least-squares CV on a deterministic subsample), sharpened per
/// point by Abramson-style adaptive factors λ_i from a binned pilot density
/// (multidim/prod_kde2d.hpp). Every rectangle answers as
///   (1/n) Σ_i [axis-0 kernel-CDF difference] · [axis-1 kernel-CDF difference]
/// through one walk of a dyadic quadtree (multidim::ProdKde2dTree): nodes
/// whose points' CDF arguments provably saturate add their count or
/// nothing, nodes along an edge whose arguments are provably interior add a
/// closed-form polynomial in their bivariate moments, and only the
/// remaining leaves evaluate their points one by one. A conditional's
/// joint and condition come from one walk. 1-D kinds lower onto the
/// axis-0 marginal EstimateRangeImpl(a, b) = EstimateRectImpl(a, b, -inf,
/// +inf).
///
/// Ingest is interleaved (x0, y0, x1, y1, ...): the first coordinate of an
/// observation is buffered raw, the second completes it — the whole
/// observation is dropped if EITHER coordinate is non-finite (dropping one
/// value alone would shift the interleave parity), otherwise each
/// coordinate clamps to its axis domain. count() reports complete
/// observations.
///
/// Mergeable: the coordinate buffers concatenate and the KDE refits from
/// the merged buffers. Answers depend only on the *multiset* of
/// observations — the fitted state is a function of the sorted coordinate
/// arrays — so merges in any order answer bit-identically to
/// sequential ingest of the same multiset. A peer's pending half-observation
/// is not data and does not travel.
///
/// Refits honor Options::refit_mode: kScratch re-sorts everything per
/// refit; kIncremental (the default) reuses the previous fitted arrays as a
/// quadrant-major prefix, sorts only the appended tail and merges —
/// O(Δ log Δ + n) instead of O(n log n), bitwise-identical answers
/// (refit_equivalence_test). Every refit builds a fresh arena: fitted
/// columns may be shared with CloneForView copies or borrowed from a
/// snapshot mapping, and are never mutated in place. The adaptive factors
/// and bandwidths are recomputed O(n) per refit in BOTH modes — they are
/// global functions of the sorted sample, not mergeable state; the
/// incremental win is the sort, not the fit. The tree is rebuilt
/// O(n) per fit and on restore; it is derived state, never serialized.
/// A sample the fit rejects (a zero-spread axis) gets the exact-fraction
/// fallback until refit_interval more observations arrive.
class Kde2dSelectivity : public SelectivityEstimator {
 public:
  struct Options {
    double domain_lo0 = 0.0;
    double domain_hi0 = 1.0;
    double domain_lo1 = 0.0;
    double domain_hi1 = 1.0;
    size_t refit_interval = 1024;
    /// Adaptive-bandwidth sensitivity α ∈ [0, 1]: λ_i = (pilot_i/ḡ)^(−α)
    /// clamped to [1/4, 4]; 0 disables adaptivity (λ ≡ 1).
    double alpha = 0.5;
    /// Refine the per-dimension rule-of-thumb bandwidths with a
    /// least-squares CV pass over a deterministic subsample (≤ 512 points,
    /// evenly strided out of the sorted sample, result rescaled by
    /// (m/n)^{1/5}).
    bool cv_bandwidths = false;
    /// How refits rebuild the sorted sample (see the class comment). A
    /// pacing knob like refit_interval: not serialized, not part of the
    /// merge-compatibility key; snapshot restore preserves the live mode.
    RefitMode refit_mode = RefitMode::kIncremental;
  };

  explicit Kde2dSelectivity(const Options& options);

  void Insert(double x) override;

  size_t count() const override { return xs_.size(); }
  std::string name() const override { return "kde2d-prod"; }

  /// Same convention as the 1-D KDE: the declared resolution is the static
  /// axis-0 domain fraction 1/1024, so point-query answers do not change
  /// meaning across refits.
  double EqualityWidth() const override {
    return (options_.domain_hi0 - options_.domain_lo0) / 1024.0;
  }
  RangeQuery Domain() const override {
    return RangeQuery{options_.domain_lo0, options_.domain_hi0};
  }
  int dims() const override { return 2; }

  std::unique_ptr<SelectivityEstimator> CloneEmpty() const override;
  /// Appends `other`'s observations and invalidates the fitted state;
  /// requires identical domains, α and CV setting (they shape answers, not
  /// just pacing). The peer's pending coordinate is ignored — see the class
  /// comment.
  Status MergeFrom(const SelectivityEstimator& other) override;
  /// Tail-merge support for the sharded incremental merged-view refresh:
  /// appends only other's observations from `from_count` onward and leaves
  /// the fitted state intact (stale) for the next refit to delta-merge.
  bool SupportsTailMerge() const override { return true; }
  Status MergeTailFrom(const SelectivityEstimator& other,
                       size_t from_count) override;
  const char* snapshot_type_tag() const override { return "kde2d-prod"; }

  /// The copy shares the fitted arena (sorted coordinates, adaptive
  /// factors) copy-on-write and the immutable tree; refits never
  /// mutate shared state.
  std::unique_ptr<SelectivityEstimator> CloneForView() const override {
    return std::make_unique<Kde2dSelectivity>(*this);
  }

 protected:
  /// The axis-0 marginal: EstimateRectImpl(a, b, -inf, +inf).
  double EstimateRangeImpl(double a, double b) const override;
  /// clamp((1/n) · tree-walked product-kernel rectangle sum); exact-fraction
  /// fallback below the minimum fit sample (or on a degenerate sample).
  double EstimateRectImpl(double lo0, double hi0, double lo1,
                          double hi1) const override;
  /// Batched queries: one staleness check/refit, then each conditional's
  /// joint and condition sums from one tree walk (ConditionalSums); every
  /// other kind through the shared lowering. Bit-identical to the scalar
  /// loop and to AnswerMultiDim's two-rectangle lowering.
  void AnswerImpl(std::span<const Query> queries,
                  std::span<double> out) const override;
  /// State persists the raw coordinate buffers plus the fitted columns
  /// (quadrant-major px/py, the adaptive λ_i) and both bandwidths, so
  /// restore adopts the fit verbatim — no re-sort, no CV re-run, zero-copy
  /// from an mmapped snapshot — and rebuilds only the O(n) tree. Fitted
  /// columns that are non-finite or out of order, λ outside [1/4, 4] (the
  /// range AdaptiveLambdas produces) and a raw coordinate that is
  /// non-finite or outside its axis domain (Insert never buffers one) are
  /// rejected.
  Status SaveStateImpl(memory::FastStateWriter& writer) const override;
  Status LoadStateImpl(memory::FastStateReader& reader) override;

  /// Refits whenever any unfitted tail exists (not just past the interval),
  /// so a quiesced estimator is fitted at its full count.
  void ForceRefitImpl() const override;

 private:
  /// The fitted state: one arena of three parallel F64 columns starting at
  /// `col0` — px/py (the coordinates in the tree's quadrant-major order)
  /// and λ (adaptive factors) — plus the bandwidths and the tree that
  /// indexes them in place. Never mutated after commit; copies share the
  /// arena copy-on-write and the index.
  struct Fitted {
    memory::Arena arena;
    size_t col0 = 0;
    size_t n = 0;
    double hx = 0.0;
    double hy = 0.0;
    /// Per-node ranges of (px, py, λ) with pruning bounds and moments,
    /// answering every rectangle.
    std::shared_ptr<const multidim::ProdKde2dTree> tree;

    std::span<const double> px() const { return arena.F64(col0 + 0); }
    std::span<const double> py() const { return arena.F64(col0 + 1); }
    std::span<const double> lambdas() const { return arena.F64(col0 + 2); }
  };

  void RefitIfStale() const;
  /// Unconditional fit attempt at the current count, honoring refit_mode.
  void Refit() const;
  /// Builds the fitted state over the observation prefix [0, fit_n):
  /// quadrant-major sort (delta-merged off `prev` when given), rule-of-thumb
  /// (+ optional CV) bandwidths, adaptive factors and the tree. Empty on
  /// degenerate bandwidths (all-equal coordinates, or an h whose h/4
  /// underflows or 4h overflows). A deterministic function of the
  /// observation prefix multiset, so snapshot restore reproduces the saved
  /// fit bit-exactly by re-running it.
  std::optional<Fitted> BuildFit(size_t fit_n, const Fitted* prev) const;
  /// The tree over a fit's columns and bandwidths.
  std::shared_ptr<const multidim::ProdKde2dTree> BuildTree(
      const Fitted& fit) const;
  /// FailedPrecondition unless `other` is a kde2d peer with the same
  /// domains, α and CV setting (they shape answers, not just pacing).
  Status CheckMergeOptions(const SelectivityEstimator& other,
                           const char* what) const;

  Options options_;
  kernel::Kernel kernel_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  bool have_pending_ = false;
  double pending_ = 0.0;  // raw first coordinate of a half-received observation
  mutable std::optional<Fitted> fitted_;
  /// The count at the last fit attempt, failed or not (0: none yet).
  mutable size_t fitted_at_count_ = 0;
};

}  // namespace selectivity
}  // namespace wde

#endif  // WDE_SELECTIVITY_KDE2D_SELECTIVITY_HPP_
