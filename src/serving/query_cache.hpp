/// \file serving/query_cache.hpp
/// Lock-free, epoch-tagged result cache for typed selectivity queries — the
/// hot-query layer of the serving engine. The typed `Query` tagged union is
/// the cache key: keys hash and compare on the BIT PATTERNS of the kind and
/// both parameter payloads, so any two byte-identical queries share an entry
/// (including dirty queries with NaN parameters, whose documented answer 0.0
/// caches like any other value) and no floating-point comparison semantics
/// leak into key identity. Every entry is tagged with the epoch of the
/// published view it was computed against; a lookup only hits when the
/// entry's epoch equals the reader's current epoch, so publishing a new view
/// invalidates the entire cache at zero cost — no sweep, no generation list.
///
/// The table is one flat, direct-mapped array of 64-byte slots, each a
/// seqlock (Boehm, MSPC 2012) over eight atomic words: a probe is plain
/// loads and treats a slot mid-store as a miss (a bypass); a store
/// that finds the slot held by another store drops its value. Nothing ever
/// waits, so the serving hot path keeps its no-lock-wait guarantee. The
/// cache is strictly an accelerator: a published view is immutable for its
/// epoch and answers are deterministic, so a cached value is bit-identical
/// to recomputation (cache-on ≡ cache-off is tested bitwise).
#ifndef WDE_SERVING_QUERY_CACHE_HPP_
#define WDE_SERVING_QUERY_CACHE_HPP_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "selectivity/selectivity_estimator.hpp"

namespace wde {
namespace serving {

/// Bitwise key hash of a query: splitmix64-style mixing over the kind and
/// axis bytes and the bit patterns of all four parameters (a/b and the
/// axis-1 interval c/d of the multi-dimensional kinds). Keys compare the
/// same bits: NaN payloads match by their exact bit pattern; +0.0 and -0.0
/// are distinct keys (both cache their — equal — answers independently,
/// which is harmless).
uint64_t QueryKeyHash(const selectivity::Query& query);

/// Monotonic counters describing cache effectiveness (relaxed atomics; exact
/// under a quiesced service, monotone-approximate while concurrent).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;           // probed, no current-epoch entry
  uint64_t lookup_bypasses = 0;  // slot mid-write; treated as a miss
  uint64_t insert_drops = 0;     // slot mid-write; value not cached
};

/// A fixed-geometry cache of `shards × slots_per_shard` direct-mapped slots
/// (rounded up to a power of two). Bounded memory, O(1) lookup/insert,
/// eviction by slot overwrite. Thread-safe and lock-free; see the file
/// comment for the slot protocol.
class QueryResultCache {
 public:
  QueryResultCache(size_t shards, size_t slots_per_shard);

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// True and `*out` filled when a value for `query` computed at exactly
  /// `epoch` is cached. Epoch 0 never hits (the reserved empty-slot tag).
  /// Counts one hit, miss or bypass: in `*tally` when given (a batch adds
  /// its tally to the shared counters once, with Count()), else directly.
  bool Lookup(const selectivity::Query& query, uint64_t epoch, double* out,
              CacheStats* tally = nullptr) const;

  /// Caches `value` for `query` at `epoch`, overwriting whatever occupied
  /// the slot. Epoch 0 is reserved and ignored. Best-effort under
  /// contention: counts an insert_drop, in `*tally` when given.
  void Insert(const selectivity::Query& query, uint64_t epoch, double value,
              CacheStats* tally = nullptr);

  void Count(const CacheStats& tally) const;

  CacheStats stats() const;

  size_t slots() const { return slot_mask_ + 1; }

 private:
  friend class QueryResultCacheTestPeer;  // holds a slot mid-store in tests

  /// Words of a slot after its sequence word: the key (epoch, kind | axis
  /// << 8, then the a/b/c/d bit patterns) and the value's bit pattern.
  static constexpr size_t kKeyWords = 6;
  /// One entry: `seq` is even when stable and odd while a store writes it.
  /// An all-zero slot is empty: epoch 0 never hits.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq;
    std::atomic<uint64_t> words[kKeyWords + 1];
  };
  static_assert(sizeof(Slot) == 64, "a slot is one cache line");

  /// On their own cache line, away from the table pointer readers load on
  /// every probe.
  struct alignas(64) Counters {
    std::atomic<uint64_t> hits, misses, lookup_bypasses, insert_drops;
  };

  static std::array<uint64_t, kKeyWords> KeyWords(
      const selectivity::Query& query, uint64_t epoch);

  Slot& SlotFor(const selectivity::Query& query) const {
    return slots_[QueryKeyHash(query) & slot_mask_];
  }

  std::unique_ptr<std::byte[]> storage_;  // holds the 64-byte aligned slots_
  Slot* slots_ = nullptr;
  uint64_t slot_mask_ = 0;
  mutable Counters counters_;
};

}  // namespace serving
}  // namespace wde

#endif  // WDE_SERVING_QUERY_CACHE_HPP_
