#include "serving/query_cache.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/check.hpp"

namespace wde {
namespace serving {

namespace {

/// splitmix64 finalizer — cheap, well-distributed mixing for table indices.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t KindAxisWord(const selectivity::Query& query) {
  return static_cast<uint64_t>(query.kind) |
         (static_cast<uint64_t>(query.axis) << 8);
}

}  // namespace

/// A slot's key words for `query` computed at `epoch`.
std::array<uint64_t, QueryResultCache::kKeyWords> QueryResultCache::KeyWords(
    const selectivity::Query& query, uint64_t epoch) {
  return {epoch,
          KindAxisWord(query),
          std::bit_cast<uint64_t>(query.a),
          std::bit_cast<uint64_t>(query.b),
          std::bit_cast<uint64_t>(query.c),
          std::bit_cast<uint64_t>(query.d)};
}

uint64_t QueryKeyHash(const selectivity::Query& query) {
  uint64_t h = Mix64(KindAxisWord(query));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.a));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.b));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.c));
  h = Mix64(h ^ std::bit_cast<uint64_t>(query.d));
  return h;
}

QueryResultCache::QueryResultCache(size_t shards, size_t slots_per_shard) {
  WDE_CHECK(shards > 0, "QueryResultCache needs at least one shard");
  WDE_CHECK(slots_per_shard > 0, "QueryResultCache needs at least one slot");
  WDE_CHECK(slots_per_shard <= (size_t{1} << 40) / shards,
            "QueryResultCache geometry is too large");
  const size_t slots = std::bit_ceil(shards * slots_per_shard);
  slot_mask_ = slots - 1;
  // The table is carved from a plain heap block, not allocated with aligned
  // new: glibc serves a 64-byte aligned request by splitting a larger block,
  // and a process that creates and drops services (perfbench's set-up loop)
  // then kept ~2 MB, at times ~8 MB, of dead tables resident. A plain block
  // of the same size is simply reused.
  const size_t bytes = slots * sizeof(Slot);
  storage_ = std::make_unique_for_overwrite<std::byte[]>(bytes + alignof(Slot));
  void* aligned = storage_.get();
  size_t space = bytes + alignof(Slot);
  WDE_CHECK(std::align(alignof(Slot), bytes, aligned, space) != nullptr);
  slots_ = static_cast<Slot*>(aligned);
  std::uninitialized_value_construct_n(slots_, slots);
}

// Boehm's seqlock ("Can Seqlocks Get Along With Programming Language Memory
// Models?", MSPC 2012) over atomic words, so no access is a data race. Each
// payload word is stored with release and loaded with acquire (plain moves
// on x86; no standalone fences, which ThreadSanitizer cannot check): a probe
// that read any word of an overlapping store synchronizes with it, so that
// store's odd-sequence CAS happens-before the probe's second sequence load,
// which then differs from the first and bypasses the slot.
bool QueryResultCache::Lookup(const selectivity::Query& query, uint64_t epoch,
                              double* out, CacheStats* tally) const {
  if (tally == nullptr) {
    CacheStats own;
    const bool hit = Lookup(query, epoch, out, &own);
    Count(own);
    return hit;
  }
  const Slot& slot = SlotFor(query);
  const uint64_t seq = slot.seq.load(std::memory_order_acquire);
  uint64_t words[kKeyWords + 1];
  for (size_t w = 0; w <= kKeyWords; ++w) {
    words[w] = slot.words[w].load(std::memory_order_acquire);
  }
  if ((seq & 1) != 0 || slot.seq.load(std::memory_order_relaxed) != seq) {
    ++tally->lookup_bypasses;
    return false;
  }
  if (epoch == 0 || !std::equal(words, words + kKeyWords,
                                KeyWords(query, epoch).begin())) {
    ++tally->misses;
    return false;
  }
  *out = std::bit_cast<double>(words[kKeyWords]);
  ++tally->hits;
  return true;
}

void QueryResultCache::Insert(const selectivity::Query& query, uint64_t epoch,
                              double value, CacheStats* tally) {
  if (epoch == 0) return;  // reserved empty-slot tag
  if (tally == nullptr) {
    CacheStats own;
    Insert(query, epoch, value, &own);
    Count(own);
    return;
  }
  Slot& slot = SlotFor(query);
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    ++tally->insert_drops;  // another store holds the slot
    return;
  }
  const std::array<uint64_t, kKeyWords> key = KeyWords(query, epoch);
  for (size_t w = 0; w < kKeyWords; ++w) {
    slot.words[w].store(key[w], std::memory_order_release);
  }
  slot.words[kKeyWords].store(std::bit_cast<uint64_t>(value),
                              std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

void QueryResultCache::Count(const CacheStats& tally) const {
  const auto add = [](std::atomic<uint64_t>& counter, uint64_t n) {
    if (n != 0) counter.fetch_add(n, std::memory_order_relaxed);
  };
  add(counters_.hits, tally.hits);
  add(counters_.misses, tally.misses);
  add(counters_.lookup_bypasses, tally.lookup_bypasses);
  add(counters_.insert_drops, tally.insert_drops);
}

CacheStats QueryResultCache::stats() const {
  constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  return {counters_.hits.load(kRelaxed), counters_.misses.load(kRelaxed),
          counters_.lookup_bypasses.load(kRelaxed),
          counters_.insert_drops.load(kRelaxed)};
}

}  // namespace serving
}  // namespace wde
