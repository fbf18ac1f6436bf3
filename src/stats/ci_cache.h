// Memoization of conditional-independence test results.
//
// One iteration of the Unicorn loop issues thousands of CI tests, and the
// skeleton search, the Possible-D-SEP pruning, and warm-started refreshes ask
// for many (x, y | S) combinations repeatedly. The cache keys a p-value on
// the unordered pair, the sorted conditioning set, and the identity of the
// data the test saw.
//
// Data identity has two layers. Within one engine, tables are append-only,
// so equal row counts imply the exact same data. Across engines (the sharded
// reasoning plane: one CausalModelEngine per objective group consulting one
// process-wide cache), equal row counts imply nothing — each shard grows its
// own table — so the key also carries a `table_tag`: an order-sensitive
// fingerprint chained over every absorbed row. Two shards whose tables are
// bit-identical (e.g. transfer campaigns seeded from the same source
// recording, or replicated policies absorbing the same bootstrap) produce
// the same tag and share hits; the first divergent row changes the tag
// forever after, so a stale cross-shard result can never be served.
//
// The cache is concurrent and has one tier: striped-lock maps serve every
// lookup and every store, so a stored entry is visible to every caller at
// once. Hits take the stripe mutex too: a lock-free read tier in front of
// the maps saved no measurable CPU on the benchmark workloads and cost
// 3-23% of their peak RSS (docs/REASONING_PLANE.md, "One cache path").
//
// Every entry remembers which shard stored it so cross-shard hits ("how many
// tests did the shared cache buy?") are accounted separately from
// shard-local ones. Hit/lookup counters are sharded cells (summed on read)
// so the counting itself does not bounce a cache line between sweep threads.
#ifndef UNICORN_STATS_CI_CACHE_H_
#define UNICORN_STATS_CI_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/independence.h"

namespace unicorn {

class CICache {
 public:
  // Conditioning sets larger than this are not cached (a size-9 set is
  // effectively never requested twice anyway).
  static constexpr size_t kMaxConditioning = 8;

  // Plain-old-data key: no heap allocation on the lookup fast path. The hot
  // loop issues millions of lookups, so key construction must cost nothing
  // beyond a few register moves.
  struct Key {
    uint64_t table_tag = 0;  // data fingerprint (0 = single-table legacy use)
    int32_t x = 0;  // stored with x <= y
    int32_t y = 0;
    uint64_t n_rows = 0;
    uint32_t s_size = 0;
    std::array<int32_t, kMaxConditioning> s{};  // sorted; first s_size valid

    bool operator==(const Key& o) const {
      if (table_tag != o.table_tag || x != o.x || y != o.y || n_rows != o.n_rows ||
          s_size != o.s_size) {
        return false;
      }
      for (uint32_t i = 0; i < s_size; ++i) {
        if (s[i] != o.s[i]) {
          return false;
        }
      }
      return true;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  // A successful lookup: the memoized p-value plus whether the entry was
  // stored by a different shard than the one asking.
  struct Hit {
    double p_value = 0.0;
    bool cross_shard = false;
  };

  // Canonical key: unordered pair + sorted conditioning set. `Cacheable`
  // must be checked first; MakeKey assumes s fits.
  static bool Cacheable(const std::vector<int>& s) { return s.size() <= kMaxConditioning; }
  static Key MakeKey(int x, int y, const std::vector<int>& s, uint64_t n_rows,
                     uint64_t table_tag = 0);

  // `max_entries` > 0 bounds memory in long-lived shared mode: when a lock
  // stripe outgrows its share of the budget it is dropped wholesale (coarse
  // eviction — correctness never depends on an entry being present).
  // 0 = unbounded (an engine-private cache clears itself every refresh).
  explicit CICache(size_t max_entries = 0) : max_entries_(max_entries) {}

  std::optional<double> Lookup(const Key& key) {
    const auto hit = LookupFrom(key, 0);
    return hit ? std::optional<double>(hit->p_value) : std::nullopt;
  }
  // Shard-attributed lookup: counts a cross-shard hit when the entry was
  // stored by a shard other than `shard`.
  std::optional<Hit> LookupFrom(const Key& key, uint32_t shard);
  void Store(const Key& key, double p_value, uint32_t shard = 0);

  long long hits() const { return SumCells(hit_cells_); }
  long long lookups() const { return SumCells(lookup_cells_); }
  // Hits on entries another shard paid for — the shared-cache dividend.
  long long cross_shard_hits() const { return SumCells(cross_cells_); }
  size_t size() const;
  // Drops every entry. Requires external quiescence: no concurrent lookups
  // or stores (the engine clears its private cache only between sweeps; the
  // shared cache is never cleared mid-flight).
  void Clear();
  void ResetCounters();

  // Cross-process persistence. Entries are keyed on the order-sensitive
  // table fingerprint (plus row count), so a snapshot taken against one
  // recording can only ever hit for an engine that absorbed bit-identical
  // rows in the same order — loading a stale or unrelated snapshot costs
  // memory, never correctness. SaveTo writes every entry (all stripes) to a
  // versioned little-endian binary file; returns false on I/O failure.
  bool SaveTo(const std::string& path) const;
  // Loads a snapshot into this cache (on top of what is already present),
  // attributing the entries to `shard`. Returns the number of entries
  // loaded, or -1 on I/O failure or a malformed/foreign file (the cache is
  // untouched on -1, except possibly entries already applied before a
  // mid-file truncation is detected).
  long long LoadFrom(const std::string& path, uint32_t shard = 0);

 private:
  struct Entry {
    double p_value = 0.0;
    uint32_t shard = 0;  // who stored it (cross-shard hit accounting)
  };
  // Striped locking: concurrent shard refreshes mostly touch different
  // stripes, so the shared cache does not serialize the reasoning plane.
  static constexpr size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<Key, Entry, KeyHash> map;
  };

  // Sharded counter cells: each thread bumps a (sticky, thread-local) cell,
  // totals are summed on read. Padded to a cache line each.
  struct alignas(64) CounterCell {
    std::atomic<long long> v{0};
  };
  static constexpr size_t kCounterCells = 8;
  using CounterCells = std::array<CounterCell, kCounterCells>;

  static long long SumCells(const CounterCells& cells);
  static void BumpCell(CounterCells& cells, long long delta);

  Stripe& StripeFor(const Key& key) { return stripes_[KeyHash{}(key) % kStripes]; }
  const Stripe& StripeFor(const Key& key) const { return stripes_[KeyHash{}(key) % kStripes]; }

  size_t max_entries_ = 0;
  std::array<Stripe, kStripes> stripes_;
  mutable CounterCells hit_cells_;
  mutable CounterCells lookup_cells_;
  mutable CounterCells cross_cells_;
};

// CITest decorator that consults a (shared) CICache before delegating.
// `calls` on this object counts requested tests (hits + misses); `calls` on
// the inner test counts the p-values actually evaluated. `hits()` and
// `cross_shard_hits()` count locally — exact for this decorator even while
// other shards hammer the same cache concurrently. Evaluated p-values are
// stored straight into the shared cache.
class CachedCITest : public CITest {
 public:
  CachedCITest(const CITest& inner, CICache* cache, uint64_t n_rows,
               uint64_t table_tag = 0, uint32_t shard = 0)
      : inner_(inner), cache_(cache), n_rows_(n_rows), table_tag_(table_tag), shard_(shard) {}

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Batched: one cache-key template per level; per-set semantics (lookup,
  // store, counters, early exit) identical to per-set PValue calls.
  int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const override;

  const CITest& inner() const { return inner_; }
  long long hits() const { return hits_.load(); }
  long long cross_shard_hits() const { return cross_shard_hits_.load(); }

 private:
  const CITest& inner_;
  CICache* cache_;
  uint64_t n_rows_;
  uint64_t table_tag_;
  uint32_t shard_;
  mutable std::atomic<long long> hits_{0};
  mutable std::atomic<long long> cross_shard_hits_{0};
};

}  // namespace unicorn

#endif  // UNICORN_STATS_CI_CACHE_H_
