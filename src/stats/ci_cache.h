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
// The cache is concurrent, with three tiers on the read path:
//   1. A lock-free read table: a fixed-size open-addressed array of seqlock
//      slots holding the hottest entries. Readers never take a lock and
//      never write shared cache state, so eight sweep threads probing one
//      cache stop serializing on stripe mutexes. It is a pure accelerator —
//      a miss (empty slot, torn read, evicted entry) falls through to tier 3,
//      so hit accounting never depends on it.
//   2. An optional per-caller pending-write buffer (WriteBuffer): parallel
//      search phases buffer their stores locally and publish them at phase
//      barriers (deterministic points), instead of contending on the shared
//      stripes mid-sweep. Lookups that pass their buffer see their own
//      pending writes, so buffering is invisible to the owning caller.
//   3. The authoritative striped-lock maps (writes always land here).
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
#include <memory>
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

  // Per-caller buffer of stores not yet published to the shared stripes.
  // Striped internally so one decorator's sweep workers can buffer
  // concurrently; the owning CICache drains it in Publish(). Movable-nothing:
  // owned by value inside a decorator, referenced by pointer elsewhere.
  class WriteBuffer {
   public:
    WriteBuffer() = default;
    WriteBuffer(const WriteBuffer&) = delete;
    WriteBuffer& operator=(const WriteBuffer&) = delete;

   private:
    friend class CICache;
    static constexpr size_t kLanes = 16;
    struct Lane {
      mutable std::mutex mu;
      std::unordered_map<Key, double, KeyHash> map;
    };
    std::array<Lane, kLanes> lanes_;
    // Cheap emptiness probe so lookups skip the lane lock entirely while the
    // buffer has never been written (the overwhelmingly common case for
    // read-heavy phases).
    std::atomic<bool> any_{false};
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
  // stored by a shard other than `shard`. When `pending` is given, the
  // caller's unpublished stores are consulted too (as shard-local entries).
  std::optional<Hit> LookupFrom(const Key& key, uint32_t shard,
                                const WriteBuffer* pending = nullptr);
  // Same probe sequence, but touches no counters — the speculative sweeps
  // use it and replay the counter deltas only if the speculation is adopted.
  std::optional<Hit> LookupQuiet(const Key& key, uint32_t shard,
                                 const WriteBuffer* pending = nullptr) const;
  void Store(const Key& key, double p_value, uint32_t shard = 0);
  // Buffered store: lands in `pending` only; visible to lookups that pass
  // the same buffer, published to the shared tiers by Publish().
  void StoreBuffered(const Key& key, double p_value, WriteBuffer* pending);
  // Phase barrier: drains `pending` into the striped maps and the read
  // table, attributed to `shard`. Safe to call concurrently with lookups and
  // stores from other callers.
  void Publish(WriteBuffer* pending, uint32_t shard);
  // Replays the counter deltas of an adopted speculative sweep (which probed
  // via LookupQuiet so discarded sweeps leave no trace in the totals).
  void AddCounterSamples(long long lookups, long long hits, long long cross_shard);

  long long hits() const { return SumCells(hit_cells_); }
  long long lookups() const { return SumCells(lookup_cells_); }
  // Hits on entries another shard paid for — the shared-cache dividend.
  long long cross_shard_hits() const { return SumCells(cross_cells_); }
  size_t size() const;
  // Drops every entry (striped maps and the read table; only the read slots
  // filled since the last Clear are reset, so clearing after a small
  // refresh is cheap). Requires external quiescence: no concurrent lookups
  // or stores (the engine clears its private cache only between sweeps; the
  // shared cache is never cleared mid-flight). The read-table seqlocks
  // restart from their empty state, so a racing reader could otherwise see
  // a torn refill as stable.
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

  // Lock-free read tier: open-addressed seqlock slots. A slot is empty while
  // seq == 0, mid-write while seq is odd, stable otherwise; writers only
  // ever move seq forward (except under the quiescent Clear), so a reader
  // that sees the same even seq before and after its field loads saw a
  // consistent snapshot. The key is pre-packed into 8 words (trailing s[]
  // entries are zero by construction) so the compare is branch-light.
  struct ReadSlot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint32_t> shard{0};
    std::atomic<uint64_t> p_bits{0};
    std::array<std::atomic<uint64_t>, 8> words{};
  };
  static constexpr size_t kReadSlotsLog2 = 15;  // 32768 slots, ~2.8 MiB, lazy
  static constexpr size_t kReadSlots = size_t{1} << kReadSlotsLog2;
  static constexpr size_t kReadProbes = 8;  // linear probe window

  // Sharded counter cells: each thread bumps a (sticky, thread-local) cell,
  // totals are summed on read. Padded to a cache line each.
  struct alignas(64) CounterCell {
    std::atomic<long long> v{0};
  };
  static constexpr size_t kCounterCells = 8;
  using CounterCells = std::array<CounterCell, kCounterCells>;

  static void PackKey(const Key& key, std::array<uint64_t, 8>* words);
  static long long SumCells(const CounterCells& cells);
  static void BumpCell(CounterCells& cells, long long delta);

  Stripe& StripeFor(const Key& key) { return stripes_[KeyHash{}(key) % kStripes]; }
  const Stripe& StripeFor(const Key& key) const { return stripes_[KeyHash{}(key) % kStripes]; }

  // The uncounted three-tier probe shared by LookupFrom and LookupQuiet.
  std::optional<Hit> Probe(const Key& key, uint32_t shard, const WriteBuffer* pending) const;
  std::optional<Hit> ProbeReadTable(const Key& key, uint32_t shard) const;
  ReadSlot* EnsureReadTable();
  void InsertReadTable(const Key& key, double p_value, uint32_t shard);

  size_t max_entries_ = 0;
  std::array<Stripe, kStripes> stripes_;
  mutable std::atomic<ReadSlot*> read_table_{nullptr};
  std::unique_ptr<ReadSlot[]> read_table_storage_;
  // Indices of the read-table slots filled since the last Clear, so Clear
  // resets only those. A slot leaves the empty state at most once between
  // two Clears (by the claiming CAS), so the list never outgrows the table.
  std::unique_ptr<uint32_t[]> filled_slots_;
  std::atomic<uint32_t> num_filled_{0};
  std::mutex read_init_mu_;
  mutable CounterCells hit_cells_;
  mutable CounterCells lookup_cells_;
  mutable CounterCells cross_cells_;
};

// CITest decorator that consults a (shared) CICache before delegating.
// `calls` on this object counts requested tests (hits + misses); `calls` on
// the inner test counts the p-values actually evaluated. `hits()` and
// `cross_shard_hits()` count locally — exact for this decorator even while
// other shards hammer the same cache concurrently.
//
// Stores are buffered: evaluated p-values land in a decorator-private
// WriteBuffer that this decorator's own lookups always consult, and are
// published to the shared cache at phase barriers (PublishPending, called by
// the search phases) and on destruction. Within one decorator the buffering
// is invisible; other shards see the entries at the next barrier instead of
// mid-sweep.
class CachedCITest : public CITest {
 public:
  CachedCITest(const CITest& inner, CICache* cache, uint64_t n_rows,
               uint64_t table_tag = 0, uint32_t shard = 0)
      : inner_(inner), cache_(cache), n_rows_(n_rows), table_tag_(table_tag), shard_(shard) {}
  ~CachedCITest() override {
    if (cache_ != nullptr) {
      cache_->Publish(&pending_, shard_);
    }
  }

  double PValue(int x, int y, const std::vector<int>& s) const override;

  // Batched: one cache-key template per level; per-set semantics (lookup,
  // store, counters, early exit) identical to per-set PValue calls.
  int FirstIndependent(const BatchedCIRequest& req, double* p_out = nullptr) const override;

  // Speculative sweep protocol (see CITest): probes via LookupQuiet and
  // records stores/counter deltas in the speculation; adoption replays them
  // onto this decorator, the cache totals, and the pending buffer.
  void SpeculateFirstIndependent(const BatchedCIRequest& req, const PendingPValues* overlay,
                                 CISpeculation* out) const override;
  void AdoptSpeculation(const CISpeculation& spec, const BatchedCIRequest& req) const override;
  void DiscardSpeculation(const CISpeculation& spec) const override;
  void AppendPendingOverlay(const CISpeculation& spec, const BatchedCIRequest& req,
                            PendingPValues* overlay) const override;
  void PublishPending() const override;

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
  mutable CICache::WriteBuffer pending_;
};

}  // namespace unicorn

#endif  // UNICORN_STATS_CI_CACHE_H_
