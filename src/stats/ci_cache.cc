#include "stats/ci_cache.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/binio.h"

namespace unicorn {
namespace {

// ci-cache snapshot format, version 1:
//   magic "UNCICHE1" | u32 endian marker | u32 reserved | u64 entry count
//   then per entry: u64 table_tag | u32 x | u32 y | u64 n_rows |
//                   u32 s_size | 8 × u32 s[i] | f64 p_value
constexpr char kCacheMagic[8] = {'U', 'N', 'C', 'I', 'C', 'H', 'E', '1'};

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

CICache::Key CICache::MakeKey(int x, int y, const std::vector<int>& s, uint64_t n_rows,
                              uint64_t table_tag) {
  Key key;
  key.table_tag = table_tag;
  key.x = std::min(x, y);
  key.y = std::max(x, y);
  key.n_rows = n_rows;
  key.s_size = static_cast<uint32_t>(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    key.s[i] = s[i];
  }
  // Insertion sort: conditioning sets are tiny (<= kMaxConditioning) and
  // usually already sorted, so this is a handful of compares.
  for (uint32_t i = 1; i < key.s_size; ++i) {
    const int32_t v = key.s[i];
    uint32_t j = i;
    while (j > 0 && key.s[j - 1] > v) {
      key.s[j] = key.s[j - 1];
      --j;
    }
    key.s[j] = v;
  }
  return key;
}

size_t CICache::KeyHash::operator()(const Key& k) const {
  // FNV-style mix over the key fields.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(k.table_tag);
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.x)) |
      (static_cast<uint64_t>(static_cast<uint32_t>(k.y)) << 32));
  mix(k.n_rows);
  mix(k.s_size);
  for (uint32_t i = 0; i < k.s_size; ++i) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(k.s[i])) + 0x9e3779b97f4a7c15ULL);
  }
  return static_cast<size_t>(h);
}

void CICache::PackKey(const Key& key, std::array<uint64_t, 8>* words) {
  // Trailing s[] entries beyond s_size are zero by construction (MakeKey and
  // LoadFrom both leave them value-initialized), so the 8-word compare is
  // exactly key equality.
  (*words)[0] = key.table_tag;
  (*words)[1] = (static_cast<uint64_t>(static_cast<uint32_t>(key.x)) << 32) |
                static_cast<uint32_t>(key.y);
  (*words)[2] = key.n_rows;
  (*words)[3] = key.s_size;
  for (size_t i = 0; i < 4; ++i) {
    (*words)[4 + i] = (static_cast<uint64_t>(static_cast<uint32_t>(key.s[2 * i])) << 32) |
                      static_cast<uint32_t>(key.s[2 * i + 1]);
  }
}

long long CICache::SumCells(const CounterCells& cells) {
  long long total = 0;
  for (const CounterCell& cell : cells) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

void CICache::BumpCell(CounterCells& cells, long long delta) {
  // Sticky per-thread cell assignment: threads spread round-robin over the
  // cells once, then always bump "their" line.
  static std::atomic<uint32_t> next_lane{0};
  thread_local const uint32_t lane =
      next_lane.fetch_add(1, std::memory_order_relaxed) % kCounterCells;
  cells[lane].v.fetch_add(delta, std::memory_order_relaxed);
}

CICache::ReadSlot* CICache::EnsureReadTable() {
  ReadSlot* table = read_table_.load(std::memory_order_acquire);
  if (table != nullptr) {
    return table;
  }
  std::lock_guard<std::mutex> lock(read_init_mu_);
  table = read_table_.load(std::memory_order_relaxed);
  if (table == nullptr) {
    read_table_storage_.reset(new ReadSlot[kReadSlots]);
    filled_slots_.reset(new uint32_t[kReadSlots]);
    table = read_table_storage_.get();
    read_table_.store(table, std::memory_order_release);
  }
  return table;
}

std::optional<CICache::Hit> CICache::ProbeReadTable(const Key& key, uint32_t shard) const {
  const ReadSlot* table = read_table_.load(std::memory_order_acquire);
  if (table == nullptr) {
    return std::nullopt;  // nothing stored yet anywhere
  }
  std::array<uint64_t, 8> w;
  PackKey(key, &w);
  const size_t h = KeyHash{}(key);
  constexpr size_t mask = kReadSlots - 1;
  for (size_t probe = 0; probe < kReadProbes; ++probe) {
    const ReadSlot& slot = table[(h + probe) & mask];
    const uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0) {
      return std::nullopt;  // inserts claim the first empty slot in-window
    }
    if ((s1 & 1u) != 0) {
      continue;  // mid-write; the authoritative tier will answer
    }
    bool match = true;
    for (size_t i = 0; i < w.size(); ++i) {
      if (slot.words[i].load(std::memory_order_relaxed) != w[i]) {
        match = false;
        break;
      }
    }
    const uint64_t p_bits = slot.p_bits.load(std::memory_order_relaxed);
    const uint32_t stored_shard = slot.shard.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s1) {
      continue;  // torn by a concurrent replacement; treat as a miss here
    }
    if (!match) {
      continue;
    }
    Hit hit;
    hit.p_value = BitsToDouble(p_bits);
    hit.cross_shard = stored_shard != shard;
    return hit;
  }
  return std::nullopt;
}

void CICache::InsertReadTable(const Key& key, double p_value, uint32_t shard) {
  ReadSlot* table = EnsureReadTable();
  std::array<uint64_t, 8> w;
  PackKey(key, &w);
  const size_t h = KeyHash{}(key);
  constexpr size_t mask = kReadSlots - 1;
  const auto fill = [&](ReadSlot& slot, uint32_t claimed_seq) {
    for (size_t i = 0; i < w.size(); ++i) {
      slot.words[i].store(w[i], std::memory_order_relaxed);
    }
    slot.p_bits.store(DoubleToBits(p_value), std::memory_order_relaxed);
    slot.shard.store(shard, std::memory_order_relaxed);
    slot.seq.store(claimed_seq + 1, std::memory_order_release);  // back to even
  };
  for (size_t probe = 0; probe < kReadProbes; ++probe) {
    const size_t index = (h + probe) & mask;
    ReadSlot& slot = table[index];
    uint32_t s = slot.seq.load(std::memory_order_acquire);
    if ((s & 1u) != 0) {
      continue;  // another writer owns it right now
    }
    if (s == 0) {
      // Claim the empty slot. Losing the race just means someone else filled
      // it; re-examine it as an occupied slot.
      if (slot.seq.compare_exchange_strong(s, 1u, std::memory_order_acq_rel)) {
        filled_slots_[num_filled_.fetch_add(1, std::memory_order_relaxed)] =
            static_cast<uint32_t>(index);
        fill(slot, 1u);
        return;
      }
      continue;
    }
    bool match = true;
    for (size_t i = 0; i < w.size(); ++i) {
      if (slot.words[i].load(std::memory_order_relaxed) != w[i]) {
        match = false;
        break;
      }
    }
    if (match) {
      return;  // already cached (the test is deterministic: same value)
    }
  }
  // Window full of other keys: displace the home slot (newest-wins keeps the
  // hot working set resident). Opportunistic — give up silently on a race;
  // the authoritative tier holds the entry either way.
  ReadSlot& slot = table[h & mask];
  uint32_t s = slot.seq.load(std::memory_order_relaxed);
  if ((s & 1u) != 0) {
    return;
  }
  if (!slot.seq.compare_exchange_strong(s, s + 1, std::memory_order_acq_rel)) {
    return;
  }
  fill(slot, s + 1);
}

std::optional<CICache::Hit> CICache::Probe(const Key& key, uint32_t shard,
                                           const WriteBuffer* pending) const {
  if (auto fast = ProbeReadTable(key, shard)) {
    return fast;
  }
  if (pending != nullptr && pending->any_.load(std::memory_order_acquire)) {
    const WriteBuffer::Lane& lane = pending->lanes_[KeyHash{}(key) % WriteBuffer::kLanes];
    std::lock_guard<std::mutex> lock(lane.mu);
    const auto it = lane.map.find(key);
    if (it != lane.map.end()) {
      return Hit{it->second, /*cross_shard=*/false};  // our own unpublished store
    }
  }
  const Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return std::nullopt;
  }
  Hit hit;
  hit.p_value = it->second.p_value;
  hit.cross_shard = it->second.shard != shard;
  return hit;
}

std::optional<CICache::Hit> CICache::LookupFrom(const Key& key, uint32_t shard,
                                                const WriteBuffer* pending) {
  BumpCell(lookup_cells_, 1);
  const auto hit = Probe(key, shard, pending);
  if (hit) {
    BumpCell(hit_cells_, 1);
    if (hit->cross_shard) {
      BumpCell(cross_cells_, 1);
    }
  }
  return hit;
}

std::optional<CICache::Hit> CICache::LookupQuiet(const Key& key, uint32_t shard,
                                                 const WriteBuffer* pending) const {
  return Probe(key, shard, pending);
}

void CICache::Store(const Key& key, double p_value, uint32_t shard) {
  {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (max_entries_ > 0 && stripe.map.size() >= std::max<size_t>(1, max_entries_ / kStripes)) {
      // Coarse per-stripe eviction: drop the stripe and start over. Entries
      // are pure memoization, so losing them costs re-evaluation, never
      // correctness; tracking recency on the hot path would cost more than
      // the occasional refill. (The read table is deliberately left alone —
      // a resident copy of an evicted entry still serves the same value.)
      stripe.map.clear();
    }
    stripe.map.emplace(key, Entry{p_value, shard});
  }
  InsertReadTable(key, p_value, shard);
}

void CICache::StoreBuffered(const Key& key, double p_value, WriteBuffer* pending) {
  WriteBuffer::Lane& lane = pending->lanes_[KeyHash{}(key) % WriteBuffer::kLanes];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.map.emplace(key, p_value);  // dupes carry the same value; first wins
  }
  pending->any_.store(true, std::memory_order_release);
}

void CICache::Publish(WriteBuffer* pending, uint32_t shard) {
  if (!pending->any_.load(std::memory_order_acquire)) {
    return;
  }
  for (WriteBuffer::Lane& lane : pending->lanes_) {
    std::lock_guard<std::mutex> lock(lane.mu);
    for (const auto& [key, p] : lane.map) {
      Store(key, p, shard);
    }
    lane.map.clear();
  }
  // Publish must not race StoreBuffered on the same buffer (it is called at
  // phase barriers / destruction, when the owning sweep is quiescent), so
  // clearing the flag after the drain cannot lose a store.
  pending->any_.store(false, std::memory_order_release);
}

void CICache::AddCounterSamples(long long lookups, long long hits, long long cross_shard) {
  if (lookups != 0) {
    BumpCell(lookup_cells_, lookups);
  }
  if (hits != 0) {
    BumpCell(hit_cells_, hits);
  }
  if (cross_shard != 0) {
    BumpCell(cross_cells_, cross_shard);
  }
}

size_t CICache::size() const {
  size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total += stripe.map.size();
  }
  return total;
}

void CICache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.map.clear();
  }
  // Quiescence is the caller's contract (see header): with no concurrent
  // readers or writers, resetting slots to their empty state is safe. Only
  // the slots filled since the last Clear can be non-empty.
  ReadSlot* table = read_table_.load(std::memory_order_acquire);
  if (table != nullptr) {
    const uint32_t filled = num_filled_.load(std::memory_order_relaxed);
    for (uint32_t i = 0; i < filled; ++i) {
      table[filled_slots_[i]].seq.store(0, std::memory_order_relaxed);
    }
    num_filled_.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
}

void CICache::ResetCounters() {
  for (CounterCell& cell : hit_cells_) {
    cell.v.store(0, std::memory_order_relaxed);
  }
  for (CounterCell& cell : lookup_cells_) {
    cell.v.store(0, std::memory_order_relaxed);
  }
  for (CounterCell& cell : cross_cells_) {
    cell.v.store(0, std::memory_order_relaxed);
  }
}

bool CICache::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  // Snapshot the stripes under their locks first so the entry count in the
  // header is exact even while other shards keep storing.
  std::vector<std::pair<Key, double>> entries;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    entries.reserve(entries.size() + stripe.map.size());
    for (const auto& [key, entry] : stripe.map) {
      entries.emplace_back(key, entry.p_value);
    }
  }
  out.write(kCacheMagic, sizeof(kCacheMagic));
  binio::WriteU32(out, binio::kEndianMarker);
  binio::WriteU32(out, 0);  // reserved
  binio::WriteU64(out, entries.size());
  for (const auto& [key, p] : entries) {
    binio::WriteU64(out, key.table_tag);
    binio::WriteU32(out, static_cast<uint32_t>(key.x));
    binio::WriteU32(out, static_cast<uint32_t>(key.y));
    binio::WriteU64(out, key.n_rows);
    binio::WriteU32(out, key.s_size);
    for (size_t i = 0; i < kMaxConditioning; ++i) {
      binio::WriteU32(out, static_cast<uint32_t>(key.s[i]));
    }
    binio::WriteDouble(out, p);
  }
  return static_cast<bool>(out);
}

long long CICache::LoadFrom(const std::string& path, uint32_t shard) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return -1;
  }
  char magic[8];
  if (!in.read(magic, sizeof(magic)) || std::memcmp(magic, kCacheMagic, sizeof(magic)) != 0) {
    return -1;
  }
  uint32_t endian = 0;
  uint32_t reserved = 0;
  uint64_t count = 0;
  if (!binio::ReadU32(in, &endian) || endian != binio::kEndianMarker ||
      !binio::ReadU32(in, &reserved) || !binio::ReadU64(in, &count)) {
    return -1;
  }
  long long loaded = 0;
  for (uint64_t e = 0; e < count; ++e) {
    Key key;
    uint32_t x = 0;
    uint32_t y = 0;
    uint32_t field = 0;
    double p = 0.0;
    if (!binio::ReadU64(in, &key.table_tag) || !binio::ReadU32(in, &x) ||
        !binio::ReadU32(in, &y) || !binio::ReadU64(in, &key.n_rows) ||
        !binio::ReadU32(in, &key.s_size)) {
      return -1;  // truncated mid-entry
    }
    key.x = static_cast<int32_t>(x);
    key.y = static_cast<int32_t>(y);
    if (key.s_size > kMaxConditioning) {
      return -1;
    }
    for (size_t i = 0; i < kMaxConditioning; ++i) {
      if (!binio::ReadU32(in, &field)) {
        return -1;
      }
      key.s[i] = static_cast<int32_t>(field);
    }
    if (!binio::ReadDouble(in, &p)) {
      return -1;
    }
    Store(key, p, shard);
    ++loaded;
  }
  return loaded;
}

double CachedCITest::PValue(int x, int y, const std::vector<int>& s) const {
  ++calls;
  if (cache_ == nullptr || !CICache::Cacheable(s)) {
    return inner_.PValue(x, y, s);
  }
  const CICache::Key key = CICache::MakeKey(x, y, s, n_rows_, table_tag_);
  if (const auto cached = cache_->LookupFrom(key, shard_, &pending_)) {
    ++hits_;
    if (cached->cross_shard) {
      ++cross_shard_hits_;
    }
    return cached->p_value;
  }
  // Concurrent misses on the same key may both evaluate; the test is
  // deterministic, so both store the same value.
  const double p = inner_.PValue(x, y, s);
  cache_->StoreBuffered(key, p, &pending_);
  return p;
}

int CachedCITest::FirstIndependent(const BatchedCIRequest& req, double* p_out) const {
  if (cache_ == nullptr) {
    // No cache: hand the whole level to the inner test so it can amortize,
    // advancing this decorator's counter once per examined set as the serial
    // loop would.
    const int idx = inner_.FirstIndependent(req, p_out);
    calls += idx >= 0 ? idx + 1 : static_cast<long long>(req.sets->size());
    return idx;
  }
  const auto& sets = *req.sets;
  for (size_t i = 0; i < sets.size(); ++i) {
    ++calls;
    const std::vector<int>& s = sets[i];
    double p;
    if (!CICache::Cacheable(s)) {
      p = inner_.PValue(req.x, req.y, s);
    } else {
      const CICache::Key key = CICache::MakeKey(req.x, req.y, s, n_rows_, table_tag_);
      if (const auto cached = cache_->LookupFrom(key, shard_, &pending_)) {
        ++hits_;
        if (cached->cross_shard) {
          ++cross_shard_hits_;
        }
        p = cached->p_value;
      } else {
        p = inner_.PValue(req.x, req.y, s);
        cache_->StoreBuffered(key, p, &pending_);
      }
    }
    if (p >= req.alpha) {
      if (p_out != nullptr) {
        *p_out = p;
      }
      return static_cast<int>(i);
    }
  }
  return -1;
}

void CachedCITest::SpeculateFirstIndependent(const BatchedCIRequest& req,
                                             const PendingPValues* overlay,
                                             CISpeculation* out) const {
  if (cache_ == nullptr) {
    // No cache: delegate to the inner test's speculation (its counter
    // advances during evaluation and rolls back on discard); this
    // decorator's own counter advances only on adoption.
    inner_.SpeculateFirstIndependent(req, nullptr, out);
    return;
  }
  *out = CISpeculation{};  // a reused speculation must not accumulate
  const auto& sets = *req.sets;
  for (size_t i = 0; i < sets.size(); ++i) {
    ++out->examined;
    const std::vector<int>& s = sets[i];
    double p = 0.0;
    if (!CICache::Cacheable(s)) {
      p = inner_.PValue(req.x, req.y, s);
      ++out->inner_evals;
    } else {
      ++out->lookups;
      bool found = false;
      if (overlay != nullptr && !overlay->empty()) {
        // The prior sweep of this pair's other side stored these; a serial
        // run would find them in the cache.
        std::vector<int> sorted = s;
        std::sort(sorted.begin(), sorted.end());
        const auto it = overlay->find(sorted);
        if (it != overlay->end()) {
          p = it->second;
          found = true;
          ++out->hits;
        }
      }
      if (!found) {
        const CICache::Key key = CICache::MakeKey(req.x, req.y, s, n_rows_, table_tag_);
        if (const auto cached = cache_->LookupQuiet(key, shard_, &pending_)) {
          p = cached->p_value;
          found = true;
          ++out->hits;
          if (cached->cross_shard) {
            ++out->cross_shard_hits;
          }
        }
      }
      if (!found) {
        p = inner_.PValue(req.x, req.y, s);
        ++out->inner_evals;
        out->stores.emplace_back(i, p);
      }
    }
    if (p >= req.alpha) {
      out->first_independent = static_cast<int>(i);
      out->p = p;
      return;
    }
  }
}

void CachedCITest::AdoptSpeculation(const CISpeculation& spec, const BatchedCIRequest& req) const {
  calls += spec.examined;
  if (cache_ == nullptr) {
    return;  // the inner test already carries its evaluation counts
  }
  hits_ += spec.hits;
  cross_shard_hits_ += spec.cross_shard_hits;
  cache_->AddCounterSamples(spec.lookups, spec.hits, spec.cross_shard_hits);
  for (const auto& [index, p] : spec.stores) {
    const CICache::Key key =
        CICache::MakeKey(req.x, req.y, (*req.sets)[index], n_rows_, table_tag_);
    cache_->StoreBuffered(key, p, &pending_);
  }
}

void CachedCITest::DiscardSpeculation(const CISpeculation& spec) const {
  // Roll back the inner evaluations' counter advances; the memoized
  // intermediate state they warmed (coded columns, correlations) is
  // value-deterministic, so leaving it warm cannot change any later result.
  inner_.DiscardSpeculation(spec);
}

void CachedCITest::AppendPendingOverlay(const CISpeculation& spec, const BatchedCIRequest& req,
                                        PendingPValues* overlay) const {
  if (cache_ == nullptr) {
    return;  // uncached: no cross-sweep visibility to model
  }
  for (const auto& [index, p] : spec.stores) {
    std::vector<int> s = (*req.sets)[index];
    std::sort(s.begin(), s.end());
    (*overlay)[std::move(s)] = p;
  }
}

void CachedCITest::PublishPending() const {
  if (cache_ != nullptr) {
    cache_->Publish(&pending_, shard_);
  }
}

}  // namespace unicorn
