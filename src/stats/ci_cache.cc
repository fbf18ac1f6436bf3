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

std::optional<CICache::Hit> CICache::LookupFrom(const Key& key, uint32_t shard) {
  BumpCell(lookup_cells_, 1);
  Hit hit;
  {
    const Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
      return std::nullopt;
    }
    hit = Hit{it->second.p_value, it->second.shard != shard};
  }
  BumpCell(hit_cells_, 1);
  if (hit.cross_shard) {
    BumpCell(cross_cells_, 1);
  }
  return hit;
}

void CICache::Store(const Key& key, double p_value, uint32_t shard) {
  Stripe& stripe = StripeFor(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (max_entries_ > 0 && stripe.map.size() >= std::max<size_t>(1, max_entries_ / kStripes)) {
    // Coarse per-stripe eviction: drop the stripe and start over. Entries
    // are pure memoization, so losing them costs re-evaluation, never
    // correctness; tracking recency on the hot path would cost more than
    // the occasional refill.
    stripe.map.clear();
  }
  stripe.map.emplace(key, Entry{p_value, shard});
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
  if (const auto cached = cache_->LookupFrom(key, shard_)) {
    ++hits_;
    if (cached->cross_shard) {
      ++cross_shard_hits_;
    }
    return cached->p_value;
  }
  // Concurrent misses on the same key may both evaluate; the test is
  // deterministic, so both store the same value.
  const double p = inner_.PValue(x, y, s);
  cache_->Store(key, p, shard_);
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
      if (const auto cached = cache_->LookupFrom(key, shard_)) {
        ++hits_;
        if (cached->cross_shard) {
          ++cross_shard_hits_;
        }
        p = cached->p_value;
      } else {
        p = inner_.PValue(req.x, req.y, s);
        cache_->Store(key, p, shard_);
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

}  // namespace unicorn
