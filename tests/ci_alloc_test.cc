// Warm CI evaluations allocate nothing.
//
// This binary replaces the global allocation functions with counting ones.
// Once a test's memoized inputs exist (correlations, coded columns, strata,
// per-thread scratch), evaluating it again with a conditioning set of at
// most CICache::kMaxConditioning variables must not touch the heap: Fisher z
// solves on the stack, the G test reads published memos and counts into
// reused scratch.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/ci_cache.h"
#include "stats/independence.h"
#include "stats/table.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace unicorn {
namespace {

// Counts allocations made by `body` on any thread.
template <typename Body>
long long AllocationsDuring(Body&& body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

// Ten continuous columns (Fisher z) and ten three-level discrete columns
// (G test), so both can condition on up to eight variables.
DataTable MixedTable() {
  std::vector<Variable> vars;
  for (int v = 0; v < 10; ++v) {
    vars.push_back({"c" + std::to_string(v), VarType::kContinuous, VarRole::kEvent, {}});
  }
  for (int v = 0; v < 10; ++v) {
    vars.push_back({"d" + std::to_string(v), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}});
  }
  DataTable t(vars);
  Rng rng(5);
  for (int r = 0; r < 300; ++r) {
    const double latent = rng.Gaussian();
    std::vector<double> row;
    for (int v = 0; v < 10; ++v) {
      row.push_back(0.1 * v * latent + rng.Gaussian());
    }
    for (int v = 0; v < 10; ++v) {
      row.push_back(static_cast<double>(rng.UniformInt(uint64_t{3})));
    }
    t.AddRow(row);
  }
  return t;
}

// Conditioning sets of sizes 0..kMaxConditioning over [first, first + 10),
// avoiding x = first and y = first + 1, in unsorted order.
std::vector<std::vector<int>> Sets(int first) {
  std::vector<std::vector<int>> sets;
  for (size_t k = 0; k <= CICache::kMaxConditioning; ++k) {
    std::vector<int> s;
    for (size_t i = 0; i < k; ++i) {
      s.push_back(first + 9 - static_cast<int>(i));
    }
    sets.push_back(s);
  }
  return sets;
}

TEST(CIAllocation, WarmPValuesDoNotAllocate) {
  const DataTable t = MixedTable();
  const FisherZTest fisher(t);
  const GSquareTest gsq(t);
  const CompositeTest composite(t);
  const auto fisher_sets = Sets(0);
  const auto gsq_sets = Sets(10);
  const auto evaluate = [&] {
    double sum = 0.0;
    for (const auto& s : fisher_sets) {
      sum += fisher.PValue(0, 1, s) + composite.PValue(0, 1, s);
    }
    for (const auto& s : gsq_sets) {
      sum += gsq.PValue(10, 11, s) + composite.PValue(10, 11, s);
    }
    BatchedCIRequest req;
    req.x = 10;
    req.y = 11;
    req.sets = &gsq_sets;
    req.alpha = 2.0;  // never independent: every set is examined
    sum += gsq.FirstIndependent(req) + composite.FirstIndependent(req);
    req.x = 0;
    req.y = 1;
    req.sets = &fisher_sets;
    sum += fisher.FirstIndependent(req) + composite.FirstIndependent(req);
    return sum;
  };
  const double cold = evaluate();  // fills every memo and the scratch
  double warm = 0.0;
  EXPECT_EQ(AllocationsDuring([&] { warm = evaluate(); }), 0);
  EXPECT_EQ(warm, cold);
}

// The counter itself works: a set beyond the solver's stack buffer takes the
// heap path.
TEST(CIAllocation, HeapPathIsCounted) {
  const DataTable t = MixedTable();
  const FisherZTest fisher(t);
  std::vector<int> nine;
  for (int v = 2; v <= 10; ++v) {
    nine.push_back(v);
  }
  const double cold = fisher.PValue(0, 1, nine);
  double warm = 0.0;
  EXPECT_GT(AllocationsDuring([&] { warm = fisher.PValue(0, 1, nine); }), 0);
  EXPECT_EQ(warm, cold);
}

}  // namespace
}  // namespace unicorn
