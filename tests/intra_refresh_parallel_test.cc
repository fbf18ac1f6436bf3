// Intra-refresh parallelism contract: the parallel skeleton level sweep and
// entropic phase, the serial Possible-D-SEP phase that follows them, and the
// concurrent CI cache must be invisible in the results — any engine thread
// count reproduces the serial reference bit-for-bit, including the
// test-call and cache-hit ledgers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "causal/entropic.h"
#include "causal/fci.h"
#include "stats/ci_cache.h"
#include "sysmodel/systems.h"
#include "unicorn/model_learner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace unicorn {
namespace {

struct World {
  DataTable data;
  std::vector<Variable> vars;
};

World MeasuredWorld(SystemId id, size_t rows, uint64_t seed) {
  SystemSpec spec;
  spec.num_events = 8;
  const auto model = std::make_shared<SystemModel>(BuildSystem(id, spec));
  Rng rng(seed);
  std::vector<std::vector<double>> configs;
  for (size_t i = 0; i < rows; ++i) {
    configs.push_back(model->SampleConfig(&rng));
  }
  World world;
  world.data = model->MeasureMany(configs, Xavier(), DefaultWorkload(), &rng);
  world.vars = world.data.Variables();
  return world;
}

// Shallow skeleton + deeper Possible-D-SEP, so the PDS phase has real work.
FciOptions PdsHeavyOptions() {
  FciOptions options;
  options.skeleton.max_cond_size = 1;
  options.skeleton.max_subsets = 8;
  options.use_possible_dsep = true;
  options.max_pds_cond_size = 2;
  return options;
}

::testing::AssertionResult SameMarks(const MixedGraph& a, const MixedGraph& b) {
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    for (size_t j = 0; j < a.NumNodes(); ++j) {
      if (a.EndMark(i, j) != b.EndMark(i, j)) {
        return ::testing::AssertionFailure() << "marks differ at (" << i << ", " << j << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameSepsets(const SepsetMap& a, const SepsetMap& b, size_t n) {
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = x + 1; y < n; ++y) {
      const auto* sa = a.Get(x, y);
      const auto* sb = b.Get(x, y);
      if ((sa == nullptr) != (sb == nullptr)) {
        return ::testing::AssertionFailure()
               << "sepset presence differs at (" << x << ", " << y << ")";
      }
      if (sa != nullptr && *sa != *sb) {
        return ::testing::AssertionFailure()
               << "sepset contents differ at (" << x << ", " << y << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IntraRefreshParallelTest, PdsPhaseBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kDeepspeech, 220, 31);
  const StructuralConstraints constraints(world.vars);
  const FciOptions options = PdsHeavyOptions();
  const size_t n = world.data.NumVars();

  const CompositeTest serial_test(world.data);
  const FciResult serial = RunFci(serial_test, constraints, n, options);
  ASSERT_GT(serial.tests_performed, 0);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const CompositeTest test(world.data);
    const FciResult parallel = RunFci(test, constraints, n, options, {}, &pool);
    EXPECT_TRUE(SameMarks(serial.pag, parallel.pag)) << "threads=" << threads;
    EXPECT_EQ(serial.tests_performed, parallel.tests_performed) << "threads=" << threads;
    EXPECT_TRUE(SameSepsets(serial.sepsets, parallel.sepsets, n)) << "threads=" << threads;
  }
}

TEST(IntraRefreshParallelTest, PdsPhaseBitIdenticalWithCache) {
  const World world = MeasuredWorld(SystemId::kXception, 200, 32);
  const StructuralConstraints constraints(world.vars);
  const FciOptions options = PdsHeavyOptions();
  const size_t n = world.data.NumVars();

  // Serial cached reference: requested/evaluated/hit ledgers included.
  const CompositeTest serial_inner(world.data);
  CICache serial_cache;
  const CachedCITest serial_cached(serial_inner, &serial_cache, world.data.NumRows());
  const FciResult serial = RunFci(serial_cached, constraints, n, options);
  ASSERT_GT(serial_cached.calls.load(), 0);
  ASSERT_GT(serial_cache.hits(), 0);  // the PDS phase must re-hit skeleton keys

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const CompositeTest inner(world.data);
    CICache cache;
    const CachedCITest cached(inner, &cache, world.data.NumRows());
    const FciResult parallel = RunFci(cached, constraints, n, options, {}, &pool);
    EXPECT_TRUE(SameMarks(serial.pag, parallel.pag)) << "threads=" << threads;
    EXPECT_TRUE(SameSepsets(serial.sepsets, parallel.sepsets, n)) << "threads=" << threads;
    EXPECT_EQ(serial.tests_performed, parallel.tests_performed) << "threads=" << threads;
    // The whole accounting chain must match the serial run exactly:
    // requested (decorator), evaluated (inner), hits (decorator + cache).
    EXPECT_EQ(serial_cached.calls.load(), cached.calls.load()) << "threads=" << threads;
    EXPECT_EQ(serial_inner.calls.load(), inner.calls.load()) << "threads=" << threads;
    EXPECT_EQ(serial_cached.hits(), cached.hits()) << "threads=" << threads;
    EXPECT_EQ(serial_cache.hits(), cache.hits()) << "threads=" << threads;
    EXPECT_EQ(serial_cache.lookups(), cache.lookups()) << "threads=" << threads;
    EXPECT_EQ(cache.cross_shard_hits(), 0) << "threads=" << threads;
  }
}

::testing::AssertionResult SameDecisions(const EdgeDecisionMap& a, const EdgeDecisionMap& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "decision counts differ: " << a.size() << " vs "
                                         << b.size();
  }
  for (const auto& [pair, da] : a) {
    const auto it = b.find(pair);
    if (it == b.end()) {
      return ::testing::AssertionFailure()
             << "pair (" << pair.first << ", " << pair.second << ") missing";
    }
    const EdgeDecision& db = it->second;
    if (da.kind != db.kind || da.entropy_forward != db.entropy_forward ||
        da.entropy_backward != db.entropy_backward || da.latent_entropy != db.latent_entropy ||
        da.latent_found != db.latent_found) {
      return ::testing::AssertionFailure()
             << "decision differs at (" << pair.first << ", " << pair.second << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(IntraRefreshParallelTest, EntropicPhaseBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kX264, 220, 33);
  const StructuralConstraints constraints(world.vars);
  const size_t n = world.data.NumVars();

  // A hand-built PAG with plenty of unresolved circle edges, so the
  // entropic resolver has real scoring work at every pair.
  MixedGraph unresolved(n);
  const size_t span = std::min<size_t>(n, 12);
  for (size_t a = 0; a < span; ++a) {
    for (size_t b = a + 1; b < std::min(span, a + 3); ++b) {
      unresolved.AddCircleCircle(a, b);
    }
  }

  EntropicOptions options;
  options.latent.restarts = 2;
  options.latent.iterations = 30;

  Rng serial_rng(97);
  MixedGraph serial_pag = unresolved;
  EdgeDecisionMap serial_decisions;
  ResolveWithEntropy(world.data, constraints, options, &serial_rng, &serial_pag, nullptr,
                     &serial_decisions);
  ASSERT_FALSE(serial_decisions.empty());
  const uint64_t serial_next = serial_rng.NextU64();

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    Rng rng(97);
    MixedGraph pag = unresolved;
    EdgeDecisionMap decisions;
    ResolveWithEntropy(world.data, constraints, options, &rng, &pag, nullptr, &decisions,
                       &pool);
    EXPECT_TRUE(SameMarks(serial_pag, pag)) << "threads=" << threads;
    EXPECT_TRUE(SameDecisions(serial_decisions, decisions)) << "threads=" << threads;
    // The parent stream must advance identically too (one Fork per fresh
    // pair), so everything downstream of the resolver stays deterministic.
    EXPECT_EQ(serial_next, rng.NextU64()) << "threads=" << threads;
  }
}

TEST(IntraRefreshParallelTest, EngineRefreshBitIdenticalAcrossThreadCounts) {
  const World world = MeasuredWorld(SystemId::kSqlite, 260, 34);
  CausalModelOptions model_options;
  model_options.fci = PdsHeavyOptions();
  model_options.entropic.latent.restarts = 1;
  model_options.entropic.latent.iterations = 20;

  struct Snapshot {
    MixedGraph admg;
    long long requested = 0;
    long long evaluated = 0;
    long long hits = 0;
  };
  std::vector<Snapshot> snapshots;
  for (int threads : {1, 2, 8}) {
    EngineOptions engine_options;
    engine_options.num_threads = threads;
    engine_options.use_ci_cache = true;
    CausalModelEngine engine(world.vars, model_options, engine_options);
    for (size_t r = 0; r < world.data.NumRows(); ++r) {
      engine.AddRow(world.data.Row(r));
    }
    engine.Refresh(411);
    // Second, warm refresh after appended rows: exercises Update(pool),
    // warm-start dirty tracking, and the cache across refreshes.
    for (size_t r = 0; r < 40; ++r) {
      engine.AddRow(world.data.Row(r % world.data.NumRows()));
    }
    engine.Refresh(412);
    const EngineStats& stats = engine.stats();
    snapshots.push_back({engine.model().admg, stats.total_tests_requested,
                         stats.total_tests_evaluated, stats.total_cache_hits});
  }
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_TRUE(SameMarks(snapshots[0].admg, snapshots[i].admg)) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].requested, snapshots[i].requested) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].evaluated, snapshots[i].evaluated) << "matrix row " << i;
    EXPECT_EQ(snapshots[0].hits, snapshots[i].hits) << "matrix row " << i;
  }
}

// TSan target for the cache's one lookup/store path: eight threads look up
// shared keys while storing private keys straight into the cache, with a
// ninth writer re-storing the shared keys throughout.
TEST(IntraRefreshParallelTest, ConcurrentLookupStoreHammer) {
  CICache cache;
  constexpr int kSharedKeys = 64;
  std::vector<CICache::Key> keys;
  for (int i = 0; i < kSharedKeys; ++i) {
    keys.push_back(CICache::MakeKey(i % 11, 16 + i % 13, {i % 7, 8 + i % 5}, 500, 7));
    cache.Store(keys.back(), 1e-3 * i, /*shard=*/0);
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 250;
  std::array<long long, kThreads> found{};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      long long local_found = 0;
      for (int iter = 0; iter < kIters; ++iter) {
        for (int k = 0; k < kSharedKeys; ++k) {
          const auto hit = cache.LookupFrom(keys[k], /*shard=*/1);
          if (hit.has_value()) {
            ++local_found;
            if (hit->p_value != 1e-3 * k) {
              ok.store(false);  // wrong value served
            }
          }
        }
        const auto mine =
            CICache::MakeKey(100 + t, 200 + iter % 16, {3, 5}, 500, 7);
        cache.Store(mine, 0.5, static_cast<uint32_t>(t));
        const auto own = cache.LookupFrom(mine, static_cast<uint32_t>(t));
        if (!own.has_value() || own->p_value != 0.5 || own->cross_shard) {
          ok.store(false);  // own store must be visible at once, shard-local
        }
      }
      found[t] = local_found;
    });
  }
  // Shared-stripe writer racing the lookups.
  std::thread writer([&] {
    for (int iter = 0; iter < kIters; ++iter) {
      for (int k = 0; k < kSharedKeys; k += 3) {
        cache.Store(keys[k], 1e-3 * k, /*shard=*/2);
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  writer.join();

  EXPECT_TRUE(ok.load());
  for (int t = 0; t < kThreads; ++t) {
    // Pre-populated shared keys never disappear: every lookup must hit.
    EXPECT_EQ(found[t], static_cast<long long>(kSharedKeys) * kIters) << "thread " << t;
  }
  // Every private key is visible to every shard.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 16; ++i) {
      const auto key = CICache::MakeKey(100 + t, 200 + i, {3, 5}, 500, 7);
      EXPECT_TRUE(cache.LookupFrom(key, 0).has_value()) << "thread " << t << " key " << i;
    }
  }
}

}  // namespace
}  // namespace unicorn
