#include "causal/fci.h"

#include <gtest/gtest.h>

#include "stats/ci_cache.h"
#include "sysmodel/systems.h"
#include "util/rng.h"

namespace unicorn {
namespace {

// Collider system: o0 -> e0 <- o1, e0 -> y.
DataTable ColliderData(size_t n, Rng* rng) {
  std::vector<Variable> vars = {
      {"o0", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"o1", VarType::kContinuous, VarRole::kOption, {0, 1}},
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"y", VarType::kContinuous, VarRole::kObjective, {}},
  };
  DataTable t(vars);
  for (size_t i = 0; i < n; ++i) {
    const double o0 = rng->Uniform();
    const double o1 = rng->Uniform();
    const double e0 = 1.8 * o0 + 2.2 * o1 + rng->Gaussian(0, 0.05);
    const double y = 2.5 * e0 + rng->Gaussian(0, 0.05);
    t.AddRow({o0, o1, e0, y});
  }
  return t;
}

TEST(FciTest, OrientsOptionEdgesIntoEvents) {
  Rng rng(21);
  const DataTable data = ColliderData(1000, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const FciResult result = RunFci(test, constraints, data.NumVars());
  // Background knowledge: options are exogenous -> tail at option, arrow at
  // event.
  EXPECT_TRUE(result.pag.HasEdge(0, 2));
  EXPECT_EQ(result.pag.EndMark(2, 0), Mark::kTail);
  EXPECT_EQ(result.pag.EndMark(0, 2), Mark::kArrow);
}

TEST(FciTest, ArrowIntoObjective) {
  Rng rng(22);
  const DataTable data = ColliderData(1000, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const FciResult result = RunFci(test, constraints, data.NumVars());
  ASSERT_TRUE(result.pag.HasEdge(2, 3));
  EXPECT_EQ(result.pag.EndMark(2, 3), Mark::kArrow);
}

TEST(FciTest, RemovesMediatedEdge) {
  Rng rng(23);
  const DataTable data = ColliderData(1500, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  const FciResult result = RunFci(test, constraints, data.NumVars());
  EXPECT_FALSE(result.pag.HasEdge(0, 3));
  EXPECT_FALSE(result.pag.HasEdge(1, 3));
}

TEST(VStructureTest, OrientsCollider) {
  // Hand-built skeleton x - z - y with sepset(x, y) = {} (z not in it).
  MixedGraph g(3);
  g.AddCircleCircle(0, 2);
  g.AddCircleCircle(1, 2);
  SepsetMap sepsets;
  sepsets.Set(0, 1, {});
  OrientVStructures(sepsets, &g);
  EXPECT_EQ(g.EndMark(0, 2), Mark::kArrow);
  EXPECT_EQ(g.EndMark(1, 2), Mark::kArrow);
}

TEST(VStructureTest, NoOrientationWhenInSepset) {
  MixedGraph g(3);
  g.AddCircleCircle(0, 2);
  g.AddCircleCircle(1, 2);
  SepsetMap sepsets;
  sepsets.Set(0, 1, {2});  // z separates x and y -> chain, not collider
  OrientVStructures(sepsets, &g);
  EXPECT_EQ(g.EndMark(0, 2), Mark::kCircle);
  EXPECT_EQ(g.EndMark(1, 2), Mark::kCircle);
}

TEST(PossibleDSepTest, CollidersExtendReach) {
  // 0 *-> 1 <-* 2 (collider at 1): 2 is in pds(0) through the collider.
  MixedGraph g(3);
  g.SetEdge(0, 1, Mark::kCircle, Mark::kArrow);
  g.SetEdge(2, 1, Mark::kCircle, Mark::kArrow);
  const auto pds = PossibleDSep(g, 0);
  EXPECT_NE(std::find(pds.begin(), pds.end(), 1u), pds.end());
  EXPECT_NE(std::find(pds.begin(), pds.end(), 2u), pds.end());
}

TEST(PossibleDSepTest, NonColliderChainStops) {
  // 0 o-o 1 o-o 2 with no collider and no triangle: 2 not reachable.
  MixedGraph g(3);
  g.AddCircleCircle(0, 1);
  g.AddCircleCircle(1, 2);
  const auto pds = PossibleDSep(g, 0);
  EXPECT_NE(std::find(pds.begin(), pds.end(), 1u), pds.end());
  EXPECT_EQ(std::find(pds.begin(), pds.end(), 2u), pds.end());
}

TEST(PossibleDSepTest, TriangleExtends) {
  MixedGraph g(3);
  g.AddCircleCircle(0, 1);
  g.AddCircleCircle(1, 2);
  g.AddCircleCircle(0, 2);
  const auto pds = PossibleDSep(g, 0);
  EXPECT_EQ(pds.size(), 2u);
}

TEST(RulesTest, R1OrientsChainAwayFromCollider) {
  // a *-> b o-o c with a, c non-adjacent: R1 gives b -> c.
  MixedGraph g(3);
  g.SetEdge(0, 1, Mark::kCircle, Mark::kArrow);
  g.AddCircleCircle(1, 2);
  SepsetMap sepsets;
  ApplyOrientationRules(sepsets, &g);
  EXPECT_TRUE(g.IsDirected(1, 2));
}

TEST(RulesTest, R2OrientsTransitive) {
  // a -> b -> c and a o-o c: arrow at c on a-c.
  MixedGraph g(3);
  g.AddDirected(0, 1);
  g.AddDirected(1, 2);
  g.AddCircleCircle(0, 2);
  SepsetMap sepsets;
  ApplyOrientationRules(sepsets, &g);
  EXPECT_EQ(g.EndMark(0, 2), Mark::kArrow);
}

TEST(FciTest, LatentConfounderLeavesSharedEdgeStructure) {
  // Two events share a hidden cause (not in the table): e0 <- L -> e1.
  // FCI must keep e0 - e1 adjacent but cannot orient it as a clean
  // directed edge from observational data alone.
  Rng rng(24);
  std::vector<Variable> vars = {
      {"e0", VarType::kContinuous, VarRole::kEvent, {}},
      {"e1", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 800; ++i) {
    const double latent = rng.Gaussian();
    t.AddRow({latent + rng.Gaussian(0, 0.3), -latent + rng.Gaussian(0, 0.3)});
  }
  const StructuralConstraints constraints(t.Variables());
  const CompositeTest test(t);
  const FciResult result = RunFci(test, constraints, t.NumVars());
  EXPECT_TRUE(result.pag.HasEdge(0, 1));
}

TEST(FciTest, PdsStageCanBeDisabled) {
  Rng rng(25);
  const DataTable data = ColliderData(500, &rng);
  const StructuralConstraints constraints(data.Variables());
  const CompositeTest test(data);
  FciOptions options;
  options.use_possible_dsep = false;
  const FciResult result = RunFci(test, constraints, data.NumVars(), options);
  EXPECT_TRUE(result.pag.HasEdge(0, 2));
}

// --- caching / parallel / warm-start equivalences ---------------------------

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

FciOptions SmallFciOptions() {
  FciOptions options;
  options.skeleton.max_cond_size = 2;
  options.skeleton.max_subsets = 16;
  options.max_pds_cond_size = 1;
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

TEST(FciTest, CachedRunMatchesUncachedRun) {
  const World world = MeasuredWorld(SystemId::kXception, 220, 5);
  const StructuralConstraints constraints(world.vars);
  const FciOptions options = SmallFciOptions();

  const CompositeTest plain(world.data);
  const FciResult uncached = RunFci(plain, constraints, world.data.NumVars(), options);

  const CompositeTest inner(world.data);
  CICache cache;
  const CachedCITest cached(inner, &cache, world.data.NumRows());
  const FciResult with_cache = RunFci(cached, constraints, world.data.NumVars(), options);

  EXPECT_TRUE(SameMarks(uncached.pag, with_cache.pag));
  // Requested counts are identical; the cache only removes duplicate
  // evaluations, visible as inner calls < requested calls.
  EXPECT_EQ(uncached.tests_performed, with_cache.tests_performed);
  EXPECT_LT(inner.calls, cached.calls);
  EXPECT_EQ(cache.hits() + inner.calls, cached.calls);
}

TEST(FciTest, ParallelSkeletonBitIdenticalToSerial) {
  const World world = MeasuredWorld(SystemId::kDeepspeech, 250, 6);
  const StructuralConstraints constraints(world.vars);
  const CompositeTest test(world.data);

  SkeletonOptions serial;
  serial.max_cond_size = 2;
  serial.max_subsets = 16;
  serial.num_threads = 1;
  const SkeletonResult one = LearnSkeleton(test, constraints, world.data.NumVars(), serial);

  SkeletonOptions threaded = serial;
  threaded.num_threads = 4;
  const SkeletonResult four = LearnSkeleton(test, constraints, world.data.NumVars(), threaded);

  EXPECT_TRUE(SameMarks(one.graph, four.graph));
  EXPECT_EQ(one.tests_performed, four.tests_performed);
  for (size_t a = 0; a < world.data.NumVars(); ++a) {
    for (size_t b = a + 1; b < world.data.NumVars(); ++b) {
      const auto* sa = one.sepsets.Get(a, b);
      const auto* sb = four.sepsets.Get(a, b);
      ASSERT_EQ(sa == nullptr, sb == nullptr) << "sepset presence differs at " << a << "," << b;
      if (sa != nullptr) {
        EXPECT_EQ(*sa, *sb);
      }
    }
  }
}

TEST(FciTest, AllDirtyWarmStartEqualsColdStart) {
  const World world = MeasuredWorld(SystemId::kX264, 200, 7);
  const StructuralConstraints constraints(world.vars);
  const CompositeTest test(world.data);
  const FciOptions options = SmallFciOptions();
  const size_t n = world.data.NumVars();

  const FciResult cold = RunFci(test, constraints, n, options);

  // A warm start where every pair is dirty must degenerate to the cold run.
  std::vector<char> all_dirty(n * n, 1);
  SkeletonWarmStart warm;
  warm.graph = &cold.pag;
  warm.sepsets = &cold.sepsets;
  warm.pair_dirty = &all_dirty;
  const FciResult rerun = RunFci(test, constraints, n, options, warm);
  EXPECT_TRUE(SameMarks(cold.pag, rerun.pag));
}

TEST(FciTest, AllCleanWarmStartAdoptsWithoutTesting) {
  const World world = MeasuredWorld(SystemId::kX264, 200, 8);
  const StructuralConstraints constraints(world.vars);
  const CompositeTest test(world.data);
  const FciOptions options = SmallFciOptions();
  const size_t n = world.data.NumVars();

  const FciResult cold = RunFci(test, constraints, n, options);

  std::vector<char> all_clean(n * n, 0);
  SkeletonWarmStart warm;
  warm.graph = &cold.pag;
  warm.sepsets = &cold.sepsets;
  warm.pair_dirty = &all_clean;
  const long long calls_before = test.calls;
  const FciResult adopted = RunFci(test, constraints, n, options, warm);
  EXPECT_EQ(test.calls, calls_before);  // not a single CI test issued
  EXPECT_EQ(adopted.tests_performed, 0);
  // Adjacency is adopted wholesale; orientation re-derives from the sepsets.
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      EXPECT_EQ(cold.pag.HasEdge(a, b), adopted.pag.HasEdge(a, b));
    }
  }
}

TEST(CICacheTest, KeyNormalizationAndCounters) {
  CICache cache;
  const auto key = CICache::MakeKey(7, 3, {9, 2, 5}, 100);
  EXPECT_EQ(key.x, 3);
  EXPECT_EQ(key.y, 7);
  ASSERT_EQ(key.s_size, 3u);
  EXPECT_EQ(key.s[0], 2);
  EXPECT_EQ(key.s[1], 5);
  EXPECT_EQ(key.s[2], 9);

  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Store(key, 0.25);
  // Same test asked with swapped endpoints and permuted conditioning set.
  const auto alias = CICache::MakeKey(3, 7, {5, 9, 2}, 100);
  const auto hit = cache.Lookup(alias);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.25);
  // A different row count is a different dataset.
  EXPECT_FALSE(cache.Lookup(CICache::MakeKey(3, 7, {2, 5, 9}, 101)).has_value());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.lookups(), 3);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

// Clear empties every stripe: each entry stored before it must be gone,
// across repeated fill/clear cycles of very different sizes.
TEST(CICacheTest, ClearEmptiesEveryStripeAcrossCycles) {
  CICache cache;
  for (const int keys : {300, 40000, 5, 0, 1200}) {
    for (int k = 0; k < keys; ++k) {
      cache.Store(CICache::MakeKey(k % 97, 100 + k / 97, {k % 7}, 50), 0.5);
    }
    for (int k = 0; k < keys; ++k) {
      ASSERT_TRUE(cache.Lookup(CICache::MakeKey(k % 97, 100 + k / 97, {k % 7}, 50)).has_value())
          << "keys=" << keys << " k=" << k;
    }
    cache.Clear();
    EXPECT_EQ(cache.size(), 0u);
    for (int k = 0; k < keys; ++k) {
      ASSERT_FALSE(cache.Lookup(CICache::MakeKey(k % 97, 100 + k / 97, {k % 7}, 50)).has_value())
          << "keys=" << keys << " k=" << k;
    }
  }
}

TEST(CICacheTest, CachedTestEvaluatesEachKeyOnce) {
  const World world = MeasuredWorld(SystemId::kBert, 120, 9);
  const CompositeTest inner(world.data);
  CICache cache;
  const CachedCITest cached(inner, &cache, world.data.NumRows());

  const double p1 = cached.PValue(0, 1, {2});
  const long long evaluated_after_first = inner.calls;
  const double p2 = cached.PValue(1, 0, {2});  // symmetric alias
  EXPECT_DOUBLE_EQ(p1, p2);
  EXPECT_EQ(inner.calls, evaluated_after_first);  // served from cache
  EXPECT_EQ(cached.calls, 2);
  EXPECT_EQ(cache.hits(), 1);
}

}  // namespace
}  // namespace unicorn
