#include "stats/independence.h"

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace unicorn {
namespace {

// Builds a table of continuous variables from column generators.
DataTable ContinuousTable(const std::vector<std::vector<double>>& cols,
                          VarRole role = VarRole::kEvent) {
  std::vector<Variable> vars(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    vars[i] = {"v" + std::to_string(i), VarType::kContinuous, role, {}};
  }
  DataTable t(vars);
  for (size_t r = 0; r < cols[0].size(); ++r) {
    std::vector<double> row(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c] = cols[c][r];
    }
    t.AddRow(row);
  }
  return t;
}

class FisherZFixture : public ::testing::Test {
 protected:
  static constexpr int kN = 800;
};

TEST_F(FisherZFixture, DetectsMarginalDependence) {
  Rng rng(1);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    x.push_back(xi);
    y.push_back(2.0 * xi + rng.Gaussian(0, 0.5));
  }
  const DataTable t = ContinuousTable({x, y});
  FisherZTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST_F(FisherZFixture, AcceptsIndependence) {
  Rng rng(2);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    x.push_back(rng.Gaussian());
    y.push_back(rng.Gaussian());
  }
  const DataTable t = ContinuousTable({x, y});
  FisherZTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
}

TEST_F(FisherZFixture, ChainBlockedByConditioning) {
  // X -> Z -> Y: X ⊥ Y | Z but not marginally.
  Rng rng(3);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    const double zi = 1.5 * xi + rng.Gaussian(0, 0.4);
    const double yi = -2.0 * zi + rng.Gaussian(0, 0.4);
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = ContinuousTable({x, z, y});
  FisherZTest test(t);
  EXPECT_LT(test.PValue(0, 2, {}), 0.001);
  EXPECT_GT(test.PValue(0, 2, {1}), 0.01);
}

TEST_F(FisherZFixture, ColliderOpenedByConditioning) {
  // X -> Z <- Y: X ⊥ Y marginally, dependent given Z.
  Rng rng(4);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  for (int i = 0; i < kN; ++i) {
    const double xi = rng.Gaussian();
    const double yi = rng.Gaussian();
    x.push_back(xi);
    y.push_back(yi);
    z.push_back(xi + yi + rng.Gaussian(0, 0.3));
  }
  const DataTable t = ContinuousTable({x, y, z});
  FisherZTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
  EXPECT_LT(test.PValue(0, 1, {2}), 0.001);
}

TEST_F(FisherZFixture, PartialCorrelationMatchesAnalytic) {
  // For standardized X, Z = aX + e1, Y = bZ + e2, partial corr of (X, Y)
  // given Z is 0; marginal corr is a*b / norm.
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < 4000; ++i) {
    const double xi = rng.Gaussian();
    const double zi = 0.8 * xi + rng.Gaussian(0, std::sqrt(1 - 0.64));
    const double yi = 0.7 * zi + rng.Gaussian(0, std::sqrt(1 - 0.49));
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = ContinuousTable({x, z, y});
  FisherZTest test(t);
  EXPECT_NEAR(test.PartialCorrelation(0, 2, {}), 0.56, 0.05);
  EXPECT_NEAR(test.PartialCorrelation(0, 2, {1}), 0.0, 0.05);
}

TEST_F(FisherZFixture, InsufficientSamplesReturnsOne) {
  const DataTable t = ContinuousTable({{1.0, 2.0}, {2.0, 1.0}});
  FisherZTest test(t);
  EXPECT_EQ(test.PValue(0, 1, {}), 1.0);
}

DataTable DiscreteTable(const std::vector<std::vector<double>>& cols) {
  std::vector<Variable> vars(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    vars[i] = {"d" + std::to_string(i), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}};
  }
  DataTable t(vars);
  for (size_t r = 0; r < cols[0].size(); ++r) {
    std::vector<double> row(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      row[c] = cols[c][r];
    }
    t.AddRow(row);
  }
  return t;
}

TEST(GSquareTest, DetectsDiscreteDependence) {
  Rng rng(6);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    const int xi = static_cast<int>(rng.UniformInt(uint64_t{3}));
    x.push_back(xi);
    y.push_back(rng.Bernoulli(0.85) ? xi : static_cast<int>(rng.UniformInt(uint64_t{3})));
  }
  const DataTable t = DiscreteTable({x, y});
  GSquareTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST(GSquareTest, AcceptsDiscreteIndependence) {
  Rng rng(7);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 600; ++i) {
    x.push_back(static_cast<double>(rng.UniformInt(uint64_t{3})));
    y.push_back(static_cast<double>(rng.UniformInt(uint64_t{3})));
  }
  const DataTable t = DiscreteTable({x, y});
  GSquareTest test(t);
  EXPECT_GT(test.PValue(0, 1, {}), 0.01);
}

TEST(GSquareTest, ConditionalIndependenceChain) {
  Rng rng(8);
  std::vector<double> x;
  std::vector<double> z;
  std::vector<double> y;
  for (int i = 0; i < 1500; ++i) {
    const int xi = static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int zi = rng.Bernoulli(0.9) ? xi : static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int yi = rng.Bernoulli(0.9) ? zi : static_cast<int>(rng.UniformInt(uint64_t{3}));
    x.push_back(xi);
    z.push_back(zi);
    y.push_back(yi);
  }
  const DataTable t = DiscreteTable({x, z, y});
  GSquareTest test(t);
  EXPECT_LT(test.PValue(0, 2, {}), 0.001);
  EXPECT_GT(test.PValue(0, 2, {1}), 0.01);
}

TEST(CompositeTest, DispatchesOnTypes) {
  // Mixed table: discrete option + continuous event. Should not crash and
  // should find the dependence either way.
  Rng rng(9);
  std::vector<Variable> vars = {
      {"opt", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"event", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 500; ++i) {
    const double o = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({o, 3.0 * o + rng.Gaussian(0, 0.3)});
  }
  CompositeTest test(t);
  EXPECT_LT(test.PValue(0, 1, {}), 0.001);
}

TEST(CompositeTest, TracksCallCount) {
  Rng rng(10);
  std::vector<Variable> vars = {
      {"a", VarType::kContinuous, VarRole::kEvent, {}},
      {"b", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  for (int i = 0; i < 50; ++i) {
    t.AddRow({rng.Gaussian(), rng.Gaussian()});
  }
  CompositeTest test(t);
  test.PValue(0, 1, {});
  test.PValue(0, 1, {});
  EXPECT_GE(test.calls, 2);
}

// Eight threads hammer shared cold tests — the lock-free correlation memo,
// the published coded columns, and the strata table while it grows — and
// must see exactly what a serial run sees.
TEST(ConcurrentMemo, HammeredColdTestsMatchSerialRun) {
  Rng rng(11);
  std::vector<Variable> vars;
  for (int v = 0; v < 8; ++v) {
    vars.push_back({"c" + std::to_string(v), VarType::kContinuous, VarRole::kEvent, {}});
  }
  for (int v = 0; v < 6; ++v) {
    vars.push_back({"d" + std::to_string(v), VarType::kDiscrete, VarRole::kOption, {0, 1, 2}});
  }
  DataTable t(vars);
  for (int r = 0; r < 400; ++r) {
    const double latent = rng.Gaussian();
    std::vector<double> row;
    for (int v = 0; v < 8; ++v) {
      row.push_back(0.1 * v * latent + rng.Gaussian());
    }
    for (int v = 0; v < 6; ++v) {
      row.push_back(static_cast<double>(rng.Bernoulli(0.6) ? (latent > 0 ? 2 : 0)
                                                           : rng.UniformInt(uint64_t{3})));
    }
    t.AddRow(row);
  }
  struct Query {
    int x;
    int y;
    std::vector<int> s;
  };
  // Every pair within each type, with conditioning sets of sizes 0..3 drawn
  // from the same type: enough distinct strata to grow the strata table.
  std::vector<Query> fisher_queries;
  std::vector<Query> gsq_queries;
  for (int x = 0; x < 14; ++x) {
    for (int y = x + 1; y < 14; ++y) {
      const bool continuous = y < 8;
      if ((x < 8) != continuous) {
        continue;
      }
      const int lo = continuous ? 0 : 8;
      const int hi = continuous ? 8 : 14;
      std::vector<int> others;
      for (int v = lo; v < hi; ++v) {
        if (v != x && v != y) {
          others.push_back(v);
        }
      }
      for (size_t k = 0; k <= 3 && k <= others.size(); ++k) {
        for (size_t start = 0; start + k <= others.size(); ++start) {
          Query q{x, y, std::vector<int>(others.begin() + start, others.begin() + start + k)};
          (continuous ? fisher_queries : gsq_queries).push_back(q);
        }
      }
    }
  }
  const auto bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  const auto run = [&](const FisherZTest& fisher, const GSquareTest& gsq, size_t offset,
                       std::vector<uint64_t>* out) {
    const size_t nf = fisher_queries.size();
    const size_t ng = gsq_queries.size();
    out->assign(2 * nf + ng, 0);
    // Each thread starts at a different offset so the cold misses race.
    for (size_t i = 0; i < nf; ++i) {
      const Query& q = fisher_queries[(i + offset) % nf];
      (*out)[(i + offset) % nf] = bits(fisher.Correlation(q.x, q.y));
      (*out)[nf + (i + offset) % nf] = bits(fisher.PValue(q.x, q.y, q.s));
    }
    for (size_t i = 0; i < ng; ++i) {
      const Query& q = gsq_queries[(i + offset) % ng];
      (*out)[2 * nf + (i + offset) % ng] = bits(gsq.PValue(q.x, q.y, q.s));
    }
  };
  std::vector<uint64_t> serial;
  {
    const FisherZTest fisher(t);
    const GSquareTest gsq(t);
    run(fisher, gsq, 0, &serial);
  }
  constexpr size_t kThreads = 8;
  for (int round = 0; round < 3; ++round) {
    const FisherZTest fisher(t);
    const GSquareTest gsq(t);
    std::vector<std::vector<uint64_t>> results(kThreads);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { run(fisher, gsq, i * 17 + static_cast<size_t>(round), &results[i]); });
    }
    for (std::thread& th : threads) {
      th.join();
    }
    for (size_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(results[i], serial) << "round " << round << " thread " << i;
    }
    EXPECT_EQ(fisher.calls.load(), static_cast<long long>(kThreads * fisher_queries.size()));
    EXPECT_EQ(gsq.calls.load(), static_cast<long long>(kThreads * gsq_queries.size()));
  }
}

}  // namespace
}  // namespace unicorn
