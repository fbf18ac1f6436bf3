// Equivalence pinning of the batched/SIMD CI kernels against the legacy
// scalar arithmetic (simd::SetReferenceKernels(true)).
//
// Contract under test (stats/simd.h, stats/independence.h):
//   - GSquareTest p-values are BIT-IDENTICAL between the fused single-pass
//     contingency kernel and the unfused reference path, for every table
//     shape, conditioning size, and degenerate column.
//   - FisherZTest correlations differ only in the blocked reduction order:
//     at most a few ulps on the correlation, documented here as <= 4.
//   - Incremental GSquareTest::Update (absorbing appended rows) produces
//     exactly what a cold test built on the grown table computes, including
//     the new-level full-recode fallback and stratum extension.
//   - FirstIndependent is serially equivalent to a per-set PValue loop:
//     same index, same p-value, same `calls` accounting, same early exit.
//   - The allocation-free kernels (the scan-and-rank DiscretizeColumn, the
//     flat-table StratumIndex behind CombineStrata, and the one-elimination
//     solver pair behind FisherZTest::PartialCorrelation) are bit-identical
//     to the map-based and two-solve code they replaced, kept below as
//     references.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/discretize.h"
#include "stats/independence.h"
#include "stats/linalg.h"
#include "stats/simd.h"
#include "stats/table.h"
#include "util/rng.h"

namespace unicorn {
namespace {

// Restores the process-wide kernel switch no matter how the test exits.
class ReferenceModeGuard {
 public:
  ReferenceModeGuard() : prev_(simd::UseReferenceKernels()) {}
  ~ReferenceModeGuard() { simd::SetReferenceKernels(prev_); }

 private:
  bool prev_;
};

// Ulp distance between two finite doubles (0 when bit-identical).
int64_t UlpDistance(double a, double b) {
  int64_t ia;
  int64_t ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  // Map the sign-magnitude bit pattern to a monotonic integer line.
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  const int64_t d = ia - ib;
  return d < 0 ? -d : d;
}

// A mixed table exercising every column kind the kernels special-case:
//   0 continuous, dense ranks          3 discrete two-level
//   1 continuous, correlated with 0    4 discrete constant (one level)
//   2 continuous, CONSTANT (all ranks  5 discrete three-level, correlated
//     tied — degenerate Fisher column)    with 3
//   6 continuous heavy-tie column (two distinct values — mid-ranks tie)
DataTable MixedTable(size_t rows, uint64_t seed) {
  std::vector<Variable> vars = {
      {"c0", VarType::kContinuous, VarRole::kEvent, {}},
      {"c1", VarType::kContinuous, VarRole::kEvent, {}},
      {"c_const", VarType::kContinuous, VarRole::kEvent, {}},
      {"d_two", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"d_const", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"d_three", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"c_ties", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double c0 = rng.Gaussian();
    const double d3 = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({c0,
              0.8 * c0 + rng.Gaussian(0, 0.5),
              2.5,  // constant: all ranks tied
              static_cast<double>(rng.UniformInt(uint64_t{2})),
              1.0,  // constant discrete: single level
              rng.Bernoulli(0.8) ? d3 : static_cast<double>(rng.UniformInt(uint64_t{3})),
              rng.Bernoulli(0.5) ? 0.0 : 1.0});
  }
  return t;
}

// Conditioning sets of size 0..4 over the 7-column table, avoiding x/y.
std::vector<std::vector<int>> ConditioningSets(int x, int y) {
  std::vector<int> others;
  for (int v = 0; v < 7; ++v) {
    if (v != x && v != y) {
      others.push_back(v);
    }
  }
  std::vector<std::vector<int>> sets = {{}};
  for (size_t size = 1; size <= 4; ++size) {
    std::vector<int> s(others.begin(), others.begin() + size);
    sets.push_back(s);
    // A second set of the same size starting elsewhere, when possible.
    if (size < others.size()) {
      std::vector<int> s2(others.end() - size, others.end());
      if (s2 != s) {
        sets.push_back(s2);
      }
    }
  }
  return sets;
}

constexpr size_t kRowCounts[] = {3, 64, 65, 1000};

TEST(KernelEquivalence, GSquareBitIdenticalAcrossShapes) {
  ReferenceModeGuard guard;
  for (size_t rows : kRowCounts) {
    const DataTable t = MixedTable(rows, 100 + rows);
    for (int x : {3, 4, 5}) {
      for (int y : {3, 5}) {
        if (x == y) continue;
        for (const auto& s : ConditioningSets(x, y)) {
          simd::SetReferenceKernels(false);
          GSquareTest fast(t);
          const double p_fast = fast.PValue(x, y, s);
          simd::SetReferenceKernels(true);
          GSquareTest ref(t);
          const double p_ref = ref.PValue(x, y, s);
          EXPECT_EQ(p_fast, p_ref)
              << "rows=" << rows << " x=" << x << " y=" << y << " |s|=" << s.size();
        }
      }
    }
  }
}

TEST(KernelEquivalence, FisherWithinUlpBoundAcrossShapes) {
  ReferenceModeGuard guard;
  for (size_t rows : kRowCounts) {
    const DataTable t = MixedTable(rows, 200 + rows);
    for (int x : {0, 2, 6}) {
      for (int y : {1, 6}) {
        if (x == y) continue;
        for (const auto& s : ConditioningSets(x, y)) {
          // Fisher-z conditions on continuous columns only in practice, but
          // the kernel must stay robust to any index set.
          std::vector<int> cont_s;
          for (int v : s) {
            if (v == 0 || v == 1 || v == 2 || v == 6) {
              cont_s.push_back(v);
            }
          }
          simd::SetReferenceKernels(false);
          FisherZTest fast(t);
          const double corr_fast = fast.Correlation(x, y);
          const double p_fast = fast.PValue(x, y, cont_s);
          simd::SetReferenceKernels(true);
          FisherZTest ref(t);
          const double corr_ref = ref.Correlation(x, y);
          const double p_ref = ref.PValue(x, y, cont_s);
          // The blocked reduction reorders additions: documented bound of
          // <= 4 ulps on the pairwise correlation.
          EXPECT_LE(UlpDistance(corr_fast, corr_ref), 4)
              << "rows=" << rows << " x=" << x << " y=" << y;
          // The z-transform can amplify correlation ulps near |r| = 1; a
          // tight relative bound on the p-value still pins the kernels.
          EXPECT_NEAR(p_fast, p_ref, 1e-9 * std::max(1.0, std::fabs(p_ref)))
              << "rows=" << rows << " x=" << x << " y=" << y << " |s|=" << cont_s.size();
        }
      }
    }
  }
}

TEST(KernelEquivalence, GSquareDegenerateColumns) {
  ReferenceModeGuard guard;
  // Constant discrete column as endpoint and inside the conditioning set.
  const DataTable t = MixedTable(65, 7);
  const std::vector<std::vector<int>> queries_s = {{}, {4}, {4, 3}, {2, 4}, {3, 4, 5}};
  for (const auto& s : queries_s) {
    simd::SetReferenceKernels(false);
    GSquareTest fast(t);
    const double p_fast_endpoint = fast.PValue(4, 3, {});
    const double p_fast = fast.PValue(3, 5, s);
    simd::SetReferenceKernels(true);
    GSquareTest ref(t);
    EXPECT_EQ(p_fast_endpoint, ref.PValue(4, 3, {}));
    EXPECT_EQ(p_fast, ref.PValue(3, 5, s));
  }
}

// Appends rows that stay inside the existing discrete levels: incremental
// Update must extend codes and strata, and the result must equal a cold test.
TEST(KernelEquivalence, IncrementalUpdateExtendsWithoutNewLevels) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  DataTable t = MixedTable(200, 11);
  GSquareTest incremental(t);
  // Materialize codes and strata at the old size.
  (void)incremental.PValue(3, 5, {});
  (void)incremental.PValue(3, 5, {0});
  (void)incremental.PValue(3, 5, {0, 6});
  // Append rows drawn from the same level sets (MixedTable's generator only
  // emits {0,1}, {1}, {0,1,2}, {0,1} for the discrete/tied columns).
  const DataTable extra = MixedTable(64, 12);
  for (size_t r = 0; r < extra.NumRows(); ++r) {
    t.AddRow(extra.Row(r));
  }
  incremental.Update(t);
  GSquareTest cold(t);
  for (const auto& s :
       std::vector<std::vector<int>>{{}, {0}, {0, 6}, {4}, {0, 4, 6}}) {
    EXPECT_EQ(incremental.PValue(3, 5, s), cold.PValue(3, 5, s)) << "|s|=" << s.size();
  }
}

// Appends a row carrying a brand-new discrete level: extension is impossible
// bit-identically (codes are assigned in sorted-value order), so Update must
// fall back to a full recode — and still match a cold test exactly.
TEST(KernelEquivalence, IncrementalUpdateNewLevelFallsBackToRecode) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"d0", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
      {"d1", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
      {"d2", VarType::kDiscrete, VarRole::kOption, {0, 1, 2, 3}},
  };
  DataTable t(vars);
  Rng rng(13);
  for (int r = 0; r < 300; ++r) {
    // Levels {0, 2} only — level 1 is reserved for the appended rows, and it
    // sorts BETWEEN the existing levels, so every code shifts on recode.
    const double a = rng.Bernoulli(0.5) ? 0.0 : 2.0;
    t.AddRow({a, rng.Bernoulli(0.7) ? a : 2.0 - a, rng.Bernoulli(0.5) ? 0.0 : 2.0});
  }
  GSquareTest incremental(t);
  (void)incremental.PValue(0, 1, {});
  (void)incremental.PValue(0, 1, {2});
  for (int r = 0; r < 40; ++r) {
    t.AddRow({1.0, rng.Bernoulli(0.5) ? 0.0 : 1.0, 1.0});
  }
  incremental.Update(t);
  GSquareTest cold(t);
  EXPECT_EQ(incremental.PValue(0, 1, {}), cold.PValue(0, 1, {}));
  EXPECT_EQ(incremental.PValue(0, 1, {2}), cold.PValue(0, 1, {2}));
  EXPECT_EQ(incremental.PValue(0, 2, {1}), cold.PValue(0, 2, {1}));
}

// Quantile-binned continuous columns can never extend (appends shift the
// cuts); Update must recode them and match a cold test.
TEST(KernelEquivalence, IncrementalUpdateRecodesQuantileBinnedColumns) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"d", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"c", VarType::kContinuous, VarRole::kEvent, {}},
  };
  DataTable t(vars);
  Rng rng(17);
  for (int r = 0; r < 400; ++r) {
    const double d = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({d, 1.5 * d + rng.Gaussian()});
  }
  GSquareTest incremental(t);
  (void)incremental.PValue(0, 1, {});
  for (int r = 0; r < 100; ++r) {
    const double d = static_cast<double>(rng.UniformInt(uint64_t{3}));
    t.AddRow({d, 1.5 * d + rng.Gaussian()});
  }
  incremental.Update(t);
  GSquareTest cold(t);
  EXPECT_EQ(incremental.PValue(0, 1, {}), cold.PValue(0, 1, {}));
}

TEST(KernelEquivalence, FisherUpdateMatchesFresh) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  DataTable t = MixedTable(100, 19);
  FisherZTest updated(t);
  (void)updated.PValue(0, 1, {});
  const DataTable extra = MixedTable(50, 20);
  for (size_t r = 0; r < extra.NumRows(); ++r) {
    t.AddRow(extra.Row(r));
  }
  updated.Update(t);
  FisherZTest fresh(t);
  EXPECT_EQ(updated.PValue(0, 1, {}), fresh.PValue(0, 1, {}));
  EXPECT_EQ(updated.PValue(0, 1, {6}), fresh.PValue(0, 1, {6}));
  EXPECT_EQ(updated.PValue(0, 6, {1, 2}), fresh.PValue(0, 6, {1, 2}));
}

// FirstIndependent vs. the per-set serial loop it replaces: same index, same
// p-value, same early exit, and `calls` advances once per examined set.
template <typename TestT>
void CheckFirstIndependentEquivalence(const DataTable& t, int x, int y,
                                      const std::vector<std::vector<int>>& sets,
                                      double alpha) {
  TestT batched(t);
  TestT serial(t);
  // Manual serial loop — the exact code the skeleton search used to run.
  int want_idx = -1;
  double want_p = 0.0;
  for (size_t i = 0; i < sets.size(); ++i) {
    const double p = serial.PValue(x, y, sets[i]);
    if (p >= alpha) {
      want_idx = static_cast<int>(i);
      want_p = p;
      break;
    }
  }
  BatchedCIRequest req;
  req.x = x;
  req.y = y;
  req.sets = &sets;
  req.alpha = alpha;
  double got_p = 0.0;
  const int got_idx = batched.FirstIndependent(req, &got_p);
  EXPECT_EQ(got_idx, want_idx);
  if (want_idx >= 0) {
    EXPECT_EQ(got_p, want_p);
  }
  EXPECT_EQ(batched.calls.load(), serial.calls.load());
}

TEST(KernelEquivalence, FirstIndependentMatchesSerialLoop) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  const DataTable t = MixedTable(500, 23);
  for (double alpha : {0.01, 0.05, 0.5, 1.0}) {
    // Continuous pair (dispatches to Fisher-z inside CompositeTest).
    CheckFirstIndependentEquivalence<CompositeTest>(t, 0, 1, ConditioningSets(0, 1), alpha);
    // Discrete pair (dispatches to the G-test).
    CheckFirstIndependentEquivalence<CompositeTest>(t, 3, 5, ConditioningSets(3, 5), alpha);
    CheckFirstIndependentEquivalence<GSquareTest>(t, 3, 5, ConditioningSets(3, 5), alpha);
    CheckFirstIndependentEquivalence<FisherZTest>(t, 0, 1, ConditioningSets(0, 1), alpha);
  }
  // Independent pair: early exit at index 0 for reasonable alpha.
  CheckFirstIndependentEquivalence<GSquareTest>(t, 3, 4, {{}, {0}}, 0.05);
  // Empty set list: no test runs, -1 comes back.
  CompositeTest test(t);
  const std::vector<std::vector<int>> empty;
  BatchedCIRequest req;
  req.x = 0;
  req.y = 1;
  req.sets = &empty;
  EXPECT_EQ(test.FirstIndependent(req), -1);
  EXPECT_EQ(test.calls.load(), 0);
}

TEST(KernelEquivalence, FirstIndependentOnEmptyTable) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"a", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"b", VarType::kDiscrete, VarRole::kOption, {0, 1}},
  };
  const DataTable t(vars);
  CheckFirstIndependentEquivalence<GSquareTest>(t, 0, 1, {{}, {}}, 0.05);
}

// --- References: the map- and heap-based kernels, as they were -------------

// DiscretizeColumn with one std::map node per distinct value.
CodedColumn RefDiscretizeColumn(const std::vector<double>& col, VarType type, int max_bins,
                                bool* direct, std::map<double, int>* levels_out) {
  CodedColumn out;
  out.codes.resize(col.size());
  *direct = false;
  levels_out->clear();
  if (col.empty()) {
    return out;
  }
  std::map<double, int> levels;
  bool small_alphabet = true;
  for (double v : col) {
    if (levels.emplace(v, 0).second && levels.size() > static_cast<size_t>(max_bins)) {
      if (type != VarType::kContinuous) {
        continue;
      }
      small_alphabet = false;
      break;
    }
  }
  if (type != VarType::kContinuous || small_alphabet) {
    levels.clear();
    for (double v : col) {
      levels.emplace(v, 0);
    }
    int next = 0;
    for (auto& [value, code] : levels) {
      code = next++;
    }
    for (size_t i = 0; i < col.size(); ++i) {
      out.codes[i] = levels[col[i]];
    }
    out.cardinality = next;
    *direct = true;
    *levels_out = std::move(levels);
    return out;
  }
  std::vector<double> sorted = col;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> cuts;
  for (int b = 1; b < max_bins; ++b) {
    size_t idx = static_cast<size_t>(
        std::min<double>(sorted.size() - 1.0, std::floor(sorted.size() * b / double(max_bins))));
    cuts.push_back(sorted[idx]);
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t i = 0; i < col.size(); ++i) {
    int code = 0;
    for (double c : cuts) {
      if (col[i] >= c) {
        ++code;
      } else {
        break;
      }
    }
    out.codes[i] = code;
  }
  out.cardinality = static_cast<int>(cuts.size()) + 1;
  return out;
}

// CombineStrata with a std::map from the radix key (valid below 2^63).
CodedColumn RefCombineStrata(const std::vector<const CodedColumn*>& cols, size_t num_rows) {
  CodedColumn out;
  out.codes.assign(num_rows, 0);
  if (cols.empty()) {
    out.cardinality = num_rows == 0 ? 0 : 1;
    return out;
  }
  std::vector<long long> keys(num_rows, 0);
  for (const CodedColumn* c : cols) {
    const long long card = std::max(1, c->cardinality);
    for (size_t r = 0; r < num_rows; ++r) {
      keys[r] = keys[r] * card + c->codes[r];
    }
  }
  std::map<long long, int> dense;
  for (size_t r = 0; r < num_rows; ++r) {
    out.codes[r] = dense.emplace(keys[r], static_cast<int>(dense.size())).first->second;
  }
  out.cardinality = static_cast<int>(dense.size());
  return out;
}

// PartialCorrelation with one SolveLinearSystem call per right-hand side.
double RefPartialCorrelation(const FisherZTest& test, int x, int y, const std::vector<int>& s) {
  const auto corr = [&](int a, int b) {
    return test.Correlation(static_cast<size_t>(a), static_cast<size_t>(b));
  };
  if (s.empty()) {
    return corr(x, y);
  }
  const size_t k = s.size();
  std::vector<std::vector<double>> css(k, std::vector<double>(k));
  std::vector<double> csx(k);
  std::vector<double> csy(k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      css[i][j] = corr(s[i], s[j]);
    }
    css[i][i] += 1e-9;
    csx[i] = corr(s[i], x);
    csy[i] = corr(s[i], y);
  }
  std::vector<double> bx;
  std::vector<double> by;
  if (!SolveLinearSystem(css, csx, &bx) || !SolveLinearSystem(css, csy, &by)) {
    return 0.0;
  }
  double num = corr(x, y);
  double dx = 1.0;
  double dy = 1.0;
  for (size_t i = 0; i < k; ++i) {
    num -= bx[i] * csy[i];
    dx -= bx[i] * csx[i];
    dy -= by[i] * csy[i];
  }
  if (dx <= 1e-12 || dy <= 1e-12) {
    return 0.0;
  }
  return std::max(-1.0, std::min(1.0, num / std::sqrt(dx * dy)));
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Continuous columns for the partial-correlation checks: c0..c9 share a
// latent factor; c10 duplicates c2 exactly (an exactly collinear pair: rank
// correlation 1), c11 is c3 plus noise 1e-9 times smaller (near-collinear),
// c12 is constant.
DataTable ContinuousTable(size_t rows, uint64_t seed) {
  std::vector<Variable> vars;
  for (int v = 0; v < 13; ++v) {
    vars.push_back({"c" + std::to_string(v), VarType::kContinuous, VarRole::kEvent, {}});
  }
  DataTable t(vars);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double latent = rng.Gaussian();
    std::vector<double> row;
    for (int v = 0; v < 10; ++v) {
      row.push_back((0.2 + 0.08 * v) * latent + rng.Gaussian());
    }
    row.push_back(row[2]);
    row.push_back(row[3] + 1e-9 * rng.Gaussian());
    row.push_back(4.0);
    t.AddRow(row);
  }
  return t;
}

TEST(KernelEquivalence, StackPartialCorrelationMatchesTwoSolves) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  const DataTable t = ContinuousTable(400, 31);
  const FisherZTest test(t);
  // |S| = 0..8 on the stack path, |S| = 9 on the heap path.
  for (size_t k = 0; k <= 9; ++k) {
    std::vector<int> s;
    for (size_t i = 0; i < k; ++i) {
      s.push_back(static_cast<int>(2 + i));
    }
    EXPECT_EQ(Bits(test.PartialCorrelation(0, 1, s)), Bits(RefPartialCorrelation(test, 0, 1, s)))
        << "|s|=" << k;
  }
  // Collinear, near-collinear and constant members, in several positions.
  const std::vector<std::vector<int>> degenerate = {
      {2, 10},       {10, 2, 4},     {3, 11},          {11, 5, 3},
      {2, 10, 3, 11}, {12},           {12, 2, 10},      {4, 12, 6, 11, 3, 2, 10, 7},
      {2, 2},        {2, 10, 2, 10}, {3, 4, 5, 6, 7, 8, 9, 11, 12}};
  for (const auto& s : degenerate) {
    EXPECT_EQ(Bits(test.PartialCorrelation(0, 1, s)), Bits(RefPartialCorrelation(test, 0, 1, s)))
        << "|s|=" << s.size() << " first=" << s[0];
    EXPECT_EQ(Bits(test.PartialCorrelation(2, 3, s)), Bits(RefPartialCorrelation(test, 2, 3, s)))
        << "|s|=" << s.size() << " first=" << s[0];
  }
}

// The solver pair itself on matrices PartialCorrelation never builds: random
// dense systems, a pivot just above and just below the 1e-12 singularity
// rule, and exactly collinear rows.
TEST(KernelEquivalence, SolverPairMatchesTwoSolves) {
  Rng rng(37);
  const auto check = [](const std::vector<std::vector<double>>& m, const std::vector<double>& r1,
                        const std::vector<double>& r2) {
    const size_t n = m.size();
    std::vector<double> want1;
    std::vector<double> want2;
    const bool ok1 = SolveLinearSystem(m, r1, &want1);
    const bool ok2 = SolveLinearSystem(m, r2, &want2);
    ASSERT_EQ(ok1, ok2);
    std::vector<double> flat;
    for (const auto& row : m) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    std::vector<double> x1 = r1;
    std::vector<double> x2 = r2;
    ASSERT_EQ(SolveLinearSystemPair(n, flat.data(), x1.data(), x2.data()), ok1) << "n=" << n;
    if (!ok1) {
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(x1[i]), Bits(want1[i])) << "n=" << n << " i=" << i;
      EXPECT_EQ(Bits(x2[i]), Bits(want2[i])) << "n=" << n << " i=" << i;
    }
  };
  for (size_t n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<double>> m(n, std::vector<double>(n));
      std::vector<double> r1(n);
      std::vector<double> r2(n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          // Some exact zeros exercise the f == 0 skip.
          m[i][j] = rng.Bernoulli(0.2) ? 0.0 : rng.Gaussian();
        }
        m[i][i] += 0.5;
        r1[i] = rng.Gaussian();
        r2[i] = rng.Gaussian();
      }
      check(m, r1, r2);
    }
  }
  for (double eps : {2e-12, 5e-13, 0.0}) {
    // Row 1 = row 0 + eps in one entry: the second pivot is about eps.
    const std::vector<std::vector<double>> m = {
        {1.0, 0.5, 0.25}, {1.0, 0.5 + eps, 0.25}, {0.1, 0.2, 0.9}};
    check(m, {1.0, 2.0, 3.0}, {-1.0, 0.5, 0.25});
  }
}

TEST(KernelEquivalence, DiscretizeMatchesMapReference) {
  Rng rng(41);
  struct Case {
    const char* name;
    std::vector<double> col;
    VarType type;
    int max_bins;
  };
  std::vector<Case> cases;
  const auto draw = [&](size_t rows, int levels, double scale) {
    std::vector<double> col;
    for (size_t r = 0; r < rows; ++r) {
      col.push_back(scale * static_cast<double>(rng.UniformInt(static_cast<uint64_t>(levels))));
    }
    return col;
  };
  cases.push_back({"discrete 3 levels", draw(500, 3, 1.0), VarType::kDiscrete, 5});
  cases.push_back({"discrete 32 levels", draw(2000, 32, 0.5), VarType::kDiscrete, 5});
  cases.push_back({"discrete 33 levels", draw(2000, 33, 0.5), VarType::kDiscrete, 5});
  cases.push_back({"discrete 300 levels", draw(5000, 300, -1.5), VarType::kDiscrete, 5});
  cases.push_back({"binary", draw(100, 2, 1.0), VarType::kBinary, 5});
  cases.push_back({"discrete constant", std::vector<double>(50, 7.0), VarType::kDiscrete, 5});
  cases.push_back({"continuous constant", std::vector<double>(50, -3.0), VarType::kContinuous, 5});
  cases.push_back({"continuous = max_bins", draw(400, 5, 1.25), VarType::kContinuous, 5});
  cases.push_back({"continuous = max_bins + 1", draw(400, 6, 1.25), VarType::kContinuous, 5});
  cases.push_back({"continuous 1 bin", draw(100, 2, 1.0), VarType::kContinuous, 1});
  cases.push_back({"continuous 40 of 40 bins", draw(3000, 40, 0.1), VarType::kContinuous, 40});
  cases.push_back({"continuous 41 of 40 bins", draw(3000, 41, 0.1), VarType::kContinuous, 40});
  std::vector<double> gaussian;
  for (int r = 0; r < 1000; ++r) {
    gaussian.push_back(rng.Gaussian());
  }
  cases.push_back({"continuous gaussian", gaussian, VarType::kContinuous, 5});
  // -0.0 and 0.0 are one level; which one appears first varies.
  for (const double first_zero : {-0.0, 0.0}) {
    std::vector<double> zeros = {first_zero, 1.0};
    for (int r = 0; r < 200; ++r) {
      zeros.push_back(rng.Bernoulli(0.3) ? 1.0 : (rng.Bernoulli(0.5) ? -0.0 : 0.0));
    }
    cases.push_back({"signed zeros discrete", zeros, VarType::kDiscrete, 5});
    cases.push_back({"signed zeros continuous", zeros, VarType::kContinuous, 2});
    zeros.push_back(-1.0);
    cases.push_back({"signed zeros quantile", zeros, VarType::kContinuous, 2});
  }
  cases.push_back({"empty", {}, VarType::kContinuous, 5});
  for (const Case& c : cases) {
    ColumnCoding coding;
    const CodedColumn got = DiscretizeColumn(c.col, c.type, c.max_bins, &coding);
    bool want_direct = false;
    std::map<double, int> want_levels;
    const CodedColumn want =
        RefDiscretizeColumn(c.col, c.type, c.max_bins, &want_direct, &want_levels);
    EXPECT_EQ(got.codes, want.codes) << c.name;
    EXPECT_EQ(got.cardinality, want.cardinality) << c.name;
    EXPECT_EQ(coding.direct, want_direct) << c.name;
    ASSERT_EQ(coding.levels.size(), want_levels.size()) << c.name;
    size_t i = 0;
    for (const auto& [value, code] : want_levels) {
      EXPECT_EQ(coding.levels[i], value) << c.name;
      EXPECT_EQ(static_cast<int>(i), code) << c.name;
      ++i;
    }
  }
}

TEST(KernelEquivalence, CombineStrataMatchesMapReferenceAroundFlatBound) {
  Rng rng(43);
  const auto column = [&](size_t rows, int card) {
    CodedColumn c;
    c.cardinality = card;
    for (size_t r = 0; r < rows; ++r) {
      c.codes.push_back(static_cast<int>(rng.UniformInt(static_cast<uint64_t>(card))));
    }
    return c;
  };
  const long long bound = StratumIndex::kMaxFlatStrata;
  // Radix spaces: 1 column at and just past the bound, 2 columns at (64 x 64
  // = 4096) and just past it, 3 columns well below and far above, and a
  // one-level member that contributes a factor of 1.
  const std::vector<std::vector<int>> shapes = {
      {static_cast<int>(bound)}, {static_cast<int>(bound) + 1}, {64, 64}, {64, 65},
      {2, 3, 5},                  {40, 40, 40},                  {1, 64, 64}, {2, 1, 2049}};
  for (const auto& cards : shapes) {
    std::vector<CodedColumn> cols;
    for (int card : cards) {
      cols.push_back(column(6000, card));
    }
    std::vector<const CodedColumn*> ptrs;
    for (const CodedColumn& c : cols) {
      ptrs.push_back(&c);
    }
    const CodedColumn got = CombineStrata(ptrs, 6000);
    const CodedColumn want = RefCombineStrata(ptrs, 6000);
    EXPECT_EQ(got.codes, want.codes) << "columns=" << cards.size() << " first=" << cards[0];
    EXPECT_EQ(got.cardinality, want.cardinality);
  }
}

// Strata on both sides of the flat-table bound keep extending bit-identically
// when rows are appended: 64 x 64 levels is a flat index, 64 x 65 a map.
TEST(KernelEquivalence, IncrementalStratumExtensionAroundFlatBound) {
  ReferenceModeGuard guard;
  simd::SetReferenceKernels(false);
  std::vector<Variable> vars = {
      {"x", VarType::kDiscrete, VarRole::kOption, {0, 1}},
      {"y", VarType::kDiscrete, VarRole::kOption, {0, 1, 2}},
      {"a64", VarType::kDiscrete, VarRole::kOption, {}},
      {"b64", VarType::kDiscrete, VarRole::kOption, {}},
      {"c65", VarType::kDiscrete, VarRole::kOption, {}},
  };
  DataTable t(vars);
  Rng rng(47);
  const auto add_rows = [&](int rows) {
    for (int r = 0; r < rows; ++r) {
      const double a = static_cast<double>(rng.UniformInt(uint64_t{64}));
      t.AddRow({rng.Bernoulli(0.7) ? static_cast<double>(static_cast<int>(a) % 2)
                                   : static_cast<double>(rng.UniformInt(uint64_t{2})),
                static_cast<double>(rng.UniformInt(uint64_t{3})), a,
                static_cast<double>(rng.UniformInt(uint64_t{64})),
                static_cast<double>(rng.UniformInt(uint64_t{65}))});
    }
  };
  add_rows(3000);  // every level of every column appears
  const std::vector<std::vector<int>> sets = {{2, 3}, {2, 4}, {3, 4}, {4}, {2, 3, 4}};
  GSquareTest incremental(t);
  for (const auto& s : sets) {
    (void)incremental.PValue(0, 1, s);
  }
  for (int step = 0; step < 3; ++step) {
    add_rows(200);
    incremental.Update(t);
    GSquareTest cold(t);
    for (const auto& s : sets) {
      EXPECT_EQ(Bits(incremental.PValue(0, 1, s)), Bits(cold.PValue(0, 1, s)))
          << "step=" << step << " |s|=" << s.size() << " first=" << s[0];
    }
  }
}

}  // namespace
}  // namespace unicorn
