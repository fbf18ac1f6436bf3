#include "stats/discretize.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace unicorn {
namespace {

TEST(DiscretizeTest, DiscreteLevelsMapDirectly) {
  std::vector<double> col = {5.0, 1.0, 5.0, 3.0, 1.0};
  const CodedColumn coded = DiscretizeColumn(col, VarType::kDiscrete, 5);
  EXPECT_EQ(coded.cardinality, 3);
  // Codes ordered by value: 1 -> 0, 3 -> 1, 5 -> 2.
  EXPECT_EQ(coded.codes, (std::vector<int>{2, 0, 2, 1, 0}));
}

TEST(DiscretizeTest, BinaryColumn) {
  std::vector<double> col = {0, 1, 1, 0};
  const CodedColumn coded = DiscretizeColumn(col, VarType::kBinary, 5);
  EXPECT_EQ(coded.cardinality, 2);
}

TEST(DiscretizeTest, ContinuousQuantileBins) {
  std::vector<double> col;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    col.push_back(rng.Uniform());
  }
  const CodedColumn coded = DiscretizeColumn(col, VarType::kContinuous, 4);
  EXPECT_EQ(coded.cardinality, 4);
  std::vector<int> counts(4, 0);
  for (int c : coded.codes) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 4);
    ++counts[static_cast<size_t>(c)];
  }
  // Quantile bins should be roughly balanced.
  for (int c : counts) {
    EXPECT_NEAR(c, 250, 60);
  }
}

TEST(DiscretizeTest, ContinuousWithFewDistinctValuesActsDiscrete) {
  std::vector<double> col = {1.0, 2.0, 1.0, 2.0};
  const CodedColumn coded = DiscretizeColumn(col, VarType::kContinuous, 5);
  EXPECT_EQ(coded.cardinality, 2);
}

TEST(DiscretizeTest, ConstantColumnSingleBin) {
  std::vector<double> col(100, 3.0);
  const CodedColumn coded = DiscretizeColumn(col, VarType::kContinuous, 5);
  EXPECT_EQ(coded.cardinality, 1);
}

TEST(DiscretizeTest, EmptyColumn) {
  const CodedColumn coded = DiscretizeColumn({}, VarType::kContinuous, 5);
  EXPECT_TRUE(coded.codes.empty());
}

TEST(DiscretizeTest, MonotoneCodes) {
  // Codes must respect value order for ordinal use.
  std::vector<double> col;
  for (int i = 0; i < 100; ++i) {
    col.push_back(i);
  }
  const CodedColumn coded = DiscretizeColumn(col, VarType::kContinuous, 5);
  for (size_t i = 1; i < col.size(); ++i) {
    EXPECT_LE(coded.codes[i - 1], coded.codes[i]);
  }
}

TEST(CodedTableTest, StrataCombineColumns) {
  std::vector<Variable> vars(2);
  vars[0] = {"a", VarType::kDiscrete, VarRole::kOption, {0, 1}};
  vars[1] = {"b", VarType::kDiscrete, VarRole::kOption, {0, 1}};
  DataTable t(vars);
  t.AddRow({0, 0});
  t.AddRow({0, 1});
  t.AddRow({1, 0});
  t.AddRow({1, 1});
  t.AddRow({0, 0});
  const CodedTable coded(t);
  const CodedColumn strata = coded.Strata({0, 1});
  EXPECT_EQ(strata.cardinality, 4);
  EXPECT_EQ(strata.codes[0], strata.codes[4]);
  EXPECT_NE(strata.codes[0], strata.codes[1]);
  EXPECT_NE(strata.codes[1], strata.codes[2]);
}

TEST(CodedTableTest, EmptyStrataIsSingleStratum) {
  std::vector<Variable> vars(1);
  vars[0] = {"a", VarType::kDiscrete, VarRole::kOption, {0, 1}};
  DataTable t(vars);
  t.AddRow({0});
  t.AddRow({1});
  const CodedTable coded(t);
  const CodedColumn strata = coded.Strata({});
  EXPECT_EQ(strata.cardinality, 1);
  EXPECT_EQ(strata.codes, (std::vector<int>{0, 0}));
}

// Columns whose mixed-radix key space exceeds 2^63 (8 columns of 240 levels,
// 9 of 256): the radix key would overflow a signed 64-bit integer, so the
// strata must be keyed on the code tuples. With 9 x 256 levels the tuple
// (1, 0, ..., 0) has radix key 2^64, which a wrapped 64-bit key would merge
// with the all-zero tuple.
TEST(CodedTableTest, StrataExactWhenRadixSpaceExceedsInt64) {
  for (const auto& [num_cols, card] : {std::pair<int, int>{8, 240}, {9, 256}}) {
    const std::vector<std::vector<int>> rows = {
        std::vector<int>(num_cols, 0),
        [&] {
          std::vector<int> r(num_cols, 0);
          r[0] = 1;
          return r;
        }(),
        std::vector<int>(num_cols, card - 1),
        std::vector<int>(num_cols, 0),
        [&] {
          std::vector<int> r(num_cols, 0);
          r[num_cols - 1] = 1;
          return r;
        }(),
    };
    std::vector<CodedColumn> cols(num_cols);
    for (int c = 0; c < num_cols; ++c) {
      cols[c].cardinality = card;
      for (const auto& row : rows) {
        cols[c].codes.push_back(row[c]);
      }
    }
    std::vector<const CodedColumn*> ptrs;
    for (const CodedColumn& c : cols) {
      ptrs.push_back(&c);
    }
    StratumIndex index;
    const CodedColumn strata = CombineStrata(ptrs, rows.size(), &index);
    EXPECT_EQ(strata.codes, (std::vector<int>{0, 1, 2, 0, 3})) << num_cols << " x " << card;
    EXPECT_EQ(strata.cardinality, 4);
    // Appended rows keep the ids: a repeat of row 1, then a new tuple.
    for (int c = 0; c < num_cols; ++c) {
      cols[c].codes.push_back(rows[1][c]);
      cols[c].codes.push_back(c == 1 ? 1 : 0);
    }
    int ids[2] = {-1, -1};
    index.InternRows(ptrs, rows.size(), rows.size() + 2, ids);
    EXPECT_EQ(ids[0], 1);
    EXPECT_EQ(ids[1], 4);
    EXPECT_EQ(index.size(), 5);
  }
}

}  // namespace
}  // namespace unicorn
