// Discretization of mixed-type columns into integer codes.
//
// Entropy/mutual-information machinery (G-test, LatentSearch, entropic edge
// orientation) operates on small categorical alphabets. Discrete columns map
// their observed levels to codes; continuous columns are binned by quantiles.
#ifndef UNICORN_STATS_DISCRETIZE_H_
#define UNICORN_STATS_DISCRETIZE_H_

#include <map>
#include <vector>

#include "stats/table.h"

namespace unicorn {

// One discretized column: integer codes in [0, cardinality).
struct CodedColumn {
  std::vector<int> codes;
  int cardinality = 0;
};

// How DiscretizeColumn coded a column — captured on request so incremental
// consumers (GSquareTest::Update) can extend codes for appended rows without
// re-coding the prefix. `direct` means each distinct value maps straight to
// a code (codes assigned in sorted-value order); only then is extension
// sound, and only while appended values hit existing levels — a new level
// would renumber the whole column, and quantile bins shift with the data.
struct ColumnCoding {
  bool direct = false;
  // Sorted distinct values when direct; a value's code is its index.
  std::vector<double> levels;
};

// Discretizes one column. Continuous columns are split into at most
// `max_bins` quantile bins (fewer if the data has few distinct values).
// When `coding` is non-null it receives how the column was coded.
CodedColumn DiscretizeColumn(const std::vector<double>& col, VarType type, int max_bins,
                             ColumnCoding* coding = nullptr);

// Dense stratum ids for rows of several coded columns, assigned by first
// appearance of each combination of member codes (in row order). While the
// mixed-radix space over the member cardinalities has at most kMaxFlatStrata
// cells, the index is a flat table keyed by the combination's radix number,
// so interning a row allocates nothing; above it, an exact map over the code
// tuples (which also covers spaces no 64-bit radix key could address). Both
// assign the same ids, so the choice is invisible to callers.
class StratumIndex {
 public:
  // 16 KB of ids, small enough to stay in L1 and to clear on every Reset.
  static constexpr long long kMaxFlatStrata = 4096;

  // Binds the index to member columns (their cardinalities fix the radix
  // space) and forgets every id.
  void Reset(const std::vector<const CodedColumn*>& cols);
  // Writes the ids of rows [begin, end) of `cols` (the columns Reset was
  // given, possibly grown since) to ids[0, end - begin), assigning the next
  // id to each combination on its first appearance, in row order.
  void InternRows(const std::vector<const CodedColumn*>& cols, size_t begin, size_t end,
                  int* ids);
  // Number of ids assigned so far.
  int size() const { return next_id_; }

 private:
  bool flat_mode_ = true;
  int next_id_ = 0;
  std::vector<int> flat_;                   // radix key -> id, -1 = unseen
  std::map<std::vector<int>, int> tuples_;  // code tuple -> id
};

// Combines several coded columns into one stratum id per row (dense ids by
// first appearance, see StratumIndex). All callers that stratify —
// CodedTable and the G-square test's memoized strata — share this one
// implementation so the codes stay bit-identical. Every column must have at
// least `num_rows` codes. When `index_out` is non-null it receives the index
// the ids were assigned from, which lets incremental consumers append rows
// with stable stratum ids.
CodedColumn CombineStrata(const std::vector<const CodedColumn*>& cols, size_t num_rows,
                          StratumIndex* index_out = nullptr);

// Discretized view of a whole table.
class CodedTable {
 public:
  CodedTable(const DataTable& table, int max_bins = 5);

  size_t NumVars() const { return columns_.size(); }
  size_t NumRows() const { return num_rows_; }
  const CodedColumn& Col(size_t v) const { return columns_[v]; }

  // Combines the codes of several columns into a single stratum id per row;
  // returns the codes plus the number of distinct observed strata.
  CodedColumn Strata(const std::vector<int>& vars) const;

 private:
  std::vector<CodedColumn> columns_;
  size_t num_rows_ = 0;
};

}  // namespace unicorn

#endif  // UNICORN_STATS_DISCRETIZE_H_
