#include "stats/discretize.h"

#include <algorithm>
#include <cmath>

namespace unicorn {
namespace {

// Distinct values DiscretizeColumn tracks in a fixed buffer. Columns with
// more levels (only discrete ones, unless max_bins is this large) fall back
// to sorting a copy of the column.
constexpr size_t kSmallAlphabet = 32;

// Quantile binning of a continuous column; `sorted` is the column sorted.
void QuantileBin(const std::vector<double>& col, const std::vector<double>& sorted,
                 int max_bins, CodedColumn* out) {
  std::vector<double> cuts;
  cuts.reserve(max_bins - 1);
  for (int b = 1; b < max_bins; ++b) {
    size_t idx = static_cast<size_t>(
        std::min<double>(sorted.size() - 1.0, std::floor(sorted.size() * b / double(max_bins))));
    cuts.push_back(sorted[idx]);
  }
  // Deduplicate cut points (heavy ties collapse bins).
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
    out->codes[i] = code;
  }
  out->cardinality = static_cast<int>(cuts.size()) + 1;
}

}  // namespace

CodedColumn DiscretizeColumn(const std::vector<double>& col, VarType type, int max_bins,
                             ColumnCoding* coding) {
  CodedColumn out;
  out.codes.resize(col.size());
  if (coding != nullptr) {
    coding->direct = false;
    coding->levels.clear();
  }
  if (col.empty()) {
    return out;
  }

  // Map distinct values to codes directly when the alphabet is small (any
  // discrete column; continuous ones with at most max_bins distinct values).
  // The first pass collects the distinct values in first-appearance order
  // and codes each row by first-appearance id; the ids are then renumbered
  // to ranks in sorted-value order. Equality is ==, so -0.0 and 0.0 are one
  // level, as they are for an ordered map.
  const bool continuous = type == VarType::kContinuous;
  double seen[kSmallAlphabet];
  size_t distinct = 0;
  bool fits = true;
  for (size_t i = 0; i < col.size(); ++i) {
    const double v = col[i];
    size_t id = 0;
    while (id < distinct && !(seen[id] == v)) {
      ++id;
    }
    if (id == distinct) {
      if (continuous && static_cast<long long>(distinct) + 1 > max_bins) {
        std::vector<double> sorted = col;
        std::sort(sorted.begin(), sorted.end());
        QuantileBin(col, sorted, max_bins, &out);
        return out;
      }
      if (distinct == kSmallAlphabet) {
        fits = false;
        break;
      }
      seen[distinct++] = v;
    }
    out.codes[i] = static_cast<int>(id);
  }

  std::vector<double> levels;
  if (fits) {
    size_t order[kSmallAlphabet];
    for (size_t i = 0; i < distinct; ++i) {
      size_t j = i;
      while (j > 0 && seen[i] < seen[order[j - 1]]) {
        order[j] = order[j - 1];
        --j;
      }
      order[j] = i;
    }
    int rank[kSmallAlphabet];
    levels.resize(distinct);
    for (size_t j = 0; j < distinct; ++j) {
      rank[order[j]] = static_cast<int>(j);
      levels[j] = seen[order[j]];
    }
    for (int& code : out.codes) {
      code = rank[code];
    }
  } else {
    // Large alphabet: sort once, then code each row by its rank.
    levels = col;
    std::sort(levels.begin(), levels.end());
    if (continuous) {
      size_t count = 1;
      for (size_t i = 1; i < levels.size(); ++i) {
        count += levels[i - 1] < levels[i] ? 1 : 0;
      }
      if (static_cast<long long>(count) > max_bins) {
        QuantileBin(col, levels, max_bins, &out);
        return out;
      }
    }
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    for (size_t i = 0; i < col.size(); ++i) {
      out.codes[i] = static_cast<int>(
          std::lower_bound(levels.begin(), levels.end(), col[i]) - levels.begin());
    }
  }
  out.cardinality = static_cast<int>(levels.size());
  if (coding != nullptr) {
    coding->direct = true;
    coding->levels = std::move(levels);
  }
  return out;
}

CodedTable::CodedTable(const DataTable& table, int max_bins) : num_rows_(table.NumRows()) {
  columns_.reserve(table.NumVars());
  for (size_t v = 0; v < table.NumVars(); ++v) {
    columns_.push_back(DiscretizeColumn(table.Col(v), table.Var(v).type, max_bins));
  }
}

void StratumIndex::Reset(const std::vector<const CodedColumn*>& cols) {
  next_id_ = 0;
  flat_.clear();
  tuples_.clear();
  // Stops multiplying once past the bound, so the product cannot overflow.
  long long space = 1;
  for (const CodedColumn* c : cols) {
    space *= std::max(1, c->cardinality);
    if (space > kMaxFlatStrata) {
      break;
    }
  }
  flat_mode_ = space <= kMaxFlatStrata;
  if (flat_mode_) {
    flat_.assign(static_cast<size_t>(space), -1);
  }
}

void StratumIndex::InternRows(const std::vector<const CodedColumn*>& cols, size_t begin,
                              size_t end, int* ids) {
  const size_t count = end - begin;
  if (!flat_mode_) {
    std::vector<int> tuple;
    tuple.reserve(cols.size());
    for (size_t i = 0; i < count; ++i) {
      tuple.clear();
      for (const CodedColumn* c : cols) {
        tuple.push_back(c->codes[begin + i]);
      }
      const auto it = tuples_.lower_bound(tuple);
      if (it != tuples_.end() && it->first == tuple) {
        ids[i] = it->second;
      } else {
        tuples_.emplace_hint(it, tuple, next_id_);
        ids[i] = next_id_++;
      }
    }
    return;
  }
  // Radix keys below kMaxFlatStrata, one column at a time over chunks of rows.
  constexpr size_t kChunk = 256;
  size_t keys[kChunk];
  for (size_t lo = 0; lo < count; lo += kChunk) {
    const size_t m = std::min(kChunk, count - lo);
    std::fill(keys, keys + m, size_t{0});
    for (const CodedColumn* c : cols) {
      const size_t card = static_cast<size_t>(std::max(1, c->cardinality));
      const int* codes = c->codes.data() + begin + lo;
      for (size_t i = 0; i < m; ++i) {
        keys[i] = keys[i] * card + static_cast<size_t>(codes[i]);
      }
    }
    int* out = ids + lo;
    for (size_t i = 0; i < m; ++i) {
      int& id = flat_[keys[i]];
      if (id < 0) {
        id = next_id_++;
      }
      out[i] = id;
    }
  }
}

CodedColumn CombineStrata(const std::vector<const CodedColumn*>& cols, size_t num_rows,
                          StratumIndex* index_out) {
  CodedColumn out;
  out.codes.assign(num_rows, 0);
  StratumIndex local;
  StratumIndex& index = index_out != nullptr ? *index_out : local;
  index.Reset(cols);
  if (cols.empty()) {
    out.cardinality = num_rows == 0 ? 0 : 1;
    return out;
  }
  index.InternRows(cols, 0, num_rows, out.codes.data());
  out.cardinality = index.size();
  return out;
}

CodedColumn CodedTable::Strata(const std::vector<int>& vars) const {
  std::vector<const CodedColumn*> cols;
  cols.reserve(vars.size());
  for (int v : vars) {
    cols.push_back(&columns_[static_cast<size_t>(v)]);
  }
  return CombineStrata(cols, num_rows_);
}

}  // namespace unicorn
