#include "stats/linalg.h"

#include <cmath>
#include <utility>

namespace unicorn {

bool SolveLinearSystem(std::vector<std::vector<double>> m, std::vector<double> rhs,
                       std::vector<double>* x) {
  const size_t n = rhs.size();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) {
        pivot = r;
      }
    }
    if (std::fabs(m[pivot][col]) < 1e-12) {
      return false;
    }
    std::swap(m[pivot], m[col]);
    std::swap(rhs[pivot], rhs[col]);
    const double inv = 1.0 / m[col][col];
    for (size_t r = col + 1; r < n; ++r) {
      const double f = m[r][col] * inv;
      if (f == 0.0) {
        continue;
      }
      for (size_t c = col; c < n; ++c) {
        m[r][c] -= f * m[col][c];
      }
      rhs[r] -= f * rhs[col];
    }
  }
  x->assign(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double acc = rhs[ri];
    for (size_t c = ri + 1; c < n; ++c) {
      acc -= m[ri][c] * (*x)[c];
    }
    (*x)[ri] = acc / m[ri][ri];
  }
  return true;
}

bool SolveLinearSystemPair(size_t n, double* m, double* b1, double* b2) {
  const auto at = [m, n](size_t r, size_t c) -> double& { return m[r * n + c]; };
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(at(r, col)) > std::fabs(at(pivot, col))) {
        pivot = r;
      }
    }
    if (std::fabs(at(pivot, col)) < 1e-12) {
      return false;
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(at(pivot, c), at(col, c));
      }
      std::swap(b1[pivot], b1[col]);
      std::swap(b2[pivot], b2[col]);
    }
    const double inv = 1.0 / at(col, col);
    for (size_t r = col + 1; r < n; ++r) {
      const double f = at(r, col) * inv;
      if (f == 0.0) {
        continue;
      }
      for (size_t c = col; c < n; ++c) {
        at(r, c) -= f * at(col, c);
      }
      b1[r] -= f * b1[col];
      b2[r] -= f * b2[col];
    }
  }
  // Back substitution in place: row ri reads only solutions of rows below it.
  for (size_t ri = n; ri-- > 0;) {
    double acc1 = b1[ri];
    double acc2 = b2[ri];
    for (size_t c = ri + 1; c < n; ++c) {
      acc1 -= at(ri, c) * b1[c];
      acc2 -= at(ri, c) * b2[c];
    }
    b1[ri] = acc1 / at(ri, ri);
    b2[ri] = acc2 / at(ri, ri);
  }
  return true;
}

}  // namespace unicorn
