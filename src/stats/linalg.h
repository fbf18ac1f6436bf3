// Small dense linear-algebra helpers (the problems here are tiny: conditioning
// sets and regression designs of at most a few dozen columns).
#ifndef UNICORN_STATS_LINALG_H_
#define UNICORN_STATS_LINALG_H_

#include <cstddef>
#include <vector>

namespace unicorn {

// Solves M x = rhs by Gaussian elimination with partial pivoting.
// Returns false when M is numerically singular.
bool SolveLinearSystem(std::vector<std::vector<double>> m, std::vector<double> rhs,
                       std::vector<double>* x);

// Solves M x1 = b1 and M x2 = b2 for an n×n M stored row-major in m[0, n*n),
// in one elimination that allocates nothing. It takes the same pivots and
// performs the same operations in the same order as SolveLinearSystem does
// for each right-hand side, so x1 and x2 are bit-identical to two
// SolveLinearSystem calls. Overwrites m; on success b1 and b2 hold x1 and x2.
// Returns false when M is numerically singular (both calls would).
bool SolveLinearSystemPair(size_t n, double* m, double* b1, double* b2);

}  // namespace unicorn

#endif  // UNICORN_STATS_LINALG_H_
