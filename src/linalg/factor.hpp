#pragma once

// Partially-pivoted LU factorization, plus the linear solves built on it
// (used by DIIS extrapolation in the SCF driver).

#include <span>

#include "linalg/matrix.hpp"

namespace emc::linalg {

/// LU decomposition with partial pivoting, PA = LU packed into one matrix
/// (unit diagonal of L implicit). `perm[i]` is the source row of row i.
struct LuResult {
  Matrix lu;
  std::vector<std::size_t> perm;
  int sign = 1;  ///< permutation parity, for determinants
};

/// Throws std::runtime_error on (numerically) singular input.
LuResult lu_decompose(const Matrix& a, double pivot_tol = 1e-14);

/// Solves A x = b via the precomputed LU factorization.
std::vector<double> lu_solve(const LuResult& f, std::span<const double> b);

/// One-shot dense solve A x = b.
std::vector<double> solve(const Matrix& a, std::span<const double> b);

/// Determinant via LU.
double determinant(const Matrix& a);

}  // namespace emc::linalg
