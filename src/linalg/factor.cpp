#include "linalg/factor.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace emc::linalg {

LuResult lu_decompose(const Matrix& a, double pivot_tol) {
  if (!a.square()) throw std::invalid_argument("lu_decompose: not square");
  const std::size_t n = a.rows();
  LuResult f;
  f.lu = a;
  f.perm.resize(n);
  std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: largest |entry| in this column at/below the diagonal.
    std::size_t pivot = col;
    double best = std::abs(f.lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(f.lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < pivot_tol) {
      throw std::runtime_error("lu_decompose: matrix is singular");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(f.lu(col, c), f.lu(pivot, c));
      }
      std::swap(f.perm[col], f.perm[pivot]);
      f.sign = -f.sign;
    }
    const double inv = 1.0 / f.lu(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = f.lu(r, col) * inv;
      f.lu(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c) {
        f.lu(r, c) -= factor * f.lu(col, c);
      }
    }
  }
  return f;
}

std::vector<double> lu_solve(const LuResult& f, std::span<const double> b) {
  const std::size_t n = f.lu.rows();
  if (b.size() != n) throw std::invalid_argument("lu_solve: size mismatch");

  // Forward substitution on permuted b (L has implicit unit diagonal).
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[f.perm[i]];
    for (std::size_t j = 0; j < i; ++j) s -= f.lu(i, j) * y[j];
    y[i] = s;
  }
  // Back substitution with U.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= f.lu(ii, j) * x[j];
    x[ii] = s / f.lu(ii, ii);
  }
  return x;
}

std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  return lu_solve(lu_decompose(a), b);
}

double determinant(const Matrix& a) {
  LuResult f = lu_decompose(a);
  double det = static_cast<double>(f.sign);
  for (std::size_t i = 0; i < a.rows(); ++i) det *= f.lu(i, i);
  return det;
}

}  // namespace emc::linalg
