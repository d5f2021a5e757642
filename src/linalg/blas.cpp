#include "linalg/blas.hpp"

#include <stdexcept>

namespace emc::linalg {

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, b, 0.0, c);
  return c;
}

void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows
  // of B and C.
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = &c(i, 0);
    if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = alpha * a(i, p);
      if (aip == 0.0) continue;
      const double* bp = b.row(p).data();
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

Matrix congruence(const Matrix& x, const Matrix& b) {
  return matmul(x.transposed(), matmul(b, x));
}

}  // namespace emc::linalg
