#pragma once

// BLAS-like dense kernels over emc::linalg::Matrix.

#include "linalg/matrix.hpp"

namespace emc::linalg {

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = alpha * A * B + beta * C (general matrix multiply-accumulate).
void gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix& c);

/// Returns A^T * B * A (basis-change congruence transform, used heavily
/// in SCF: F' = X^T F X).
Matrix congruence(const Matrix& x, const Matrix& b);

}  // namespace emc::linalg
