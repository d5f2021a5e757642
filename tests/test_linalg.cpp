// Unit and property tests for the dense linear-algebra substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "linalg/factor.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace {

using emc::Rng;
using emc::linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix spd = emc::linalg::matmul(a.transposed(), a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, IdentityAndTrace) {
  const Matrix id = Matrix::identity(4);
  EXPECT_DOUBLE_EQ(id.trace(), 4.0);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(1);
  const Matrix a = random_matrix(3, 5, rng);
  EXPECT_TRUE(a.transposed().transposed().almost_equal(a, 0.0));
}

TEST(MatrixTest, ArithmeticOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(MatrixTest, NormAndMaxAbs) {
  Matrix m{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(m.norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(MatrixTest, SymmetryCheck) {
  Matrix s{{1.0, 2.0}, {2.0, 3.0}};
  EXPECT_TRUE(s.is_symmetric(1e-14));
  s(0, 1) = 2.1;
  EXPECT_FALSE(s.is_symmetric(1e-3));
}

TEST(BlasTest, MatmulKnownResult) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = emc::linalg::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(BlasTest, GemmAgainstNaive) {
  Rng rng(2);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  Matrix c = random_matrix(7, 9, rng);
  Matrix expected = c;

  // Naive reference: C = 0.5*A*B + 2*C.
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < 5; ++k) s += a(i, k) * b(k, j);
      expected(i, j) = 0.5 * s + 2.0 * expected(i, j);
    }
  }
  emc::linalg::gemm(0.5, a, b, 2.0, c);
  EXPECT_TRUE(c.almost_equal(expected, 1e-12));
}

TEST(BlasTest, MatmulIdentity) {
  Rng rng(3);
  const Matrix a = random_matrix(4, 4, rng);
  EXPECT_TRUE(emc::linalg::matmul(a, Matrix::identity(4))
                  .almost_equal(a, 1e-14));
}

TEST(BlasTest, CongruenceTransform) {
  Rng rng(4);
  const Matrix x = random_matrix(3, 3, rng);
  const Matrix b = random_spd(3, rng);
  const Matrix direct = emc::linalg::congruence(x, b);
  const Matrix manual =
      emc::linalg::matmul(x.transposed(), emc::linalg::matmul(b, x));
  EXPECT_TRUE(direct.almost_equal(manual, 1e-12));
}

TEST(EigenTest, DiagonalMatrix) {
  const std::vector<double> d{3.0, -1.0, 2.0};
  const auto result = emc::linalg::eigen_symmetric(Matrix::diagonal(d));
  ASSERT_EQ(result.values.size(), 3u);
  EXPECT_NEAR(result.values[0], -1.0, 1e-12);
  EXPECT_NEAR(result.values[1], 2.0, 1e-12);
  EXPECT_NEAR(result.values[2], 3.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const auto result = emc::linalg::eigen_symmetric(m);
  EXPECT_NEAR(result.values[0], 1.0, 1e-12);
  EXPECT_NEAR(result.values[1], 3.0, 1e-12);
}

TEST(EigenTest, NonSymmetricThrows) {
  Matrix m{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(emc::linalg::eigen_symmetric(m), std::invalid_argument);
}

class EigenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthogonality) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto n = static_cast<std::size_t>(3 + GetParam() % 8);
  Matrix a = random_matrix(n, n, rng);
  a += a.transposed();  // symmetrize

  const auto result = emc::linalg::eigen_symmetric(a);
  const Matrix& v = result.vectors;

  // V^T V = I.
  EXPECT_TRUE(emc::linalg::matmul(v.transposed(), v)
                  .almost_equal(Matrix::identity(n), 1e-9));

  // V D V^T = A.
  const Matrix d = Matrix::diagonal(result.values);
  const Matrix rebuilt =
      emc::linalg::matmul(v, emc::linalg::matmul(d, v.transposed()));
  EXPECT_TRUE(rebuilt.almost_equal(a, 1e-9));

  // Eigenvalues sorted ascending.
  for (std::size_t i = 1; i < result.values.size(); ++i) {
    EXPECT_LE(result.values[i - 1], result.values[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenPropertyTest,
                         ::testing::Range(1, 13));

TEST(InverseSqrtTest, SquaresToInverse) {
  Rng rng(5);
  const Matrix s = random_spd(5, rng);
  const Matrix x = emc::linalg::inverse_sqrt(s);
  // X S X = I.
  const Matrix probe =
      emc::linalg::matmul(x, emc::linalg::matmul(s, x));
  EXPECT_TRUE(probe.almost_equal(Matrix::identity(5), 1e-8));
}

TEST(InverseSqrtTest, RejectsIndefinite) {
  Matrix m{{1.0, 0.0}, {0.0, -1.0}};
  EXPECT_THROW(emc::linalg::inverse_sqrt(m), std::runtime_error);
}

class SolvePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolvePropertyTest, LuSolvesRandomSystems) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const auto n = static_cast<std::size_t>(2 + GetParam());
  const Matrix a = random_spd(n, rng);  // well-conditioned
  std::vector<double> b(n);
  for (auto& x : b) x = rng.uniform(-2.0, 2.0);

  const auto x = emc::linalg::solve(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (std::size_t j = 0; j < n; ++j) ax += a(i, j) * x[j];
    EXPECT_NEAR(ax, b[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolvePropertyTest, ::testing::Range(1, 10));

TEST(LuTest, SingularThrows) {
  Matrix m{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(emc::linalg::lu_decompose(m), std::runtime_error);
}

TEST(LuTest, DeterminantKnown) {
  Matrix m{{2.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 4.0}};
  EXPECT_NEAR(emc::linalg::determinant(m), 24.0, 1e-12);
  Matrix swapped{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(emc::linalg::determinant(swapped), -1.0, 1e-12);
}

}  // namespace
