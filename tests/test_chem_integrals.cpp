// Integral engine tests: Boys function, one-electron matrices against
// Szabo & Ostlund reference values, ERI symmetries, Schwarz bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "chem/boys.hpp"
#include "chem/constants.hpp"
#include "chem/eri.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"

namespace {

using namespace emc::chem;

TEST(BoysTest, ZeroArgument) {
  // F_m(0) = 1/(2m+1).
  for (int m = 0; m <= 8; ++m) {
    EXPECT_NEAR(boys(m, 0.0), 1.0 / (2.0 * m + 1.0), 1e-14);
  }
}

TEST(BoysTest, F0ClosedForm) {
  // F_0(x) = sqrt(pi/(4x)) erf(sqrt(x)).
  for (double x : {0.1, 0.5, 1.0, 5.0, 20.0, 40.0, 100.0}) {
    const double expected =
        0.5 * std::sqrt(kPi / x) * std::erf(std::sqrt(x));
    EXPECT_NEAR(boys(0, x), expected, 1e-12) << "x=" << x;
  }
}

TEST(BoysTest, DownwardRecursionConsistency) {
  // F_{m}(x) = (2x F_{m+1}(x) + e^{-x}) / (2m+1) must hold across the
  // series/asymptotic switch.
  for (double x : {0.2, 3.0, 17.0, 34.9, 35.1, 80.0}) {
    std::vector<double> f(8);
    boys(x, f);
    for (int m = 0; m < 7; ++m) {
      const double rebuilt =
          (2.0 * x * f[static_cast<std::size_t>(m + 1)] + std::exp(-x)) /
          (2.0 * m + 1.0);
      EXPECT_NEAR(f[static_cast<std::size_t>(m)], rebuilt, 1e-13 * rebuilt)
          << "x=" << x << " m=" << m;
    }
  }
}

TEST(BoysTest, LargeArgumentMatchesHighPrecision) {
  // High-precision (mpmath) values of F_m(x) on the asymptotic branch
  // (fast path from x = 35, reference from x = 45).
  struct Case {
    int m;
    double x, expected;
  };
  for (const Case c : {Case{20, 35.0, 5.9853256626083691e-15},
                       Case{20, 40.0, 3.8861932400863595e-16},
                       Case{20, 45.1, 3.3207792871600883e-17},
                       Case{8, 35.0, 5.2672713731152326e-10},
                       Case{8, 60.0, 5.3935964849061892e-12}}) {
    std::vector<double> f(static_cast<std::size_t>(c.m) + 1);
    boys(c.x, f);
    EXPECT_NEAR(f.back(), c.expected, 1e-13 * c.expected)
        << "fast x=" << c.x << " m=" << c.m;
    boys_reference(c.x, f);
    EXPECT_NEAR(f.back(), c.expected, 1e-13 * c.expected)
        << "reference x=" << c.x << " m=" << c.m;
  }
}

TEST(BoysTest, FastMatchesReferenceAcrossAsymptoticSwitch) {
  // Table/asymptotic switch at 35 in the fast path; the reference stays
  // on its series up to 45.
  std::vector<double> fast(21), ref(21);
  for (double x = 34.9; x < 45.0; x += 0.01) {
    boys(x, fast);
    boys_reference(x, ref);
    for (std::size_t m = 0; m < fast.size(); ++m) {
      EXPECT_NEAR(fast[m], ref[m], 1e-13 * ref[m]) << "x=" << x << " m=" << m;
    }
  }
}

TEST(BoysTest, MonotoneDecreasingInM) {
  std::vector<double> f(6);
  boys(2.5, f);
  for (std::size_t m = 1; m < f.size(); ++m) {
    EXPECT_LT(f[m], f[m - 1]);
  }
}

TEST(BoysTest, NegativeArgumentThrows) {
  std::vector<double> f(2);
  EXPECT_THROW(boys(-1.0, f), std::invalid_argument);
}

class H2ReferenceTest : public ::testing::Test {
 protected:
  H2ReferenceTest()
      : mol(make_h2(1.4)), basis(BasisSet::build(mol, "sto-3g")) {}
  Molecule mol;
  BasisSet basis;
};

// Reference values: Szabo & Ostlund, "Modern Quantum Chemistry",
// Sec. 3.5.2 (H2, STO-3G, R = 1.4 a0).
TEST_F(H2ReferenceTest, Overlap) {
  const auto s = overlap_matrix(basis);
  EXPECT_NEAR(s(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(s(1, 1), 1.0, 1e-10);
  EXPECT_NEAR(s(0, 1), 0.6593, 1e-4);
}

TEST_F(H2ReferenceTest, Kinetic) {
  const auto t = kinetic_matrix(basis);
  EXPECT_NEAR(t(0, 0), 0.7600, 1e-4);
  EXPECT_NEAR(t(0, 1), 0.2365, 1e-4);
}

TEST_F(H2ReferenceTest, NuclearAttraction) {
  const auto v = nuclear_attraction_matrix(basis, mol);
  // Sum over both nuclei: V11 = -1.2266 - 0.6538 = -1.8804.
  EXPECT_NEAR(v(0, 0), -1.8804, 1e-4);
  EXPECT_NEAR(v(0, 1), -1.1948, 2e-4);
}

TEST_F(H2ReferenceTest, CoreHamiltonian) {
  const auto h = core_hamiltonian(basis, mol);
  EXPECT_NEAR(h(0, 0), -1.1204, 2e-4);
  EXPECT_NEAR(h(0, 1), -0.9584, 2e-4);
}

TEST_F(H2ReferenceTest, TwoElectronIntegrals) {
  const auto g = full_eri_tensor(basis);
  const auto idx = [](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * 2 + j) * 2 + k) * 2 + l);
  };
  EXPECT_NEAR(g[idx(0, 0, 0, 0)], 0.7746, 1e-4);
  EXPECT_NEAR(g[idx(0, 0, 1, 1)], 0.5697, 1e-4);
  EXPECT_NEAR(g[idx(1, 0, 0, 0)], 0.4441, 1e-4);
  EXPECT_NEAR(g[idx(1, 0, 1, 0)], 0.2970, 1e-4);
}

TEST(IntegralSymmetryTest, MatricesAreSymmetric) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "6-31g");
  EXPECT_TRUE(overlap_matrix(bs).is_symmetric(1e-12));
  EXPECT_TRUE(kinetic_matrix(bs).is_symmetric(1e-12));
  EXPECT_TRUE(nuclear_attraction_matrix(bs, water).is_symmetric(1e-12));
}

TEST(IntegralSymmetryTest, OverlapDiagonalIsOne) {
  // Per-component contracted normalization must hold for s AND p shells.
  const BasisSet bs = BasisSet::build(make_water(), "6-31g");
  const auto s = overlap_matrix(bs);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_NEAR(s(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
                1.0, 1e-10)
        << "function " << i;
  }
}

TEST(IntegralSymmetryTest, KineticDiagonalPositive) {
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto t = kinetic_matrix(bs);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_GT(t(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
              0.0);
  }
}

TEST(IntegralSymmetryTest, NuclearAttractionDiagonalNegative) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto v = nuclear_attraction_matrix(bs, water);
  for (int i = 0; i < bs.function_count(); ++i) {
    EXPECT_LT(v(static_cast<std::size_t>(i), static_cast<std::size_t>(i)),
              0.0);
  }
}

TEST(EriSymmetryTest, EightFoldSymmetry) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto g = full_eri_tensor(bs);
  const int n = bs.function_count();
  const auto idx = [n](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * n + j) * n + k) * n + l);
  };
  // Spot-check the full orbit on a grid of index quadruples.
  for (int i = 0; i < n; i += 2) {
    for (int j = 0; j <= i; j += 2) {
      for (int k = 0; k < n; k += 3) {
        for (int l = 0; l <= k; l += 2) {
          const double ref = g[idx(i, j, k, l)];
          EXPECT_NEAR(g[idx(j, i, k, l)], ref, 1e-11);
          EXPECT_NEAR(g[idx(i, j, l, k)], ref, 1e-11);
          EXPECT_NEAR(g[idx(k, l, i, j)], ref, 1e-11);
          EXPECT_NEAR(g[idx(l, k, j, i)], ref, 1e-11);
        }
      }
    }
  }
}

TEST(EriSymmetryTest, DiagonalElementsNonNegative) {
  // (ij|ij) >= 0 (it is a squared norm in the Coulomb metric).
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto g = full_eri_tensor(bs);
  const int n = bs.function_count();
  const auto idx = [n](int i, int j, int k, int l) {
    return static_cast<std::size_t>(((i * n + j) * n + k) * n + l);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(g[idx(i, j, i, j)], -1e-12);
    }
  }
}

TEST(SchwarzTest, BoundsEveryQuartet) {
  // |(ab|cd)| <= Q(a,b) Q(c,d) must hold for all shell quartets.
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto q = schwarz_matrix(bs);
  const auto& shells = bs.shells();
  const auto ns = shells.size();

  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      for (std::size_t c = 0; c < ns; ++c) {
        for (std::size_t d = 0; d < ns; ++d) {
          const EriBlock block =
              eri_shell_quartet(shells[a], shells[b], shells[c], shells[d]);
          EXPECT_LE(block.max_abs(), q(a, b) * q(c, d) + 1e-10)
              << a << " " << b << " " << c << " " << d;
        }
      }
    }
  }
}

TEST(SchwarzTest, MatrixSymmetricPositive) {
  const BasisSet bs = BasisSet::build(make_water(), "sto-3g");
  const auto q = schwarz_matrix(bs);
  EXPECT_TRUE(q.is_symmetric(1e-12));
  for (std::size_t i = 0; i < q.rows(); ++i) {
    EXPECT_GT(q(i, i), 0.0);
  }
}

TEST(HermiteETest, SShellIsGaussianProduct) {
  // For two s primitives, E_0^{00} = exp(-mu Q^2).
  const double a = 0.7, b = 1.3, ax = 0.0, bx = 1.1;
  const HermiteE e(0, 0, a, b, ax, bx);
  const double mu = a * b / (a + b);
  EXPECT_NEAR(e(0, 0, 0), std::exp(-mu * (ax - bx) * (ax - bx)), 1e-14);
}

TEST(HermiteETest, OutOfRangeTIsZero) {
  const HermiteE e(1, 1, 0.5, 0.5, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(e(1, 1, 3), 0.0);
  EXPECT_DOUBLE_EQ(e(0, 0, -1), 0.0);
}

TEST(ShellOverlapTest, MatchesAssembledMatrix) {
  const Molecule water = make_water();
  const BasisSet bs = BasisSet::build(water, "sto-3g");
  const auto s = overlap_matrix(bs);
  for (const Shell& sa : bs.shells()) {
    for (const Shell& sb : bs.shells()) {
      const auto block = shell_overlap(sa, sb);
      for (int fa = 0; fa < sa.function_count(); ++fa) {
        for (int fb = 0; fb < sb.function_count(); ++fb) {
          EXPECT_NEAR(block(static_cast<std::size_t>(fa),
                            static_cast<std::size_t>(fb)),
                      s(static_cast<std::size_t>(sa.first_function + fa),
                        static_cast<std::size_t>(sb.first_function + fb)),
                      1e-12);
        }
      }
    }
  }
}

}  // namespace
