// SCF driver tests: literature energies, physical invariants, Fock-build
// decomposition correctness.

#include <gtest/gtest.h>

#include <cmath>

#include "chem/eri.hpp"
#include "chem/fock.hpp"
#include "chem/integrals.hpp"
#include "chem/scf.hpp"
#include "linalg/blas.hpp"

namespace {

using namespace emc::chem;
using emc::linalg::Matrix;

TEST(ScfTest, H2Sto3gEnergyMatchesSzabo) {
  // Szabo & Ostlund: E_total = -1.1167 at R = 1.4 a0, and -1.11751 at the
  // RHF/STO-3G equilibrium R = 1.346 a0 (Table 3.11).
  struct Case {
    double r, energy, tolerance;
  };
  for (const Case c : {Case{1.4, -1.1167, 2e-4}, Case{1.346, -1.11751, 1e-5}}) {
    const Molecule mol = make_h2(c.r);
    const BasisSet basis = BasisSet::build(mol, "sto-3g");
    const ScfResult r = run_rhf(mol, basis);
    EXPECT_TRUE(r.converged) << "R=" << c.r;
    EXPECT_NEAR(r.energy, c.energy, c.tolerance) << "R=" << c.r;
    EXPECT_NEAR(r.nuclear_repulsion, 1.0 / c.r, 1e-12) << "R=" << c.r;
  }
}

TEST(ScfTest, WaterSto3gEnergy) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const ScfResult r = run_rhf(mol, basis);
  EXPECT_TRUE(r.converged);
  // RHF/STO-3G at the experimental geometry: ~ -74.963 Eh.
  EXPECT_NEAR(r.energy, -74.9629, 5e-3);
}

TEST(ScfTest, Water631gEnergyBelowSto3g) {
  // The variational principle demands the bigger basis gives lower E.
  const Molecule mol = make_water();
  const ScfResult small = run_rhf(mol, BasisSet::build(mol, "sto-3g"));
  const ScfResult big = run_rhf(mol, BasisSet::build(mol, "6-31g"));
  EXPECT_TRUE(big.converged);
  EXPECT_LT(big.energy, small.energy);
  // Literature RHF/6-31G for water is about -75.98 Eh.
  EXPECT_NEAR(big.energy, -75.98, 5e-2);
}

TEST(ScfTest, DensityTraceCountsElectrons) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const ScfResult r = run_rhf(mol, basis);
  const Matrix s = overlap_matrix(basis);
  // tr(P S) = number of electrons.
  const Matrix ps = emc::linalg::matmul(r.density, s);
  EXPECT_NEAR(ps.trace(), 10.0, 1e-8);
}

TEST(ScfTest, VirialRatioNearTwo) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const ScfResult r = run_rhf(mol, basis);
  // -V/T = 2 exactly at basis-set-optimal geometry; within a few percent
  // here.
  const double v = r.energy - r.kinetic_energy;
  EXPECT_NEAR(-v / r.kinetic_energy, 2.0, 0.05);
}

TEST(ScfTest, OrbitalEnergiesOrderedAndOccupiedNegative) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const ScfResult r = run_rhf(mol, basis);
  ASSERT_EQ(r.orbital_energies.size(),
            static_cast<std::size_t>(basis.function_count()));
  for (std::size_t i = 1; i < r.orbital_energies.size(); ++i) {
    EXPECT_LE(r.orbital_energies[i - 1], r.orbital_energies[i]);
  }
  // All five occupied orbitals of water are bound.
  for (int o = 0; o < 5; ++o) {
    EXPECT_LT(r.orbital_energies[static_cast<std::size_t>(o)], 0.0);
  }
}

TEST(ScfTest, OddElectronCountThrows) {
  Molecule m;
  m.add_atom(1, 0.0, 0.0, 0.0);  // lone H atom, 1 electron
  const BasisSet basis = BasisSet::build(m, "sto-3g");
  EXPECT_THROW(run_rhf(m, basis), std::invalid_argument);
}

TEST(ScfTest, ChargedSpeciesRuns) {
  // H2+ would be odd; use H3+ (2 electrons, charge +1).
  Molecule m;
  const double r = 1.65;  // near-equilateral H3+
  m.add_atom(1, 0.0, 0.0, 0.0);
  m.add_atom(1, r, 0.0, 0.0);
  m.add_atom(1, r / 2.0, r * std::sqrt(3.0) / 2.0, 0.0);
  const BasisSet basis = BasisSet::build(m, "sto-3g");
  ScfOptions options;
  options.net_charge = 1;
  const ScfResult result = run_rhf(m, basis, options);
  EXPECT_TRUE(result.converged);
  // H3+/STO-3G total energy is around -1.27 Eh near equilibrium.
  EXPECT_NEAR(result.energy, -1.27, 0.05);
}

TEST(ScfTest, DiisAcceleratesConvergence) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  ScfOptions with_diis;
  ScfOptions without_diis;
  without_diis.diis_size = 0;
  without_diis.max_iterations = 200;
  const ScfResult a = run_rhf(mol, basis, with_diis);
  const ScfResult b = run_rhf(mol, basis, without_diis);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_NEAR(a.energy, b.energy, 1e-6);
  EXPECT_LE(a.iterations, b.iterations);
}

TEST(ScfTest, ScreeningDoesNotChangeEnergy) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  ScfOptions screened;
  screened.screen_threshold = 1e-9;
  ScfOptions unscreened;
  unscreened.screen_threshold = 0.0;
  const ScfResult a = run_rhf(mol, basis, screened);
  const ScfResult b = run_rhf(mol, basis, unscreened);
  EXPECT_NEAR(a.energy, b.energy, 1e-7);
}

TEST(FockBuilderTest, TaskCountIsTriangular) {
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const auto tasks = builder.make_tasks();
  const auto ns = basis.shell_count();
  EXPECT_EQ(tasks.size(), ns * (ns + 1) / 2);
  // Ranks are the canonical pair ranks, strictly increasing.
  for (std::size_t t = 1; t < tasks.size(); ++t) {
    EXPECT_LT(tasks[t - 1].rank, tasks[t].rank);
  }
}

TEST(FockBuilderTest, TaskSumMatchesMonolithicBuild) {
  // Union of per-task J/K contributions must equal build_g exactly.
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());

  Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = 0.1 * static_cast<double>(i + j) + (i == j ? 1.0 : 0.0);
    }
  }

  Matrix j_acc(n, n), k_acc(n, n);
  for (const auto& task : builder.make_tasks()) {
    builder.execute_task(task, density, j_acc, k_acc);
  }
  const Matrix g_tasks = FockBuilder::combine_jk(j_acc, k_acc);
  const Matrix g_mono = builder.build_g(density);
  EXPECT_TRUE(g_tasks.almost_equal(g_mono, 1e-12));
}

TEST(FockBuilderTest, GMatrixMatchesDenseTensorContraction) {
  // G built from canonical shell quartets must equal the naive
  // contraction of the full ERI tensor. Unscreened, the build digests
  // every canonical quartet, including those with i = j, k = l or
  // ij = kl, whose symmetry orbits have fewer than 8 members; 6-31G*
  // adds d shells.
  const Molecule mol = make_water();
  for (const char* basis_name : {"sto-3g", "6-31g*"}) {
    const BasisSet basis = BasisSet::build(mol, basis_name);
    const FockBuilder builder(basis, /*screen=*/0.0);
    const auto n = static_cast<std::size_t>(basis.function_count());

    Matrix density(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        density(i, j) =
            ((i * 7 + j * 3) % 5) * 0.05 + (i == j ? 0.8 : 0.0);
      }
    }
    // Symmetrize: RHF densities are symmetric and the builder needs it.
    Matrix sym = density;
    sym += density.transposed();
    sym *= 0.5;

    const Matrix g = builder.build_g(sym);

    const auto eri = full_eri_tensor(basis);
    const auto idx = [n](std::size_t i, std::size_t j, std::size_t k,
                         std::size_t l) {
      return ((i * n + j) * n + k) * n + l;
    };
    Matrix expected(n, n);
    for (std::size_t mu = 0; mu < n; ++mu) {
      for (std::size_t nu = 0; nu < n; ++nu) {
        double s = 0.0;
        for (std::size_t la = 0; la < n; ++la) {
          for (std::size_t sg = 0; sg < n; ++sg) {
            s += sym(la, sg) * (eri[idx(mu, nu, la, sg)] -
                                0.5 * eri[idx(mu, la, nu, sg)]);
          }
        }
        expected(mu, nu) = s;
      }
    }
    EXPECT_TRUE(g.almost_equal(expected, 1e-12)) << basis_name;
  }
}

TEST(FockBuilderTest, BuildGRejectsAsymmetricDensity) {
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) density(i, i) = 1.0;
  density(2, 5) = 0.25;
  EXPECT_THROW(builder.build_g(density), std::invalid_argument);
  // Symmetric to 1e-12 relative still builds.
  density(5, 2) = 0.25 * (1.0 + 1e-14);
  EXPECT_NO_THROW(builder.build_g(density));
  EXPECT_THROW(builder.build_g(Matrix(n, n + 1)), std::invalid_argument);
}

TEST(FockBuilderTest, QuartetCountsDecreaseWithScreening) {
  const Molecule mol = make_water_cluster(3);
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder loose(basis, 1e-6);
  const FockBuilder tight(basis, 0.0);
  std::uint64_t n_loose = 0, n_tight = 0;
  for (const auto& task : loose.make_tasks()) {
    n_loose += loose.count_task_quartets(task);
    n_tight += tight.count_task_quartets(task);
  }
  EXPECT_LT(n_loose, n_tight);
  EXPECT_GT(n_loose, 0u);
}

TEST(FockBuilderTest, EstimatedCostsPositiveAndHeterogeneous) {
  const Molecule mol = make_water_cluster(2);
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const auto tasks = builder.make_tasks();
  double min_cost = 1e300, max_cost = 0.0;
  for (const auto& task : tasks) {
    const double c = builder.estimate_task_cost(task);
    EXPECT_GE(c, 0.0);
    min_cost = std::min(min_cost, c);
    max_cost = std::max(max_cost, c);
  }
  // The first task (0,0) does 1 quartet; the last does ~n_pairs of them —
  // heterogeneity is what the whole study is about.
  EXPECT_GT(max_cost, 10.0 * min_cost);
}

TEST(ScfTest, ParallelizableBuilderHookWorks) {
  // run_rhf_with_builder with the stock builder must equal run_rhf.
  const Molecule mol = make_h2(1.4);
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const ScfResult a = run_rhf(mol, basis);
  const ScfResult b = run_rhf_with_builder(
      mol, basis,
      [&builder](const Matrix& p) { return builder.build_g(p); });
  EXPECT_NEAR(a.energy, b.energy, 1e-12);
  EXPECT_EQ(a.iterations, b.iterations);
}

}  // namespace
