// SCF driver tests: literature energies, physical invariants, Fock-build
// decomposition correctness, and the incremental (density-difference)
// G builds against the Schwarz-only build_g oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>

#include "chem/eri.hpp"
#include "chem/fock.hpp"
#include "chem/integrals.hpp"
#include "chem/scf.hpp"
#include "chem/shell_pair.hpp"
#include "linalg/blas.hpp"
#include "util/rng.hpp"

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
  // The FockBuilder owns the screen threshold.
  const Molecule mol = make_water();
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  auto energy = [&](double screen_threshold) {
    const FockBuilder builder(basis, screen_threshold);
    IncrementalGBuilder g(builder);
    return run_rhf_with_builder(mol, basis, std::ref(g)).energy;
  };
  EXPECT_NEAR(energy(1e-9), energy(0.0), 1e-7);
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
  double n_loose = 0.0, n_tight = 0.0;
  for (const auto& task : loose.make_tasks()) {
    n_loose += loose.task_cost_features(task).quartets;
    n_tight += tight.task_cost_features(task).quartets;
  }
  EXPECT_LT(n_loose, n_tight);
  EXPECT_GT(n_loose, 0.0);
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

TEST(ScfTest, RejectsBadOptions) {
  const Molecule mol = make_h2(1.4);
  const BasisSet basis = BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const GBuilder g = [&builder](const Matrix& p) { return builder.build_g(p); };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ScfOptions> bad(8);
  bad[0].max_iterations = 0;
  bad[1].max_iterations = -3;
  bad[2].diis_size = -1;
  bad[3].energy_tolerance = nan;
  bad[4].energy_tolerance = -1e-9;
  bad[5].energy_tolerance = inf;
  bad[6].error_tolerance = nan;
  bad[7].error_tolerance = -1e-6;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(run_rhf(mol, basis, bad[i]), std::invalid_argument) << i;
    EXPECT_THROW(run_rhf_with_builder(mol, basis, g, bad[i]),
                 std::invalid_argument)
        << i;
  }
  ScfOptions one_iteration;
  one_iteration.max_iterations = 1;
  one_iteration.diis_size = 0;
  one_iteration.energy_tolerance = 0.0;
  const ScfResult r = run_rhf(mol, basis, one_iteration);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_FALSE(r.converged);
}

TEST(FockBuilderTest, RejectsBadScreenThreshold) {
  const BasisSet basis = BasisSet::build(make_h2(1.4), "sto-3g");
  for (const double t : {-1e-10, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(FockBuilder(basis, t), std::invalid_argument) << t;
  }
  EXPECT_NO_THROW(FockBuilder(basis, 0.0));
}

// ------------------------------------------- incremental G and its screen

/// The shell each basis function belongs to.
std::vector<std::size_t> shell_of_function(const BasisSet& basis) {
  std::vector<std::size_t> shell_of;
  for (std::size_t s = 0; s < basis.shell_count(); ++s) {
    shell_of.insert(shell_of.end(),
                    static_cast<std::size_t>(
                        basis.shells()[s].function_count()),
                    s);
  }
  return shell_of;
}

/// Seeded random symmetric density whose shell blocks span twelve
/// decades, like an SCF density change: large on a few blocks, tiny on
/// most, so the density screen has work to do.
Matrix random_block_density(const BasisSet& basis, std::uint64_t seed) {
  emc::Rng rng(seed);
  const auto& shells = basis.shells();
  const auto n = static_cast<std::size_t>(basis.function_count());
  const std::vector<std::size_t> shell_of = shell_of_function(basis);
  Matrix scale(shells.size(), shells.size());
  for (std::size_t a = 0; a < shells.size(); ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      scale(a, b) = scale(b, a) = std::pow(10.0, -rng.uniform(0.0, 12.0));
    }
  }
  Matrix d(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      d(r, c) = d(c, r) =
          scale(shell_of[r], shell_of[c]) * rng.uniform(-1.0, 1.0);
    }
  }
  return d;
}

/// The density screen recomputed from its definition: which quartets
/// survive, and per shell block (a, b) a bound on what the skipped ones
/// would have added to any element of G's block (a, b).
struct ScreenAudit {
  std::uint64_t schwarz_survivors = 0;
  std::uint64_t survivors = 0;
  Matrix bound;
};

ScreenAudit audit_density_screen(const FockBuilder& builder,
                                 const Matrix& density) {
  const auto& shells = builder.basis().shells();
  const std::size_t ns = shells.size();
  const std::vector<std::size_t> shell_of =
      shell_of_function(builder.basis());
  Matrix m(ns, ns);
  for (std::size_t r = 0; r < density.rows(); ++r) {
    for (std::size_t c = 0; c < density.cols(); ++c) {
      double& block = m(shell_of[r], shell_of[c]);
      block = std::max(block, std::abs(density(r, c)));
    }
  }
  const Matrix& q = builder.schwarz();
  const double tau = builder.screen_threshold();
  auto nf = [&shells](std::size_t s) {
    return static_cast<double>(shells[s].function_count());
  };
  // The digest's six updates of a quartet block, each a sum over two of
  // its indices of D * g with |g| <= Q_ij Q_kl: J(ij) reads D_kl, J(kl)
  // D_ij, K(ik) D_jl, K(jl) D_ik, K(il) D_jk, K(jk) D_il. J is scaled by
  // deg/2 and K by deg/4; these bound every accumulator element of the
  // target block.
  Matrix j_bound(ns, ns), k_bound(ns, ns);
  ScreenAudit audit;
  for (const ShellPairTask& t : builder.make_tasks()) {
    const auto i = static_cast<std::size_t>(t.si);
    const auto j = static_cast<std::size_t>(t.sj);
    for (int k = 0; k <= t.si; ++k) {
      for (int l = 0; l <= k && pair_rank(k, l) <= t.rank; ++l) {
        const auto uk = static_cast<std::size_t>(k);
        const auto ul = static_cast<std::size_t>(l);
        const double qq = q(i, j) * q(uk, ul);
        if (qq < tau) continue;
        ++audit.schwarz_survivors;
        const double d_j = std::max(m(i, j), m(uk, ul));
        const double d_k = std::max({m(i, uk), m(i, ul), m(j, uk), m(j, ul)});
        if (qq * std::max(4.0 * d_j, d_k) >= tau) {
          ++audit.survivors;
          continue;
        }
        const double deg = (i != j ? 2.0 : 1.0) * (k != l ? 2.0 : 1.0) *
                           (pair_rank(k, l) == t.rank ? 1.0 : 2.0);
        const double js = 0.5 * deg * qq;
        const double ks = 0.25 * deg * qq;
        j_bound(i, j) += js * nf(uk) * nf(ul) * m(uk, ul);
        j_bound(uk, ul) += js * nf(i) * nf(j) * m(i, j);
        k_bound(i, uk) += ks * nf(j) * nf(ul) * m(j, ul);
        k_bound(j, ul) += ks * nf(i) * nf(uk) * m(i, uk);
        k_bound(i, ul) += ks * nf(j) * nf(uk) * m(j, uk);
        k_bound(j, uk) += ks * nf(i) * nf(ul) * m(i, ul);
      }
    }
  }
  // combine_jk: G(r,c) = (J(r,c) + J(c,r))/2 - (K(r,c) + K(c,r))/4.
  audit.bound = Matrix(ns, ns);
  for (std::size_t a = 0; a < ns; ++a) {
    for (std::size_t b = 0; b < ns; ++b) {
      audit.bound(a, b) = 0.5 * (j_bound(a, b) + j_bound(b, a)) +
                          0.25 * (k_bound(a, b) + k_bound(b, a));
    }
  }
  return audit;
}

/// max over elements of |a - b| - bound(block), the bound taken per
/// shell block; <= 0 when a and b agree within the bound.
double excess_over_block_bound(const BasisSet& basis, const Matrix& a,
                               const Matrix& b, const Matrix& bound) {
  const std::vector<std::size_t> shell_of = shell_of_function(basis);
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)) -
                                  bound(shell_of[r], shell_of[c]));
    }
  }
  return worst;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  Matrix d = a;
  d -= b;
  return d.max_abs();
}

TEST(DensityScreenTest, RandomDensitiesStayWithinTheScreenBound) {
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g*");
  const FockBuilder builder(basis);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Matrix d = random_block_density(basis, seed);
    std::uint64_t quartets = 0;
    const Matrix screened = builder.build_g(d, Screen::kDensity, &quartets);
    const Matrix full = builder.build_g(d);
    const ScreenAudit audit = audit_density_screen(builder, d);
    EXPECT_EQ(quartets, audit.survivors) << "seed " << seed;
    EXPECT_LT(quartets, audit.schwarz_survivors) << "seed " << seed;
    EXPECT_LE(excess_over_block_bound(basis, screened, full, audit.bound),
              1e-13 * full.max_abs())
        << "seed " << seed;
  }
}

TEST(DensityScreenTest, GIsLinearInTheDensity) {
  // The identity the incremental build rests on, through the oracle and
  // through IncrementalGBuilder: G(D1) + G(D2 - D1) = G(D2). Unscreened
  // builds, so only rounding separates the two sides.
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g*");
  const FockBuilder builder(basis, /*screen=*/0.0);
  const Matrix d1 = random_block_density(basis, 11);
  const Matrix d2 = random_block_density(basis, 12);
  Matrix delta = d2;
  delta -= d1;
  const Matrix g2 = builder.build_g(d2);
  Matrix sum = builder.build_g(d1);
  sum += builder.build_g(delta);
  const double tol = 1e-13 * g2.max_abs();
  EXPECT_LE(max_abs_diff(sum, g2), tol);

  IncrementalGBuilder incremental(builder);
  incremental(d1);
  EXPECT_LE(max_abs_diff(incremental(d2), g2), tol);
}

TEST(DensityScreenTest, ZeroDensityChangeEvaluatesNoQuartets) {
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g*");
  const FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  std::uint64_t quartets = 1;
  const Matrix g = builder.build_g(Matrix(n, n), Screen::kDensity, &quartets);
  EXPECT_EQ(quartets, 0u);
  EXPECT_EQ(g.max_abs(), 0.0);

  // Repeating a density adds nothing: the same G, bit for bit.
  const Matrix d = random_block_density(basis, 3);
  IncrementalGBuilder incremental(builder);
  const Matrix first = incremental(d);
  const Matrix again = incremental(d);
  ASSERT_EQ(incremental.quartets().size(), 2u);
  EXPECT_GT(incremental.quartets()[0], 0u);
  EXPECT_EQ(incremental.quartets()[1], 0u);
  EXPECT_EQ(max_abs_diff(first, again), 0.0);
}

TEST(FockBuilderTest, WindowsAreWhatExecuteTaskDigests) {
  // for_each_window is execute_task's loop: under either screen, a
  // task's windows hold exactly the quartets it digests, in ascending
  // pair rank, each within the window bounds, the blocks tiling one
  // buffer from its start.
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g*");
  const FockBuilder builder(basis);
  const Matrix density = random_block_density(basis, 30);
  const Matrix block_max = builder.shell_block_max(density);
  const auto n = static_cast<std::size_t>(basis.function_count());
  // ShellPairList stores the pairs by pair rank.
  const ShellPairData* rank0 = &builder.shell_pairs().pair(0, 0);
  Matrix j_acc(n, n), k_acc(n, n);
  std::uint64_t totals[2] = {0, 0};
  for (const Matrix* screen : {static_cast<const Matrix*>(nullptr),
                               &block_max}) {
    for (const ShellPairTask& task : builder.make_tasks()) {
      const std::uint64_t digested =
          builder.execute_task(task, density, j_acc, k_acc, screen);
      std::uint64_t kets_seen = 0;
      std::ptrdiff_t last_rank = -1;
      const double* start = nullptr;
      builder.for_each_window(
          task, screen,
          [&](const ShellPairData& bra, std::span<const EriKet> kets) {
            ASSERT_FALSE(kets.empty());
            EXPECT_EQ(&bra, &builder.shell_pairs().pair(task.si, task.sj));
            EXPECT_LE(kets.size(), kEriWindowKets);
            if (start == nullptr) start = kets.front().out;
            const double* next = start;
            for (const EriKet& k : kets) {
              const std::ptrdiff_t rank = k.pair - rank0;
              EXPECT_GT(rank, last_rank);
              EXPECT_LE(rank, static_cast<std::ptrdiff_t>(task.rank));
              last_rank = rank;
              EXPECT_EQ(k.out, next);
              next += bra.na() * bra.nb() * k.pair->na() * k.pair->nb();
            }
            EXPECT_LE(next - start,
                      static_cast<std::ptrdiff_t>(kMaxQuartetSize));
            kets_seen += kets.size();
          });
      EXPECT_EQ(kets_seen, digested) << "task " << task.rank;
      totals[screen != nullptr] += digested;
    }
  }
  // The density screen dropped quartets the Schwarz screen kept.
  EXPECT_LT(totals[1], totals[0]);
}

TEST(ScfTest, IncrementalScfMatchesFullBuildOracle) {
  // run_rhf builds G incrementally; run_rhf_with_builder over build_g
  // rebuilds it in full every iteration. Same iterations, and energies
  // within the drift the skipped quartets allow.
  for (const char* name : {"water", "water2"}) {
    const Molecule mol = make_named_molecule(name);
    const BasisSet basis = BasisSet::build(mol, "6-31g*");
    const FockBuilder builder(basis);
    IncrementalGBuilder g(builder);
    const ScfResult incremental =
        run_rhf_with_builder(mol, basis, std::ref(g));
    const ScfResult full = run_rhf_with_builder(
        mol, basis, [&builder](const Matrix& p) { return builder.build_g(p); });
    EXPECT_TRUE(incremental.converged) << name;
    EXPECT_EQ(incremental.energy, run_rhf(mol, basis).energy) << name;
    EXPECT_EQ(incremental.iterations, full.iterations) << name;
    EXPECT_NEAR(incremental.energy, full.energy, 1e-9) << name;
    ASSERT_EQ(g.quartets().size(),
              static_cast<std::size_t>(incremental.iterations));
    if (std::string(name) == "water2") {
      // The density change shrinks, so the last build screens more.
      EXPECT_LT(g.quartets().back(), g.quartets().front());
    }
  }
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
