// scf-seq: sequential RHF of a seeded rigid motion of water4/6-31G* to
// convergence. The single-threaded baseline: the ERI/digest kernel is
// nearly all of the time, d shells exercise the l = 2 integral path, and
// the SCF loop is what density-based changes alter; no scheduler, PGAS,
// serving or simulator code runs.

#include <cmath>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "chem/scf.hpp"
#include "linalg/eigen.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace chem = emc::chem;
using emc::linalg::Matrix;

struct Case {
  const char* molecule;
  const char* basis;
  double energy;   ///< pinned total energy, Hartree
  int iterations;  ///< pinned iteration count
};

// Pinned from the sequential kernel; rigid motions leave both unchanged.
constexpr Case kFull{"water4", "6-31g*", -304.048821619291, 14};
constexpr Case kSmoke{"water", "6-31g*", -76.010529972009, 10};
constexpr double kEnergyTolerance = 1e-8;

/// Thrown by the G(P) callback to stop an SCF at its first build, so the
/// time up to that point can be measured through the public driver.
struct FirstBuild {};

std::string check_solve(const chem::ScfResult& r, const Case& c) {
  if (!r.converged) return "SCF did not converge";
  if (std::abs(r.energy - c.energy) > kEnergyTolerance) {
    return "energy " + std::to_string(r.energy) + " differs from pinned " +
           std::to_string(c.energy);
  }
  if (r.iterations != c.iterations) {
    return "took " + std::to_string(r.iterations) + " iterations, pinned " +
           std::to_string(c.iterations);
  }
  return "";
}

/// One solve through the public entry point, as a user runs it: basis
/// construction plus chem::run_rhf.
double timed_solve(const chem::Molecule& molecule, const Case& c,
                   Report& report) {
  chem::ScfResult result;
  const double seconds = timed_seconds([&] {
    const chem::BasisSet basis = chem::BasisSet::build(molecule, c.basis);
    result = chem::run_rhf(molecule, basis);
  });
  const std::string why = check_solve(result, c);
  report.op(why.empty(), why);
  return seconds;
}

/// Basis + Fock-builder construction + everything run_rhf does before
/// its first G(P) call.
double timed_setup(const chem::Molecule& molecule, const Case& c) {
  return timed_seconds([&] {
    const chem::BasisSet basis = chem::BasisSet::build(molecule, c.basis);
    const chem::FockBuilder builder(basis);
    try {
      chem::run_rhf_with_builder(
          molecule, basis,
          [](const Matrix&) -> Matrix { throw FirstBuild{}; });
    } catch (const FirstBuild&) {
    }
  });
}

void run_traced(const chem::Molecule& molecule, const Case& c,
                Report& report) {
  const double untraced_s = timed_solve(molecule, c, report);

  // The same solve, split at the layer boundaries the public API exposes.
  const Timer wall;
  double basis_s = 0.0;
  double builder_s = 0.0;
  double to_first_build_s = 0.0;
  std::vector<double> build_s;
  chem::ScfResult result;
  {
    chem::BasisSet basis;
    basis_s = timed_seconds(
        [&] { basis = chem::BasisSet::build(molecule, c.basis); });
    const Timer construction;
    const chem::FockBuilder builder(basis);
    builder_s = construction.seconds();
    const Timer run;
    result = chem::run_rhf_with_builder(
        molecule, basis, [&](const Matrix& density) {
          if (build_s.empty()) to_first_build_s = run.seconds();
          const Timer build;
          Matrix g = builder.build_g(density);
          build_s.push_back(build.seconds());
          return g;
        });
  }
  const double wall_s = wall.seconds();
  const std::string why = check_solve(result, c);
  report.op(why.empty(), why);

  const double setup_s = basis_s + builder_s + to_first_build_s;
  const double builds_s = sum(build_s);
  report.metric("scf.iterations", result.iterations, "count");
  report.metric("scf.iter_self_s",
                (wall_s - setup_s - builds_s) / result.iterations, "s");
  report.metric("scf.fock_share", builds_s / wall_s, "ratio");

  Matrix fock = result.fock;
  fock += result.fock.transposed();
  fock *= 0.5;
  std::vector<double> eigen_s;
  for (int i = 0; i < 5; ++i) {
    eigen_s.push_back(
        timed_seconds([&] { emc::linalg::eigen_symmetric(fock); }));
  }
  report.metric("linalg.eigen_s", median(eigen_s), "s");

  report_chem_layer(report, molecule, c.basis, result.density,
                    median(build_s), /*one_electron=*/true);

  // Everything but the SCF loop's own work (DIIS, diagonalization,
  // density) sits inside a timed layer call.
  report_trace_closure(report, wall_s, setup_s + builds_s, wall_s,
                       untraced_s);
  report.check(setup_s + builds_s >= 0.95 * wall_s,
               "timed layer calls cover under 95% of the SCF wall time");
}

}  // namespace

void run_scf_seq(const RunConfig& config, Report& report) {
  const Case& c = config.smoke ? kSmoke : kFull;
  const chem::Molecule molecule =
      rigid_motion(chem::make_named_molecule(c.molecule), config.seed);
  report.info("input", std::string(c.molecule) + "/" + c.basis);

  if (config.trace) {
    run_traced(molecule, c, report);
    return;
  }

  std::vector<double> solve_s;
  const Timer measuring;
  do {
    solve_s.push_back(timed_solve(molecule, c, report));
  } while (measuring.seconds() < config.seconds);

  // After the solves, so one-time process warm-up (first-use tables, CPU
  // clock ramp) does not land in the set-up figure.
  std::vector<double> setup_s;
  for (int i = 0; i < 31; ++i) setup_s.push_back(timed_setup(molecule, c));
  // A run holds two or three solves, too few for any percentile to leave
  // samples above it, so the tail is the slowest solve.
  report_end_to_end(report, median(setup_s), solve_s, solve_s, 100.0,
                    static_cast<double>(solve_s.size()) / sum(solve_s));
}

}  // namespace perfbench
