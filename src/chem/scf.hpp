#pragma once

// Restricted Hartree–Fock driver with DIIS convergence acceleration.
//
// This is the reference (sequential) implementation of the kernel whose
// parallel execution the rest of the library studies; the parallel
// executors must reproduce FockBuilder::build_g's G bit-for-bit up to
// summation order. Every SCF, sequential or distributed, builds G
// incrementally (IncrementalGBuilder over the substrate's builder).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace emc::chem {

/// The drivers throw std::invalid_argument for max_iterations < 1,
/// diis_size < 0, or a negative or non-finite tolerance.
struct ScfOptions {
  int max_iterations = 100;
  double energy_tolerance = 1e-9;     ///< |dE| convergence threshold
  double error_tolerance = 1e-6;      ///< DIIS error norm threshold
  int diis_size = 8;                  ///< history length (0 disables DIIS)
  int net_charge = 0;
};

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;              ///< total (electronic + nuclear)
  double electronic_energy = 0.0;
  double nuclear_repulsion = 0.0;
  double kinetic_energy = 0.0;      ///< tr(P T), for virial checks
  std::vector<double> orbital_energies;
  linalg::Matrix density;           ///< converged total density P
  linalg::Matrix fock;              ///< converged Fock matrix
};

/// Pluggable G(P) builder so parallel executors can be swapped in for
/// the two-electron build while reusing the SCF iteration logic.
using GBuilder =
    std::function<linalg::Matrix(const linalg::Matrix& density)>;

/// The incremental G(P) builder every SCF runs. G is linear in P, so
/// each call builds only the change, G(P_i) = G(P_{i-1}) + G(P_i -
/// P_{i-1}), through the wrapped builder's build_g with Screen::kDensity:
/// as the SCF converges the density change shrinks and its screen drops
/// a growing share of quartets. The first call starts from P_0 = 0.
/// Skipped quartets' contributions stay out of every later G, so G
/// drifts from the full build_g(P) by a few screen thresholds' worth
/// (~1e-9 Eh on the water4/6-31G* energy; DESIGN.md). Stateful: use one
/// per SCF run and hand it to run_rhf_with_builder through std::ref.
class IncrementalGBuilder {
 public:
  /// Wraps any builder with build_g(density, Screen, quartets*):
  /// chem::FockBuilder (any number of IncrementalGBuilders may share one
  /// concurrently) or core::DistributedFockBuilder. It must outlive this
  /// object.
  template <typename Builder>
  explicit IncrementalGBuilder(Builder& builder)
      : build_([&builder](const linalg::Matrix& d, std::uint64_t* q) {
          return builder.build_g(d, Screen::kDensity, q);
        }) {}

  linalg::Matrix operator()(const linalg::Matrix& density);

  /// Quartets evaluated by each call so far, in call order.
  const std::vector<std::uint64_t>& quartets() const { return quartets_; }

 private:
  std::function<linalg::Matrix(const linalg::Matrix&, std::uint64_t*)>
      build_;
  linalg::Matrix density_;  ///< P of the previous call
  linalg::Matrix g_;        ///< G(P) returned by the previous call
  std::vector<std::uint64_t> quartets_;
};

/// Runs RHF through an IncrementalGBuilder over a FockBuilder.
ScfResult run_rhf(const Molecule& molecule, const BasisSet& basis,
                  const ScfOptions& options = {});

/// Runs RHF with a caller-supplied two-electron G(P) builder: the one SCF
/// driver. Every SCF in the library hands it an IncrementalGBuilder.
ScfResult run_rhf_with_builder(const Molecule& molecule,
                               const BasisSet& basis, const GBuilder& g,
                               const ScfOptions& options = {});

}  // namespace emc::chem
