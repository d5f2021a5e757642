#pragma once

// One-electron Gaussian integrals (overlap, kinetic, nuclear attraction)
// over contracted cartesian shells, via the McMurchie–Davidson scheme:
// products of Gaussians are expanded in Hermite Gaussians whose moments
// and Coulomb integrals obey simple recurrences.

#include <array>
#include <vector>

#include "chem/basis.hpp"
#include "chem/hermite_r.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace emc::chem {

/// Hermite expansion coefficients E_t^{ij} for the 1D product of
/// x^i exp(-a (x-A)^2) and x^j exp(-b (x-B)^2); `t` runs 0..i+j.
/// This is the workhorse recurrence shared by every integral type.
class HermiteE {
 public:
  /// Precomputes E_t^{ij} for all i <= imax, j <= jmax.
  HermiteE(int imax, int jmax, double a, double b, double ax, double bx);

  double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return table_[index(i, j, t)];
  }

  /// Flat table; E_t^{ij} is at flat_index(imax, jmax, i, j, t).
  const double* data() const { return table_.data(); }

  /// Position of E_t^{ij} in the table of an (imax, jmax) expansion. It
  /// depends only on the angular momenta, so index lists can be built
  /// once per shell-pair class.
  static std::size_t flat_index(int imax, int jmax, int i, int j, int t) {
    return (static_cast<std::size_t>(i) * static_cast<std::size_t>(jmax + 1) +
            static_cast<std::size_t>(j)) *
               static_cast<std::size_t>(imax + jmax + 1) +
           static_cast<std::size_t>(t);
  }

 private:
  std::size_t index(int i, int j, int t) const {
    return flat_index(imax_, jmax_, i, j, t);
  }

  int imax_, jmax_;
  std::vector<double> table_;
};

/// Hermite Coulomb integrals R^0_{tuv}(p, PC) for t+u+v <= order, up to
/// order 8, the (dd|dd) class.
///
/// The table is a fixed-stride cube held in the object, so a HermiteR on
/// the stack allocates nothing. Because the stride does not depend on
/// the order, offset(t+tau, u+nu, v+phi) = offset(t, u, v) +
/// offset(tau, nu, phi): a quartet kernel can add a ket term's offset to
/// a bra term's. Only the entries with t+u+v <= order are defined.
///
/// recompute dispatches on the order to hermite_r_fill (hermite_r.hpp),
/// the recursion unrolled at compile time into straight-line code (one
/// instance per order 0..8), which the ERI kernel also runs per primitive
/// quartet. The nuclear-attraction integrals use HermiteR; the seed ERI
/// kernel uses it with `reference_boys`.
class HermiteR {
 public:
  static constexpr int kMaxOrder = 8;
  static constexpr int kStride = kMaxOrder + 1;

  static constexpr std::size_t offset(int t, int u, int v) {
    return r_offset<kStride>(t, u, v);
  }

  /// Fixes the order without computing anything; call `recompute` before
  /// reading. Throws std::invalid_argument unless 0 <= order <= 8.
  explicit HermiteR(int order);

  /// Convenience: fix the order and evaluate in one step.
  /// `reference_boys` selects the slow series Boys evaluation (the seed
  /// kernel's path, kept for benchmarking old-vs-new and as a test
  /// oracle).
  HermiteR(int order, double p, const Vec3& pc, bool reference_boys = false);

  /// Re-evaluates the table for new (p, PC) at the fixed order.
  void recompute(double p, const Vec3& pc, bool reference_boys = false);

  double operator()(int t, int u, int v) const {
    return table_[offset(t, u, v)];
  }
  const double* data() const { return table_.data(); }

 private:
  /// recompute at order L, the recursion unrolled into straight-line code.
  template <int L>
  void fill(double p, const Vec3& pc, bool reference_boys);

  int order_;
  std::array<double, kStride * kStride * kStride> table_;
};

/// Overlap matrix S over all basis functions.
linalg::Matrix overlap_matrix(const BasisSet& basis);

/// Kinetic-energy matrix T.
linalg::Matrix kinetic_matrix(const BasisSet& basis);

/// Nuclear-attraction matrix V (sum over all nuclei of the molecule).
linalg::Matrix nuclear_attraction_matrix(const BasisSet& basis,
                                         const Molecule& molecule);

/// Core Hamiltonian H = T + V.
linalg::Matrix core_hamiltonian(const BasisSet& basis,
                                const Molecule& molecule);

/// Shell-pair block of the overlap matrix (rows = functions of `a`,
/// cols = functions of `b`). Exposed for tests and for screening.
linalg::Matrix shell_overlap(const Shell& a, const Shell& b);

/// Electric-dipole integral matrices <mu| r - origin |nu>, one per
/// cartesian direction.
std::array<linalg::Matrix, 3> dipole_matrices(const BasisSet& basis,
                                              const Vec3& origin = {});

/// Molecular dipole moment (atomic units) for a total density P:
/// mu = sum_A Z_A (R_A - O) - sum_{mu nu} P_{mu nu} <mu|r - O|nu>.
/// Origin defaults to the coordinate origin; the value is
/// origin-independent for neutral molecules.
Vec3 dipole_moment(const linalg::Matrix& density, const BasisSet& basis,
                   const Molecule& molecule, const Vec3& origin = {});

}  // namespace emc::chem
