#include "chem/scf.hpp"

#include <cmath>
#include <deque>
#include <functional>
#include <stdexcept>

#include "chem/integrals.hpp"
#include "linalg/blas.hpp"
#include "linalg/eigen.hpp"
#include "linalg/factor.hpp"
#include "util/log.hpp"

namespace emc::chem {

namespace {

/// DIIS (Pulay) extrapolation over a bounded history of Fock/error pairs.
class Diis {
 public:
  explicit Diis(int capacity) : capacity_(capacity) {}

  void push(linalg::Matrix fock, linalg::Matrix error) {
    focks_.push_back(std::move(fock));
    errors_.push_back(std::move(error));
    if (static_cast<int>(focks_.size()) > capacity_) {
      focks_.pop_front();
      errors_.pop_front();
    }
  }

  bool ready() const { return focks_.size() >= 2; }

  /// Solves the DIIS system and returns the extrapolated Fock matrix.
  /// Falls back to the newest Fock if the system is singular.
  linalg::Matrix extrapolate() const {
    const std::size_t m = focks_.size();
    linalg::Matrix b(m + 1, m + 1);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        double s = 0.0;
        const auto& ei = errors_[i];
        const auto& ej = errors_[j];
        for (std::size_t r = 0; r < ei.rows(); ++r) {
          for (std::size_t c = 0; c < ei.cols(); ++c) {
            s += ei(r, c) * ej(r, c);
          }
        }
        b(i, j) = s;
      }
      b(i, m) = b(m, i) = -1.0;
    }
    b(m, m) = 0.0;

    std::vector<double> rhs(m + 1, 0.0);
    rhs.back() = -1.0;

    std::vector<double> coeff;
    try {
      coeff = linalg::solve(b, rhs);
    } catch (const std::runtime_error&) {
      return focks_.back();
    }

    linalg::Matrix f(focks_.back().rows(), focks_.back().cols());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t r = 0; r < f.rows(); ++r) {
        for (std::size_t c = 0; c < f.cols(); ++c) {
          f(r, c) += coeff[i] * focks_[i](r, c);
        }
      }
    }
    return f;
  }

 private:
  int capacity_;
  std::deque<linalg::Matrix> focks_;
  std::deque<linalg::Matrix> errors_;
};

/// Total density P = 2 C_occ C_occ^T from the lowest `n_occ` orbitals.
linalg::Matrix density_from_orbitals(const linalg::Matrix& c, int n_occ) {
  const std::size_t n = c.rows();
  linalg::Matrix p(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t s = 0; s < n; ++s) {
      double v = 0.0;
      for (int o = 0; o < n_occ; ++o) {
        v += c(r, static_cast<std::size_t>(o)) *
             c(s, static_cast<std::size_t>(o));
      }
      p(r, s) = 2.0 * v;
    }
  }
  return p;
}

double trace_product(const linalg::Matrix& a, const linalg::Matrix& b) {
  double t = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      t += a(r, c) * b(c, r);
    }
  }
  return t;
}

void check_options(const ScfOptions& options) {
  auto bad_tolerance = [](double t) { return !std::isfinite(t) || t < 0.0; };
  if (options.max_iterations < 1) {
    throw std::invalid_argument("run_rhf: max_iterations must be >= 1");
  }
  if (options.diis_size < 0) {
    throw std::invalid_argument("run_rhf: diis_size must be >= 0");
  }
  if (bad_tolerance(options.energy_tolerance) ||
      bad_tolerance(options.error_tolerance)) {
    throw std::invalid_argument(
        "run_rhf: tolerances must be finite and >= 0");
  }
}

}  // namespace

linalg::Matrix IncrementalGBuilder::operator()(const linalg::Matrix& density) {
  std::uint64_t quartets = 0;
  if (density_.rows() == 0) {
    g_ = build_(density, &quartets);
  } else {
    linalg::Matrix delta = density;
    delta -= density_;
    g_ += build_(delta, &quartets);
  }
  density_ = density;
  quartets_.push_back(quartets);
  return g_;
}

ScfResult run_rhf_with_builder(const Molecule& molecule,
                               const BasisSet& basis, const GBuilder& g,
                               const ScfOptions& options) {
  check_options(options);
  const int n_electrons = molecule.electron_count(options.net_charge);
  if (n_electrons % 2 != 0) {
    throw std::invalid_argument(
        "run_rhf: RHF requires an even electron count; got " +
        std::to_string(n_electrons));
  }
  const int n_occ = n_electrons / 2;
  if (n_occ > basis.function_count()) {
    throw std::invalid_argument("run_rhf: more occupied orbitals than basis "
                                "functions");
  }

  const linalg::Matrix s = overlap_matrix(basis);
  const linalg::Matrix t = kinetic_matrix(basis);
  linalg::Matrix h = t;
  h += nuclear_attraction_matrix(basis, molecule);
  const linalg::Matrix x = linalg::inverse_sqrt(s);

  // Core-Hamiltonian initial guess.
  auto solve_roothaan = [&](const linalg::Matrix& f) {
    const linalg::Matrix f_ortho = linalg::congruence(x, f);
    linalg::EigenResult eig = linalg::eigen_symmetric(f_ortho);
    return std::pair<linalg::Matrix, std::vector<double>>(
        linalg::matmul(x, eig.vectors), std::move(eig.values));
  };

  auto [c, eps] = solve_roothaan(h);
  linalg::Matrix p = density_from_orbitals(c, n_occ);

  Diis diis(options.diis_size);
  ScfResult result;
  result.nuclear_repulsion = molecule.nuclear_repulsion();

  double prev_energy = 0.0;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    linalg::Matrix fock = h;
    fock += g(p);

    // Electronic energy: 1/2 tr(P (H + F)).
    const double e_elec =
        0.5 * (trace_product(p, h) + trace_product(p, fock));

    // DIIS error e = F P S - S P F, expressed in the orthonormal basis.
    const linalg::Matrix fps =
        linalg::matmul(fock, linalg::matmul(p, s));
    linalg::Matrix err = fps;
    err -= fps.transposed();
    err = linalg::congruence(x, err);
    const double err_norm = err.max_abs();

    if (options.diis_size > 0) {
      diis.push(fock, std::move(err));
      if (diis.ready()) fock = diis.extrapolate();
    }

    std::tie(c, eps) = solve_roothaan(fock);
    p = density_from_orbitals(c, n_occ);

    const double delta_e = e_elec - prev_energy;
    prev_energy = e_elec;
    EMC_LOG(kDebug) << "scf iter " << iter << " E_elec=" << e_elec
                    << " dE=" << delta_e << " |err|=" << err_norm;

    result.iterations = iter;
    result.electronic_energy = e_elec;
    if (iter > 1 && std::abs(delta_e) < options.energy_tolerance &&
        err_norm < options.error_tolerance) {
      result.converged = true;
      result.fock = fock;
      break;
    }
    result.fock = fock;
  }

  result.energy = result.electronic_energy + result.nuclear_repulsion;
  result.kinetic_energy = trace_product(p, t);
  result.orbital_energies = eps;
  result.density = std::move(p);
  return result;
}

ScfResult run_rhf(const Molecule& molecule, const BasisSet& basis,
                  const ScfOptions& options) {
  const FockBuilder builder(basis);
  IncrementalGBuilder g(builder);
  return run_rhf_with_builder(molecule, basis, std::ref(g), options);
}

}  // namespace emc::chem
