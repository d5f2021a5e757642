#include "chem/integrals.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "chem/boys.hpp"
#include "chem/constants.hpp"

namespace emc::chem {

HermiteE::HermiteE(int imax, int jmax, double a, double b, double ax,
                   double bx)
    : imax_(imax), jmax_(jmax),
      table_(static_cast<std::size_t>(imax + 1) *
                 static_cast<std::size_t>(jmax + 1) *
                 static_cast<std::size_t>(imax + jmax + 1),
             0.0) {
  const double p = a + b;
  const double mu = a * b / p;
  const double qx = ax - bx;
  const double px = (a * ax + b * bx) / p;
  const double pa = px - ax;
  const double pb = px - bx;
  const double inv2p = 1.0 / (2.0 * p);

  auto at = [this](int i, int j, int t) -> double& {
    return table_[index(i, j, t)];
  };
  auto get = [this](int i, int j, int t) -> double {
    if (t < 0 || t > i + j) return 0.0;
    return table_[index(i, j, t)];
  };

  at(0, 0, 0) = std::exp(-mu * qx * qx);

  // Raise i along the j = 0 column.
  for (int i = 0; i < imax_; ++i) {
    for (int t = 0; t <= i + 1; ++t) {
      at(i + 1, 0, t) = inv2p * get(i, 0, t - 1) + pa * get(i, 0, t) +
                        static_cast<double>(t + 1) * get(i, 0, t + 1);
    }
  }
  // Raise j for every i.
  for (int i = 0; i <= imax_; ++i) {
    for (int j = 0; j < jmax_; ++j) {
      for (int t = 0; t <= i + j + 1; ++t) {
        at(i, j + 1, t) = inv2p * get(i, j, t - 1) + pb * get(i, j, t) +
                          static_cast<double>(t + 1) * get(i, j, t + 1);
      }
    }
  }
}

HermiteR::HermiteR(int order) : order_(order) {
  if (order < 0 || order > kMaxOrder) {
    throw std::invalid_argument(
        "HermiteR: order must be in [0, 8] (shells up to d)");
  }
}

HermiteR::HermiteR(int order, double p, const Vec3& pc, bool reference_boys)
    : HermiteR(order) {
  recompute(p, pc, reference_boys);
}

template <int L>
void HermiteR::fill(double p, const Vec3& pc, bool reference_boys) {
  const double r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
  std::array<double, L + 1> f;
  if (reference_boys) {
    boys_reference(p * r2, f);
  } else {
    boys(p * r2, f);
  }
  hermite_r_fill<L, kStride>(table_.data(), p, pc, f.data());
}

void HermiteR::recompute(double p, const Vec3& pc, bool reference_boys) {
  switch (order_) {
    case 0: return fill<0>(p, pc, reference_boys);
    case 1: return fill<1>(p, pc, reference_boys);
    case 2: return fill<2>(p, pc, reference_boys);
    case 3: return fill<3>(p, pc, reference_boys);
    case 4: return fill<4>(p, pc, reference_boys);
    case 5: return fill<5>(p, pc, reference_boys);
    case 6: return fill<6>(p, pc, reference_boys);
    case 7: return fill<7>(p, pc, reference_boys);
    default: return fill<8>(p, pc, reference_boys);
  }
}

namespace {

/// Iterates a shell pair's primitive products, invoking
/// fn(ca*cb, a, b) for each primitive pair with combined coefficient.
template <typename Fn>
void for_each_primitive_pair(const Shell& sa, const Shell& sb, Fn&& fn) {
  for (std::size_t pa = 0; pa < sa.exponents.size(); ++pa) {
    for (std::size_t pb = 0; pb < sb.exponents.size(); ++pb) {
      fn(sa.coefficients[pa] * sb.coefficients[pb], sa.exponents[pa],
         sb.exponents[pb]);
    }
  }
}

/// Generic one-electron shell-pair block driver: `prim` computes the
/// (component-a, component-b) primitive integral given the three
/// per-dimension HermiteE tables and the exponents.
template <typename PrimFn>
linalg::Matrix one_electron_block(const Shell& sa, const Shell& sb,
                                  int extra_order, PrimFn&& prim) {
  const auto comps_a = cartesian_components(sa.l);
  const auto comps_b = cartesian_components(sb.l);
  linalg::Matrix block(comps_a.size(), comps_b.size());

  for_each_primitive_pair(sa, sb, [&](double cc, double a, double b) {
    const HermiteE ex(sa.l, sb.l + extra_order, a, b, sa.center[0],
                      sb.center[0]);
    const HermiteE ey(sa.l, sb.l + extra_order, a, b, sa.center[1],
                      sb.center[1]);
    const HermiteE ez(sa.l, sb.l + extra_order, a, b, sa.center[2],
                      sb.center[2]);
    for (std::size_t ia = 0; ia < comps_a.size(); ++ia) {
      for (std::size_t ib = 0; ib < comps_b.size(); ++ib) {
        block(ia, ib) += cc * prim(ex, ey, ez, a, b, comps_a[ia], comps_b[ib]);
      }
    }
  });

  // Apply per-component contracted normalization.
  for (std::size_t ia = 0; ia < comps_a.size(); ++ia) {
    const double na =
        sa.component_norm(comps_a[ia].lx, comps_a[ia].ly, comps_a[ia].lz);
    for (std::size_t ib = 0; ib < comps_b.size(); ++ib) {
      const double nb =
          sb.component_norm(comps_b[ib].lx, comps_b[ib].ly, comps_b[ib].lz);
      block(ia, ib) *= na * nb;
    }
  }
  return block;
}

/// Assembles a full matrix from a shell-pair block functor.
template <typename BlockFn>
linalg::Matrix assemble(const BasisSet& basis, BlockFn&& block_fn) {
  linalg::Matrix m(static_cast<std::size_t>(basis.function_count()),
                   static_cast<std::size_t>(basis.function_count()));
  const auto& shells = basis.shells();
  for (std::size_t i = 0; i < shells.size(); ++i) {
    for (std::size_t j = i; j < shells.size(); ++j) {
      const linalg::Matrix block = block_fn(shells[i], shells[j]);
      const auto r0 = static_cast<std::size_t>(shells[i].first_function);
      const auto c0 = static_cast<std::size_t>(shells[j].first_function);
      for (std::size_t r = 0; r < block.rows(); ++r) {
        for (std::size_t c = 0; c < block.cols(); ++c) {
          m(r0 + r, c0 + c) = block(r, c);
          m(c0 + c, r0 + r) = block(r, c);
        }
      }
    }
  }
  return m;
}

/// 1D overlap factor including sqrt(pi/p).
double s1d(const HermiteE& e, int i, int j, double p) {
  return e(i, j, 0) * std::sqrt(kPi / p);
}

}  // namespace

linalg::Matrix shell_overlap(const Shell& sa, const Shell& sb) {
  return one_electron_block(
      sa, sb, /*extra_order=*/0,
      [](const HermiteE& ex, const HermiteE& ey, const HermiteE& ez, double a,
         double b, const CartesianComponent& ca,
         const CartesianComponent& cb) {
        const double p = a + b;
        return s1d(ex, ca.lx, cb.lx, p) * s1d(ey, ca.ly, cb.ly, p) *
               s1d(ez, ca.lz, cb.lz, p);
      });
}

linalg::Matrix overlap_matrix(const BasisSet& basis) {
  return assemble(basis, [](const Shell& a, const Shell& b) {
    return shell_overlap(a, b);
  });
}

linalg::Matrix kinetic_matrix(const BasisSet& basis) {
  auto block = [](const Shell& sa, const Shell& sb) {
    // Need E up to j+2 for the shifted overlaps in the 1D kinetic form.
    return one_electron_block(
        sa, sb, /*extra_order=*/2,
        [](const HermiteE& ex, const HermiteE& ey, const HermiteE& ez,
           double a, double b, const CartesianComponent& ca,
           const CartesianComponent& cb) {
          const double p = a + b;
          auto t1d = [&](const HermiteE& e, int i, int j) {
            // T_ij = -2 b^2 S_{i,j+2} + b(2j+1) S_ij - j(j-1)/2 S_{i,j-2}
            double t = -2.0 * b * b * s1d(e, i, j + 2, p) +
                       b * (2.0 * static_cast<double>(j) + 1.0) *
                           s1d(e, i, j, p);
            if (j >= 2) {
              t -= 0.5 * static_cast<double>(j) *
                   static_cast<double>(j - 1) * s1d(e, i, j - 2, p);
            }
            return t;
          };
          const double sx = s1d(ex, ca.lx, cb.lx, p);
          const double sy = s1d(ey, ca.ly, cb.ly, p);
          const double sz = s1d(ez, ca.lz, cb.lz, p);
          return t1d(ex, ca.lx, cb.lx) * sy * sz +
                 sx * t1d(ey, ca.ly, cb.ly) * sz +
                 sx * sy * t1d(ez, ca.lz, cb.lz);
        });
  };
  return assemble(basis, block);
}

linalg::Matrix nuclear_attraction_matrix(const BasisSet& basis,
                                         const Molecule& molecule) {
  auto block = [&molecule](const Shell& sa, const Shell& sb) {
    const auto comps_a = cartesian_components(sa.l);
    const auto comps_b = cartesian_components(sb.l);
    linalg::Matrix out(comps_a.size(), comps_b.size());

    for_each_primitive_pair(sa, sb, [&](double cc, double a, double b) {
      const double p = a + b;
      const Vec3 pcenter{(a * sa.center[0] + b * sb.center[0]) / p,
                         (a * sa.center[1] + b * sb.center[1]) / p,
                         (a * sa.center[2] + b * sb.center[2]) / p};
      const HermiteE ex(sa.l, sb.l, a, b, sa.center[0], sb.center[0]);
      const HermiteE ey(sa.l, sb.l, a, b, sa.center[1], sb.center[1]);
      const HermiteE ez(sa.l, sb.l, a, b, sa.center[2], sb.center[2]);
      const double pref = 2.0 * kPi / p;

      for (const Atom& atom : molecule.atoms()) {
        const Vec3 pc{pcenter[0] - atom.xyz[0], pcenter[1] - atom.xyz[1],
                      pcenter[2] - atom.xyz[2]};
        const HermiteR r(sa.l + sb.l, p, pc);
        for (std::size_t ia = 0; ia < comps_a.size(); ++ia) {
          for (std::size_t ib = 0; ib < comps_b.size(); ++ib) {
            const auto& A = comps_a[ia];
            const auto& B = comps_b[ib];
            double sum = 0.0;
            for (int t = 0; t <= A.lx + B.lx; ++t) {
              const double et = ex(A.lx, B.lx, t);
              if (et == 0.0) continue;
              for (int u = 0; u <= A.ly + B.ly; ++u) {
                const double eu = ey(A.ly, B.ly, u);
                if (eu == 0.0) continue;
                for (int v = 0; v <= A.lz + B.lz; ++v) {
                  sum += et * eu * ez(A.lz, B.lz, v) * r(t, u, v);
                }
              }
            }
            out(ia, ib) -= cc * pref * static_cast<double>(atom.z) * sum;
          }
        }
      }
    });

    for (std::size_t ia = 0; ia < comps_a.size(); ++ia) {
      const double na =
          sa.component_norm(comps_a[ia].lx, comps_a[ia].ly, comps_a[ia].lz);
      for (std::size_t ib = 0; ib < comps_b.size(); ++ib) {
        const double nb = sb.component_norm(comps_b[ib].lx, comps_b[ib].ly,
                                            comps_b[ib].lz);
        out(ia, ib) *= na * nb;
      }
    }
    return out;
  };
  return assemble(basis, block);
}

std::array<linalg::Matrix, 3> dipole_matrices(const BasisSet& basis,
                                              const Vec3& origin) {
  std::array<linalg::Matrix, 3> out;
  for (int dim = 0; dim < 3; ++dim) {
    auto block = [dim, &origin](const Shell& sa, const Shell& sb) {
      return one_electron_block(
          sa, sb, /*extra_order=*/0,
          [dim, &origin, &sa, &sb](const HermiteE& ex, const HermiteE& ey,
                                   const HermiteE& ez, double a, double b,
                                   const CartesianComponent& ca,
                                   const CartesianComponent& cb) {
            const double p = a + b;
            // <a| x |b> = (E_1 + Px E_0) sqrt(pi/p) in the moment
            // dimension, plain overlaps in the others; shift by origin.
            const HermiteE* es[3] = {&ex, &ey, &ez};
            const int la[3] = {ca.lx, ca.ly, ca.lz};
            const int lb[3] = {cb.lx, cb.ly, cb.lz};
            double value = 1.0;
            for (int d = 0; d < 3; ++d) {
              const HermiteE& e = *es[d];
              if (d == dim) {
                const double pd =
                    (a * sa.center[static_cast<std::size_t>(d)] +
                     b * sb.center[static_cast<std::size_t>(d)]) /
                    p;
                value *= (e(la[d], lb[d], 1) +
                          (pd - origin[static_cast<std::size_t>(d)]) *
                              e(la[d], lb[d], 0)) *
                         std::sqrt(kPi / p);
              } else {
                value *= s1d(e, la[d], lb[d], p);
              }
            }
            return value;
          });
    };
    out[static_cast<std::size_t>(dim)] = assemble(basis, block);
  }
  return out;
}

Vec3 dipole_moment(const linalg::Matrix& density, const BasisSet& basis,
                   const Molecule& molecule, const Vec3& origin) {
  const auto moments = dipole_matrices(basis, origin);
  Vec3 mu{};
  for (int d = 0; d < 3; ++d) {
    const auto du = static_cast<std::size_t>(d);
    double nuclear = 0.0;
    for (const Atom& atom : molecule.atoms()) {
      nuclear += static_cast<double>(atom.z) * (atom.xyz[du] - origin[du]);
    }
    double electronic = 0.0;
    const linalg::Matrix& m = moments[du];
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        electronic += density(r, c) * m(r, c);
      }
    }
    mu[du] = nuclear - electronic;
  }
  return mu;
}

linalg::Matrix core_hamiltonian(const BasisSet& basis,
                                const Molecule& molecule) {
  linalg::Matrix h = kinetic_matrix(basis);
  h += nuclear_attraction_matrix(basis, molecule);
  return h;
}

}  // namespace emc::chem
