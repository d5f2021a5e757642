#include "chem/shell_pair.hpp"

#include <cmath>
#include <stdexcept>

#include "chem/constants.hpp"
#include "chem/integrals.hpp"

namespace emc::chem {

namespace {

/// 2 pi^{5/2}, the universal ERI prefactor numerator.
constexpr double kTwoPiToFiveHalves = 34.986836655249725;

}  // namespace

ShellPairData make_shell_pair(const Shell& sa, const Shell& sb) {
  if (sa.l < 0 || sa.l > kMaxShellL || sb.l < 0 || sb.l > kMaxShellL) {
    throw std::invalid_argument(
        "make_shell_pair: shells above d (l > 2) are not supported");
  }
  ShellPairData pair;
  pair.la = sa.l;
  pair.lb = sb.l;
  pair.first_a = sa.first_function;
  pair.first_b = sb.first_function;
  pair.comps_a = cartesian_components(sa.l);
  pair.comps_b = cartesian_components(sb.l);

  pair.norm_a.reserve(pair.comps_a.size());
  for (const CartesianComponent& c : pair.comps_a) {
    pair.norm_a.push_back(sa.component_norm(c.lx, c.ly, c.lz));
  }
  pair.norm_b.reserve(pair.comps_b.size());
  for (const CartesianComponent& c : pair.comps_b) {
    pair.norm_b.push_back(sb.component_norm(c.lx, c.ly, c.lz));
  }

  const double dx = sa.center[0] - sb.center[0];
  const double dy = sa.center[1] - sb.center[1];
  const double dz = sa.center[2] - sb.center[2];
  const double ab2 = dx * dx + dy * dy + dz * dz;

  const std::size_t n_prims = sa.exponents.size() * sb.exponents.size();
  pair.prims.reserve(n_prims);
  pair.hermite_e.reserve(3 * n_prims * pair.e_size());
  for (std::size_t i = 0; i < sa.exponents.size(); ++i) {
    const double a = sa.exponents[i];
    for (std::size_t j = 0; j < sb.exponents.size(); ++j) {
      const double b = sb.exponents[j];
      const double p = a + b;
      const double coeff = sa.coefficients[i] * sb.coefficients[j];
      const Vec3 center{(a * sa.center[0] + b * sb.center[0]) / p,
                        (a * sa.center[1] + b * sb.center[1]) / p,
                        (a * sa.center[2] + b * sb.center[2]) / p};
      const double kab = std::exp(-a * b / p * ab2);
      // sqrt of the s-approximated primitive (ab|ab) = 2 pi^{5/2}
      // (cab Kab)^2 / (p^2 sqrt(2p)); see header.
      const double bound = std::abs(coeff) * kab *
                           std::sqrt(kTwoPiToFiveHalves /
                                     (p * p * std::sqrt(2.0 * p)));
      pair.max_bound = std::max(pair.max_bound, bound);
      pair.prims.push_back(PrimitivePairData{p, coeff / p, center, bound});
      for (int x = 0; x < 3; ++x) {
        const HermiteE e(sa.l, sb.l, a, b, sa.center[x], sb.center[x]);
        pair.hermite_e.insert(pair.hermite_e.end(), e.data(),
                              e.data() + pair.e_size());
      }
    }
  }
  return pair;
}

ShellPairList::ShellPairList(const BasisSet& basis) : basis_(&basis) {
  const auto& shells = basis.shells();
  const std::size_t n = shells.size();
  pairs_.reserve(n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      pairs_.push_back(make_shell_pair(shells[i], shells[j]));
    }
  }
}

}  // namespace emc::chem
