#pragma once

// The Hermite Coulomb recursion R^0_{tuv}(p, PC), t+u+v <= L, unrolled
// at compile time into straight-line code. One implementation serves
// HermiteR (integrals.hpp), which keeps a fixed-stride table for every
// order, and the ERI kernel (eri.cpp), which keeps one compact table per
// primitive quartet of a batch. Both run the same operations in the same
// order, so their entries are bitwise equal.

#include <array>
#include <cstddef>
#include <utility>

#include "chem/molecule.hpp"

namespace emc::chem {

/// Offset of R_{tuv} in a table of stride S: (t S + u) S + v. Because the
/// stride is fixed, offset(t+tau, u+nu, v+phi) = offset(t, u, v) +
/// offset(tau, nu, phi).
template <std::size_t S>
constexpr std::size_t r_offset(int t, int u, int v) {
  return (static_cast<std::size_t>(t) * S + static_cast<std::size_t>(u)) *
             S +
         static_cast<std::size_t>(v);
}

namespace hermite_r_detail {

/// Entries R_{tuv} with t+u+v <= m.
constexpr int r_entries(int m) { return (m + 1) * (m + 2) * (m + 3) / 6; }

/// One entry of a level of the R recursion. With k the entry's index
/// along `axis` (the first of t, u, v that is nonzero):
///   r[dst] = (k - 1) r[far] + pc[axis] r[near]   if k > 1,
///   r[dst] = 0.0 + pc[axis] r[near]              if k == 1.
/// The 0.0 + turns a -0.0 product into +0.0; the tables' pinned digests
/// (test_chem_eri_pairs) hold those bits.
struct RStep {
  std::size_t dst, near, far;
  std::size_t axis;
  int k;
};

/// The steps of a level whose highest total is M (level n of order
/// n + M), in fill order: total from M down to 1, then t and u ascending.
template <int M, std::size_t S>
constexpr std::array<RStep, r_entries(M) - 1> make_level_steps() {
  std::array<RStep, r_entries(M) - 1> steps{};
  std::size_t i = 0;
  for (int total = M; total >= 1; --total) {
    for (int t = 0; t <= total; ++t) {
      for (int u = 0; u + t <= total; ++u) {
        const int v = total - t - u;
        const int axis = t > 0 ? 0 : (u > 0 ? 1 : 2);
        const int k = t > 0 ? t : (u > 0 ? u : v);
        const int dt = axis == 0, du = axis == 1, dv = axis == 2;
        steps[i++] = RStep{
            r_offset<S>(t, u, v), r_offset<S>(t - dt, u - du, v - dv),
            k > 1 ? r_offset<S>(t - 2 * dt, u - 2 * du, v - 2 * dv) : 0,
            static_cast<std::size_t>(axis), k};
      }
    }
  }
  return steps;
}

template <int M, std::size_t S>
inline constexpr auto kLevelSteps = make_level_steps<M, S>();

template <int M, std::size_t S, std::size_t I>
inline void r_step(double* r, const Vec3& pc) {
  constexpr RStep s = kLevelSteps<M, S>[I];
  if constexpr (s.k > 1) {
    r[s.dst] =
        static_cast<double>(s.k - 1) * r[s.far] + pc[s.axis] * r[s.near];
  } else {
    r[s.dst] = 0.0 + pc[s.axis] * r[s.near];
  }
}

template <int M, std::size_t S, std::size_t... I>
inline void r_level([[maybe_unused]] double* r,
                    [[maybe_unused]] const Vec3& pc,
                    std::index_sequence<I...>) {
  (r_step<M, S, I>(r, pc), ...);
}

/// Levels n = L..0 of an order-L table: level n's steps (highest total
/// M = L - n), then R^n_{000}.
template <int L, std::size_t S, std::size_t... M>
inline void r_levels(double* r, const Vec3& pc, const double* f,
                     std::index_sequence<M...>) {
  ((r_level<static_cast<int>(M), S>(
        r, pc, std::make_index_sequence<r_entries(static_cast<int>(M)) - 1>{}),
    r[0] = f[static_cast<std::size_t>(L) - M]),
   ...);
}

}  // namespace hermite_r_detail

/// Fills R^0_{tuv}(p, PC) for t+u+v <= L into `r`, laid out by
/// r_offset<S> (S > L). `f` holds F_0..F_L(p |PC|^2) and is scaled in
/// place to R^n_{000} = (-2p)^n F_n.
///
/// Level n holds R^n_{tuv} for t+u+v <= L - n; it is built for n
/// downward in the one table. An entry of total T at level n reads level
/// n+1's entries of totals T-1 and T-2, so filling T from high to low
/// overwrites each level-(n+1) entry only after its last reader. Every
/// entry read was written at the level above, so nothing is zeroed.
template <int L, std::size_t S>
inline void hermite_r_fill(double* r, double p, const Vec3& pc, double* f) {
  static_assert(L >= 0 && S > static_cast<std::size_t>(L));
  double minus2p_pow = 1.0;
  for (std::size_t n = 0; n <= L; ++n) {
    f[n] *= minus2p_pow;
    minus2p_pow *= -2.0 * p;
  }
  hermite_r_detail::r_levels<L, S>(r, pc, f,
                                   std::make_index_sequence<L + 1>{});
}

}  // namespace emc::chem
