#include "chem/boys.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chem/constants.hpp"

namespace emc::chem {

namespace {

/// Ascending series for F_m(x):
///   F_m(x) = e^{-x} / 2 * sum_{k>=0} (2m-1)!! (2x)^k / (2m+2k+1)!!
/// expressed as the equivalent Kummer series; converges fast for x < ~45.
double boys_series(int m, double x) {
  const double expmx = std::exp(-x);
  double term = 1.0 / (2.0 * static_cast<double>(m) + 1.0);
  double sum = term;
  for (int k = 1; k < 300; ++k) {
    term *= 2.0 * x / (2.0 * static_cast<double>(m + k) + 1.0);
    sum += term;
    if (term < 1e-17 * sum) break;
  }
  return expmx * sum;
}

/// Asymptotic large-x evaluation of F_0..F_{n-1}: F_0 = sqrt(pi/(4x))
/// (erf(sqrt(x)) is 1 to double precision there) and the upward
/// recursion F_m = ((2m-1) F_{m-1} - e^{-x}) / (2x), with expmx = e^{-x}
/// (unread when n == 1). Dropping the e^{-x} term costs 3e-3 relative at
/// x = 35, m = 20.
inline void boys_asymptotic(double x, double expmx, double* out,
                            std::size_t n) {
  out[0] = 0.5 * std::sqrt(kPi / x);
  if (n == 1) return;
  const double inv2x = 1.0 / (2.0 * x);
  for (std::size_t m = 1; m < n; ++m) {
    out[m] = (out[m - 1] * (2.0 * static_cast<double>(m) - 1.0) - expmx) *
             inv2x;
  }
}

/// F_m = (2x F_{m+1} + e^{-x}) / (2m + 1) for m = m_max-1 .. 0, from
/// out[m_max] and expmx = e^{-x}.
inline void boys_downward(double x, double expmx, double* out, int m_max) {
  for (int m = m_max - 1; m >= 0; --m) {
    out[static_cast<std::size_t>(m)] =
        (2.0 * x * out[static_cast<std::size_t>(m + 1)] + expmx) /
        (2.0 * static_cast<double>(m) + 1.0);
  }
}

// Table layout: kGridPoints rows at x = i * kGridStep, each holding
// orders 0..kTableOrders-1. The Taylor expansion of order m needs table
// columns m..m+kTaylorTerms-1, so the fast path serves m <= kTableMaxM.
constexpr double kLargeX = 35.0;     ///< switch to asymptotic evaluation
constexpr double kSeriesMax = 45.0;  ///< reference: series below this
constexpr int kTaylorTerms = 7;      ///< |delta| <= 0.05 -> error ~1e-14
constexpr double kGridStep = 0.1;
constexpr double kInvGridStep = 10.0;
constexpr int kGridPoints = 352;  ///< covers x in [0, 35.1)
constexpr int kTableMaxM = 20;
constexpr int kTableOrders = kTableMaxM + kTaylorTerms;

struct BoysTable {
  std::vector<double> f;

  BoysTable() : f(static_cast<std::size_t>(kGridPoints) * kTableOrders) {
    for (int i = 0; i < kGridPoints; ++i) {
      const double x = kGridStep * static_cast<double>(i);
      double* row = &f[static_cast<std::size_t>(i) * kTableOrders];
      row[kTableOrders - 1] = boys_series(kTableOrders - 1, x);
      const double expmx = std::exp(-x);
      for (int m = kTableOrders - 2; m >= 0; --m) {
        row[m] = (2.0 * x * row[m + 1] + expmx) /
                 (2.0 * static_cast<double>(m) + 1.0);
      }
    }
  }
};

const BoysTable& boys_table() {
  static const BoysTable table;
  return table;
}

/// F_{m_max}(x) for x < kLargeX and m_max <= kTableMaxM, by the Taylor
/// expansion around the nearest grid point:
/// F_m(x_i + d) = sum_j F_{m+j}(x_i) (-d)^j / j!  since F_m' = -F_{m+1}.
inline double boys_taylor(const BoysTable& table, double x, int m_max) {
  const int i = static_cast<int>(x * kInvGridStep + 0.5);
  const double* row = &table.f[static_cast<std::size_t>(i) * kTableOrders];
  const double s = kGridStep * static_cast<double>(i) - x;
  double acc = row[m_max + kTaylorTerms - 1];
  for (int j = kTaylorTerms - 1; j >= 1; --j) {
    acc = acc * s / static_cast<double>(j) + row[m_max + j - 1];
  }
  return acc;
}

}  // namespace

void boys_reference(double x, std::span<double> out) {
  if (out.empty()) return;
  if (x < 0.0) throw std::invalid_argument("boys: x must be >= 0");
  if (x >= kSeriesMax) {
    boys_asymptotic(x, out.size() > 1 ? std::exp(-x) : 0.0, out.data(),
                    out.size());
    return;
  }
  const int m_max = static_cast<int>(out.size()) - 1;
  out[static_cast<std::size_t>(m_max)] = boys_series(m_max, x);
  boys_downward(x, std::exp(-x), out.data(), m_max);
}

void boys(double x, std::span<double> out) {
  if (out.empty()) return;
  if (x < 0.0) throw std::invalid_argument("boys: x must be >= 0");
  if (x >= kLargeX) {
    boys_asymptotic(x, out.size() > 1 ? std::exp(-x) : 0.0, out.data(),
                    out.size());
    return;
  }
  const int m_max = static_cast<int>(out.size()) - 1;
  if (m_max > kTableMaxM) {
    boys_reference(x, out);
    return;
  }
  out[static_cast<std::size_t>(m_max)] = boys_taylor(boys_table(), x, m_max);
  // The downward recursion below is the only reader of e^{-x}.
  if (m_max == 0) return;
  boys_downward(x, std::exp(-x), out.data(), m_max);
}

/// One Taylor step of boys_taylor for two lanes at once: written as a
/// pair so that the compiler can issue both lanes' operations as packed
/// instructions. J is a compile-time constant, so the divisions by 1, 2
/// and 4 become the exact multiplications they are in boys_taylor too.
template <int J>
inline void taylor_step2(double& a0, double& a1, double s0, double s1,
                         const double* r0, const double* r1) {
  a0 = a0 * s0 / static_cast<double>(J) + r0[J - 1];
  a1 = a1 * s1 / static_cast<double>(J) + r1[J - 1];
}

template <int M>
void boys_lanes(std::size_t n, const double* x, double* f) {
  static_assert(M >= 0 && M + kTaylorTerms <= kTableOrders);
  const BoysTable& table = boys_table();
  double* fm = f + static_cast<std::size_t>(M) * n;
  // F_M of lanes l0 and l1 (x < kLargeX) by boys_taylor's steps, the two
  // lanes' operations side by side so that their latency chains overlap
  // and they can share packed instructions.
  auto taylor2 = [&](std::size_t l0, std::size_t l1) {
    const int i0 = static_cast<int>(x[l0] * kInvGridStep + 0.5);
    const int i1 = static_cast<int>(x[l1] * kInvGridStep + 0.5);
    const double* r0 =
        &table.f[static_cast<std::size_t>(i0) * kTableOrders + M];
    const double* r1 =
        &table.f[static_cast<std::size_t>(i1) * kTableOrders + M];
    const double s0 = kGridStep * static_cast<double>(i0) - x[l0];
    const double s1 = kGridStep * static_cast<double>(i1) - x[l1];
    double a0 = r0[kTaylorTerms - 1], a1 = r1[kTaylorTerms - 1];
    [&]<std::size_t... J>(std::index_sequence<J...>) {
      (taylor_step2<kTaylorTerms - 1 - static_cast<int>(J)>(a0, a1, s0, s1,
                                                            r0, r1),
       ...);
    }(std::make_index_sequence<kTaylorTerms - 1>{});
    fm[l0] = a0;
    fm[l1] = a1;
  };
  // Lanes are taken kBlock at a time and split, without a branch, into
  // those on the table and those on the asymptotic branch.
  constexpr std::size_t kBlock = 64;
  std::array<std::uint32_t, kBlock> near, far;
  std::array<double, kBlock> expmx;
  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t nb = std::min(kBlock, n - b0);
    std::size_t nn = 0, nf = 0;
    for (std::size_t l = b0; l < b0 + nb; ++l) {
      near[nn] = far[nf] = static_cast<std::uint32_t>(l);
      const bool large = x[l] >= kLargeX;
      nn += large ? 0 : 1;
      nf += large ? 1 : 0;
    }
    std::size_t j = 0;
    for (; j + 2 <= nn; j += 2) taylor2(near[j], near[j + 1]);
    if (j < nn) taylor2(near[j], near[j]);
    if constexpr (M > 0) {
      for (std::size_t l = 0; l < nb; ++l) expmx[l] = std::exp(-x[b0 + l]);
      for (j = 0; j < nn; ++j) {
        const std::size_t l = near[j];
        std::array<double, M + 1> out;
        out[M] = fm[l];
        boys_downward(x[l], expmx[l - b0], out.data(), M);
        for (std::size_t m = 0; m < M; ++m) f[m * n + l] = out[m];
      }
    }
    for (j = 0; j < nf; ++j) {
      const std::size_t l = far[j];
      std::array<double, M + 1> out;
      boys_asymptotic(x[l], M > 0 ? expmx[l - b0] : 0.0, out.data(), M + 1);
      for (std::size_t m = 0; m <= M; ++m) f[m * n + l] = out[m];
    }
  }
}

template void boys_lanes<0>(std::size_t, const double*, double*);
template void boys_lanes<1>(std::size_t, const double*, double*);
template void boys_lanes<2>(std::size_t, const double*, double*);
template void boys_lanes<3>(std::size_t, const double*, double*);
template void boys_lanes<4>(std::size_t, const double*, double*);
template void boys_lanes<5>(std::size_t, const double*, double*);
template void boys_lanes<6>(std::size_t, const double*, double*);
template void boys_lanes<7>(std::size_t, const double*, double*);
template void boys_lanes<8>(std::size_t, const double*, double*);

double boys(int m, double x) {
  std::vector<double> buf(static_cast<std::size_t>(m) + 1);
  boys(x, buf);
  return buf[static_cast<std::size_t>(m)];
}

}  // namespace emc::chem
