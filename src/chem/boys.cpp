#include "chem/boys.hpp"

#include <cmath>
#include <stdexcept>
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

/// Asymptotic large-x evaluation: F_0 = sqrt(pi/(4x)) (erf(sqrt(x)) is 1
/// to double precision there) and the upward recursion
///   F_m = ((2m-1) F_{m-1} - e^{-x}) / (2x).
/// Dropping the e^{-x} term costs 3e-3 relative at x = 35, m = 20.
void boys_asymptotic(double x, std::span<double> out) {
  out[0] = 0.5 * std::sqrt(kPi / x);
  if (out.size() == 1) return;
  const double inv2x = 1.0 / (2.0 * x);
  const double expmx = std::exp(-x);
  for (std::size_t m = 1; m < out.size(); ++m) {
    out[m] = (out[m - 1] * (2.0 * static_cast<double>(m) - 1.0) - expmx) *
             inv2x;
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

}  // namespace

void boys_reference(double x, std::span<double> out) {
  if (out.empty()) return;
  if (x < 0.0) throw std::invalid_argument("boys: x must be >= 0");
  if (x >= kSeriesMax) {
    boys_asymptotic(x, out);
    return;
  }
  const int m_max = static_cast<int>(out.size()) - 1;
  out[static_cast<std::size_t>(m_max)] = boys_series(m_max, x);
  const double expmx = std::exp(-x);
  for (int m = m_max - 1; m >= 0; --m) {
    out[static_cast<std::size_t>(m)] =
        (2.0 * x * out[static_cast<std::size_t>(m + 1)] + expmx) /
        (2.0 * static_cast<double>(m) + 1.0);
  }
}

void boys(double x, std::span<double> out) {
  if (out.empty()) return;
  if (x < 0.0) throw std::invalid_argument("boys: x must be >= 0");
  if (x >= kLargeX) {
    boys_asymptotic(x, out);
    return;
  }
  const int m_max = static_cast<int>(out.size()) - 1;
  if (m_max > kTableMaxM) {
    boys_reference(x, out);
    return;
  }

  const BoysTable& table = boys_table();
  const int i = static_cast<int>(x * kInvGridStep + 0.5);
  const double* row = &table.f[static_cast<std::size_t>(i) * kTableOrders];
  // F_m(x_i + d) = sum_j F_{m+j}(x_i) (-d)^j / j!  since F_m' = -F_{m+1}.
  const double s = kGridStep * static_cast<double>(i) - x;
  double acc = row[m_max + kTaylorTerms - 1];
  for (int j = kTaylorTerms - 1; j >= 1; --j) {
    acc = acc * s / static_cast<double>(j) + row[m_max + j - 1];
  }
  out[static_cast<std::size_t>(m_max)] = acc;
  // The downward recursion below is the only reader of e^{-x}.
  if (m_max == 0) return;

  const double expmx = std::exp(-x);
  for (int m = m_max - 1; m >= 0; --m) {
    out[static_cast<std::size_t>(m)] =
        (2.0 * x * out[static_cast<std::size_t>(m + 1)] + expmx) /
        (2.0 * static_cast<double>(m) + 1.0);
  }
}

double boys(int m, double x) {
  std::vector<double> buf(static_cast<std::size_t>(m) + 1);
  boys(x, buf);
  return buf[static_cast<std::size_t>(m)];
}

}  // namespace emc::chem
