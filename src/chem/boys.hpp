#pragma once

// Boys function F_m(x) = \int_0^1 t^{2m} exp(-x t^2) dt, the radial
// kernel of all Coulomb-type Gaussian integrals.

#include <cstddef>
#include <span>

namespace emc::chem {

/// Fills out[0..m_max] with F_0(x) .. F_m_max(x).
///
/// Fast path: F_{m_max} is read from a precomputed table (grid step 0.1
/// over [0, 35)) via a 7-term Taylor expansion around the nearest grid
/// point — exact to ~1e-14 because d/dx F_m = -F_{m+1}, so the expansion
/// only needs higher table columns — and lower orders follow by the
/// stable downward recursion F_m = (2x F_{m+1} + e^{-x}) / (2m + 1). For
/// x >= 35 the asymptotic closed form of F_0 plus the upward recursion
/// F_m = ((2m - 1) F_{m-1} - e^{-x}) / (2x) is used; it agrees with the
/// series to 1e-13 relative for m <= 20. Orders beyond the table fall
/// back to boys_reference.
void boys(double x, std::span<double> out);

/// boys() over n independent lanes at the compile-time order M: fills
/// f[m * n + i] with F_m(x[i]) for m <= M, bitwise equal to boys(x[i],
/// ...) with M + 1 outputs. The lanes on the asymptotic branch are split
/// off without a branch and the table lanes run two at a time, so their
/// latency chains overlap. Requires x[i] >= 0 (unchecked). Instantiated
/// for M = 0..8, the ERI kernel's orders.
template <int M>
void boys_lanes(std::size_t n, const double* x, double* f);

/// Single-order convenience wrapper.
double boys(int m, double x);

/// Reference evaluation (the seed implementation): ascending Kummer
/// series for F_{m_max} plus downward recursion for x below ~45, the
/// asymptotic form above. Slow but independent of the table; used to
/// build the table and as the accuracy oracle in tests.
void boys_reference(double x, std::span<double> out);

}  // namespace emc::chem
