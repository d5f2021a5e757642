#include "chem/eri.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "chem/boys.hpp"
#include "chem/constants.hpp"
#include "chem/hermite_r.hpp"
#include "chem/integrals.hpp"

namespace emc::chem {

double EriBlock::max_abs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::abs(x));
  return m;
}

namespace {

/// 2 pi^{5/2}, the universal ERI prefactor numerator.
constexpr double kTwoPiToFiveHalves = 34.986836655249725;

/// One Hermite term E^{ab}_{tuv} = E^{ax bx}_t E^{ay by}_u E^{az bz}_v of a
/// cartesian component pair (a, b).
struct HermiteTerm {
  std::uint16_t ex, ey, ez;  ///< flat indices into the pair's E tables
  std::uint8_t t, u, v;      ///< the ket side's R offset is r_offset(t, u, v)
  std::uint16_t col;         ///< the bra side's W column of (t, u, v)
  double sign;               ///< (-1)^{t+u+v}, the ket side's parity
};

/// Hermite triples (t, u, v) with t+u+v <= l.
constexpr std::size_t hermite_count(int l) {
  return static_cast<std::size_t>((l + 1) * (l + 2) * (l + 3) / 6);
}

/// W columns of the largest bra class, (dd|: t+u+v <= 4.
constexpr std::size_t kMaxCols = hermite_count(2 * kMaxShellL);

/// The W columns of a bra class of total angular momentum lab: column i
/// holds R at offset col_r[i] of a stride-S table, one per (t, u, v) with
/// t+u+v <= lab, t-major. Entries past hermite_count(lab) are unused.
template <std::size_t S>
constexpr std::array<std::uint16_t, kMaxCols> make_col_r(int lab) {
  std::array<std::uint16_t, kMaxCols> col_r{};
  std::size_t i = 0;
  for (int t = 0; t <= lab; ++t) {
    for (int u = 0; t + u <= lab; ++u) {
      for (int v = 0; t + u + v <= lab; ++v) {
        col_r[i++] = static_cast<std::uint16_t>(r_offset<S>(t, u, v));
      }
    }
  }
  return col_r;
}

template <int LAB, std::size_t S>
inline constexpr auto kColR = make_col_r<S>(LAB);

/// The Hermite terms of every component pair of one shell-pair class
/// (la, lb). Only index lists: the E values come from each primitive
/// pair's tables.
struct PairClassTerms {
  std::vector<HermiteTerm> terms;    ///< grouped by component pair a*nb + b
  std::vector<std::uint32_t> first;  ///< pair ab owns [first[ab], first[ab+1])
};

PairClassTerms make_class_terms(int la, int lb) {
  PairClassTerms pc;
  const int lab = la + lb;
  // The W column of each (t, u, v), by its offset in a table of any
  // stride above lab.
  constexpr std::size_t kS = 2 * kMaxShellL + 1;
  std::vector<int> col_of(r_offset<kS>(lab, lab, lab) + 1, -1);
  const auto col_r = make_col_r<kS>(lab);
  for (std::size_t i = 0; i < hermite_count(lab); ++i) {
    col_of[col_r[i]] = static_cast<int>(i);
  }
  auto e = [la, lb](int i, int j, int t) {
    return static_cast<std::uint16_t>(HermiteE::flat_index(la, lb, i, j, t));
  };
  for (const CartesianComponent& a : cartesian_components(la)) {
    for (const CartesianComponent& b : cartesian_components(lb)) {
      pc.first.push_back(static_cast<std::uint32_t>(pc.terms.size()));
      for (int t = 0; t <= a.lx + b.lx; ++t) {
        for (int u = 0; u <= a.ly + b.ly; ++u) {
          for (int v = 0; v <= a.lz + b.lz; ++v) {
            pc.terms.push_back(HermiteTerm{
                e(a.lx, b.lx, t), e(a.ly, b.ly, u), e(a.lz, b.lz, v),
                static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(u),
                static_cast<std::uint8_t>(v),
                static_cast<std::uint16_t>(col_of[r_offset<kS>(t, u, v)]),
                (t + u + v) % 2 == 0 ? 1.0 : -1.0});
          }
        }
      }
    }
  }
  pc.first.push_back(static_cast<std::uint32_t>(pc.terms.size()));
  return pc;
}

/// The term lists of every class (la, lb), at la * 3 + lb. Process-wide,
/// immutable after its thread-safe first use.
const std::array<PairClassTerms, 9>& class_terms() {
  static const std::array<PairClassTerms, 9> table = [] {
    std::array<PairClassTerms, 9> t;
    for (int a = 0; a <= kMaxShellL; ++a) {
      for (int b = 0; b <= kMaxShellL; ++b) {
        t[static_cast<std::size_t>(a * 3 + b)] = make_class_terms(a, b);
      }
    }
    return t;
  }();
  return table;
}

/// Most component pairs of a ket class of total momentum lcd: (pp) at 2,
/// (pd) at 3, (dd) at 4.
constexpr std::size_t max_ket_components(int lcd) {
  auto cartesians = [](int l) { return (l + 1) * (l + 2) / 2; };
  int m = 0;
  for (int lc = 0; lc <= kMaxShellL; ++lc) {
    const int ld = lcd - lc;
    if (ld < 0 || ld > kMaxShellL) continue;
    m = std::max(m, cartesians(lc) * cartesians(ld));
  }
  return static_cast<std::size_t>(m);
}

/// Stack bytes one kernel call may use for W and its lanes (boys_lanes
/// adds 1 KiB in its own frame).
constexpr std::size_t kKernelScratchBytes = 16 * 1024;
/// Lanes of the low-order kernels, whose lanes are small, and the ket
/// primitives screened at a time.
constexpr std::size_t kMaxLanes = 64;
/// A kernel call takes at most kEriWindowKets ket pairs; a lane's ket
/// pair index fits the low kKetBits bits of its group.
constexpr int kKetBits = 8;
constexpr std::uint32_t kKetMask = (1u << kKetBits) - 1;
static_assert(kEriWindowKets <= kKetMask + 1);

/// The per-call scratch of the (LAB|LCD) kernel: W for one ket pair and
/// the lanes of one batch, one array per quantity. A lane is one
/// surviving primitive quartet; its R table has stride S = LAB+LCD+1,
/// the smallest that holds the order. At order 0 the table is F_0 itself
/// and is not kept.
template <int LAB, int LCD>
struct KernelScratch {
  static constexpr int kOrder = LAB + LCD;
  static constexpr std::size_t kNf = kOrder + 1;  ///< Boys values
  static constexpr std::size_t kStride = kOrder + 1;
  static constexpr std::size_t kNr =
      kOrder == 0 ? 0 : kStride * kStride * kStride;
  static constexpr std::size_t kNcol = hermite_count(LAB);
  static constexpr std::size_t kNw = max_ket_components(LCD) * kNcol;
  /// Six doubles (pq, alpha, x, pref) plus f and r, the E pointer and
  /// the group.
  static constexpr std::size_t kLaneBytes =
      sizeof(double) * (6 + kNf + kNr) + sizeof(const double*) +
      sizeof(std::uint32_t);
  static constexpr std::size_t kLanes = std::min(
      kMaxLanes, (kKernelScratchBytes - kNw * sizeof(double) -
                  kMaxLanes * sizeof(std::uint32_t)) /
                     kLaneBytes);
  static_assert(kLanes >= 1);

  std::array<double, kNw> w;
  std::array<double, kLanes> pqx, pqy, pqz;
  std::array<double, kLanes> alpha;  ///< p q / (p + q)
  std::array<double, kLanes> x;      ///< Boys argument alpha |PQ|^2
  std::array<double, kLanes> pref;   ///< 2 pi^{5/2} c_cd / (q sqrt(p+q))
  std::array<double, kLanes * kNf> f;  ///< F_m of lane i at m * n + i
  std::array<double, kLanes * kNr> r;
  std::array<const double*, kLanes> e;  ///< the ket primitive's E tables
  std::array<std::uint32_t, kLanes> group;  ///< (bra primitive, ket pair)
  std::array<std::uint32_t, kMaxLanes> live;  ///< unpruned ket primitives
};

/// The kernel for bra total momentum LAB = la+lb over ket pairs of total
/// lc+ld = LCD. The surviving primitive quartets are gathered into lanes
/// in the scalar kernel's order (bra primitive, ket pair, ket
/// primitive), and each batch of lanes runs the Boys evaluation, the R
/// setup and the W update as separate loops. A lane's work is the
/// scalar kernel's, in the same order: the W of a (bra primitive, ket
/// pair) group is zeroed at its first lane, accumulates its lanes in
/// primitive order, and is contracted into the ket pair's block after
/// its last, so every block's bits are those of a one-ket call. Returns
/// the number of batches run.
template <int LAB, int LCD>
std::size_t eri_kernel(const ShellPairData& bra,
                       std::span<const EriKet> kets) {
  using Scratch = KernelScratch<LAB, LCD>;
  static_assert(sizeof(Scratch) <= kKernelScratchBytes);
  constexpr int kL = LAB + LCD;
  constexpr std::size_t kS = Scratch::kStride;
  constexpr std::size_t ncol = Scratch::kNcol;
  constexpr std::size_t lanes = Scratch::kLanes;
  constexpr const auto& col_r = kColR<LAB, kS>;
  const auto& class_terms_of = class_terms();
  auto terms_of = [&class_terms_of](const ShellPairData& pair) {
    return &class_terms_of[static_cast<std::size_t>(pair.la * 3 + pair.lb)];
  };
  const PairClassTerms& bt = *terms_of(bra);
  const std::size_t nab = bt.first.size() - 1;
  const std::size_t bra_ne = bra.e_size();
  auto ket_size = [](const ShellPairData& ket) {
    return static_cast<std::size_t>(ket.na() * ket.nb());
  };
  for (const EriKet& k : kets) {
    std::fill(k.out, k.out + nab * ket_size(*k.pair), 0.0);
  }

  Scratch s;
  // A lane's group is its (bra primitive ib, ket pair k), packed as
  // ib << kKetBits | k. Lanes run in (ib, k, ket primitive) order, the
  // scalar kernel's, and a batch may span bra primitives.
  const auto nkets = static_cast<std::uint32_t>(kets.size());
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  // The group whose W is accumulating, and its ket pair's shape.
  std::uint32_t open = kNone;
  const PairClassTerms* kt = nullptr;
  std::size_t ncd = 0, ket_ne = 0;

  // (ab|cd) += E^ab_{tuv} W[cd][tuv] for the open group, once per bra
  // component pair.
  auto contract = [&] {
    const std::size_t ib = open >> kKetBits;
    const PrimitivePairData& bp = bra.prims[ib];
    const double* ex = bra.prim_e(ib);
    const double* ey = ex + bra_ne;
    const double* ez = ey + bra_ne;
    double* out = kets[open & kKetMask].out;
    for (std::size_t ab = 0; ab < nab; ++ab) {
      double* o = out + ab * ncd;
      for (std::uint32_t i = bt.first[ab]; i < bt.first[ab + 1]; ++i) {
        const HermiteTerm& term = bt.terms[i];
        const double e =
            bp.coeff_over_p * ex[term.ex] * ey[term.ey] * ez[term.ez];
        if (e == 0.0) continue;
        const double* wc = s.w.data() + term.col;
        for (std::size_t cd = 0; cd < ncd; ++cd) o[cd] += e * wc[cd * ncol];
      }
    }
  };

  std::size_t batches = 0;
  auto run = [&](std::size_t n) {
    ++batches;
    boys_lanes<kL>(n, s.x.data(), s.f.data());
    if constexpr (kL > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        std::array<double, kL + 1> f;
        for (std::size_t m = 0; m <= kL; ++m) f[m] = s.f[m * n + i];
        hermite_r_fill<kL, kS>(s.r.data() + i * Scratch::kNr, s.alpha[i],
                               Vec3{s.pqx[i], s.pqy[i], s.pqz[i]}, f.data());
      }
    }
    // The lanes of one group are consecutive; the first lane of the next
    // group closes the previous one.
    for (std::size_t i = 0; i < n;) {
      if (s.group[i] != open) {
        if (open != kNone) contract();
        open = s.group[i];
        const ShellPairData& ket = *kets[open & kKetMask].pair;
        kt = terms_of(ket);
        ncd = ket_size(ket);
        ket_ne = ket.e_size();
        std::fill(s.w.begin(), s.w.begin() + ncd * ncol, 0.0);
      }
      const std::size_t begin = i;
      while (i < n && s.group[i] == open) ++i;
      // W[cd][col] += sign E^cd_{tau nu phi} R(t+tau, u+nu, v+phi): the
      // ket term's R offset plus each bra column's offset. Each W entry
      // takes its lanes' terms in lane order, then term order, as in the
      // scalar kernel; the running sums stay in registers.
      for (std::size_t cd = 0; cd < ncd; ++cd) {
        std::array<double, ncol> acc;
        std::copy_n(s.w.data() + cd * ncol, ncol, acc.data());
        const HermiteTerm* term_begin = kt->terms.data() + kt->first[cd];
        const HermiteTerm* term_end = kt->terms.data() + kt->first[cd + 1];
        for (std::size_t l = begin; l < i; ++l) {
          const double pref = s.pref[l];
          // At order 0, R_000 = (-2 alpha)^0 F_0 = F_0.
          const double* r =
              kL == 0 ? s.f.data() + l : s.r.data() + l * Scratch::kNr;
          const double* ex = s.e[l];
          const double* ey = ex + ket_ne;
          const double* ez = ey + ket_ne;
          for (const HermiteTerm* term = term_begin; term != term_end;
               ++term) {
            const double c = pref * term->sign * ex[term->ex] *
                             ey[term->ey] * ez[term->ez];
            if (c == 0.0) continue;
            const double* rt = r + r_offset<kS>(term->t, term->u, term->v);
            for (std::size_t col = 0; col < ncol; ++col) {
              acc[col] += c * rt[col_r[col]];
            }
          }
        }
        std::copy_n(acc.data(), ncol, s.w.data() + cd * ncol);
      }
    }
  };

  std::size_t n = 0;
  for (std::size_t ib = 0; ib < bra.prims.size(); ++ib) {
    const PrimitivePairData& bp = bra.prims[ib];
    for (std::uint32_t k = 0; k < nkets; ++k) {
      const ShellPairData& ket = *kets[k].pair;
      const std::size_t e_stride = 3 * ket.e_size();
      // The ket primitives that survive the pruning, listed kMaxLanes
      // candidates at a time without a branch on the bound.
      for (std::size_t i0 = 0; i0 < ket.prims.size(); i0 += kMaxLanes) {
        const std::size_t i1 = std::min(ket.prims.size(), i0 + kMaxLanes);
        std::size_t nlive = 0;
        for (std::size_t ik = i0; ik < i1; ++ik) {
          s.live[nlive] = static_cast<std::uint32_t>(ik);
          nlive +=
              bp.bound * ket.prims[ik].bound >= kPrimQuartetPrune ? 1 : 0;
        }
        for (std::size_t jl = 0; jl < nlive; ++jl) {
          const std::size_t ik = s.live[jl];
          const PrimitivePairData& kp = ket.prims[ik];
          const double p = bp.p;
          const double q = kp.p;
          const Vec3 pq{bp.center[0] - kp.center[0],
                        bp.center[1] - kp.center[1],
                        bp.center[2] - kp.center[2]};
          const double alpha = p * q / (p + q);
          s.x[n] = alpha * (pq[0] * pq[0] + pq[1] * pq[1] + pq[2] * pq[2]);
          s.pref[n] =
              kTwoPiToFiveHalves * kp.coeff_over_p / std::sqrt(p + q);
          if constexpr (kL > 0) {
            s.alpha[n] = alpha;
            s.pqx[n] = pq[0];
            s.pqy[n] = pq[1];
            s.pqz[n] = pq[2];
          }
          s.e[n] = ket.hermite_e.data() + ik * e_stride;
          s.group[n] = static_cast<std::uint32_t>(ib) << kKetBits | k;
          if (++n == lanes) {
            run(n);
            n = 0;
          }
        }
      }
    }
  }
  if (n > 0) run(n);
  if (open != kNone) contract();

  // Per-component contracted normalization.
  for (const EriKet& k : kets) {
    const ShellPairData& ket = *k.pair;
    const std::size_t ncd = ket_size(ket);
    const std::size_t nc = ket.norm_a.size(), nd = ket.norm_b.size();
    for (std::size_t ia = 0; ia < bra.norm_a.size(); ++ia) {
      for (std::size_t ib = 0; ib < bra.norm_b.size(); ++ib) {
        const double nab_norm = bra.norm_a[ia] * bra.norm_b[ib];
        double* o = k.out + (ia * bra.norm_b.size() + ib) * ncd;
        for (std::size_t ic = 0; ic < nc; ++ic) {
          for (std::size_t id = 0; id < nd; ++id) {
            o[ic * nd + id] *= nab_norm * ket.norm_a[ic] * ket.norm_b[id];
          }
        }
      }
    }
  }
  return batches;
}

using Kernel = std::size_t (*)(const ShellPairData&, std::span<const EriKet>);

/// Total momenta 0..4 per side: one kernel per (la+lb, lc+ld).
constexpr int kTotals = 2 * kMaxShellL + 1;

template <std::size_t... I>
constexpr std::array<Kernel, sizeof...(I)> make_kernels(
    std::index_sequence<I...>) {
  return {&eri_kernel<static_cast<int>(I) / kTotals,
                      static_cast<int>(I) % kTotals>...};
}

constexpr auto kKernels =
    make_kernels(std::make_index_sequence<kTotals * kTotals>{});

std::size_t kernel_index(int lab, int lcd) {
  return static_cast<std::size_t>(lab * kTotals + lcd);
}

}  // namespace

std::size_t eri_shell_quartets(const ShellPairData& bra,
                               std::span<const EriKet> kets) {
  unsigned classes = 0;
  for (const EriKet& k : kets) classes |= 1u << (k.pair->la + k.pair->lb);
  // Each ket class present runs through its kernel, up to
  // kEriWindowKets ket pairs at a time, in span order.
  std::array<EriKet, kEriWindowKets> group;
  std::size_t batches = 0;
  for (int lcd = 0; lcd < kTotals; ++lcd) {
    if (((classes >> lcd) & 1u) == 0) continue;
    const Kernel kernel = kKernels[kernel_index(bra.la + bra.lb, lcd)];
    std::size_t n = 0;
    for (const EriKet& k : kets) {
      if (k.pair->la + k.pair->lb != lcd) continue;
      group[n++] = k;
      if (n == group.size()) {
        batches += kernel(bra, {group.data(), n});
        n = 0;
      }
    }
    if (n > 0) batches += kernel(bra, {group.data(), n});
  }
  return batches;
}

void eri_shell_quartet(const ShellPairData& bra, const ShellPairData& ket,
                       double* out) {
  const EriKet one{&ket, out};
  kKernels[kernel_index(bra.la + bra.lb, ket.la + ket.lb)](bra, {&one, 1});
}

std::size_t surviving_prim_quartets(const ShellPairData& bra,
                                    const ShellPairData& ket) {
  std::size_t n = 0;
  for (const PrimitivePairData& bp : bra.prims) {
    for (const PrimitivePairData& kp : ket.prims) {
      if (bp.bound * kp.bound >= kPrimQuartetPrune) ++n;
    }
  }
  return n;
}

EriBlock eri_shell_quartet(const ShellPairData& bra,
                           const ShellPairData& ket) {
  EriBlock block(bra.na(), bra.nb(), ket.na(), ket.nb());
  eri_shell_quartet(bra, ket, block.data());
  return block;
}

EriBlock eri_shell_quartet(const Shell& sa, const Shell& sb, const Shell& sc,
                           const Shell& sd) {
  return eri_shell_quartet(make_shell_pair(sa, sb), make_shell_pair(sc, sd));
}

EriBlock eri_shell_quartet_direct(const Shell& sa, const Shell& sb,
                                  const Shell& sc, const Shell& sd) {
  const auto ca = cartesian_components(sa.l);
  const auto cb = cartesian_components(sb.l);
  const auto cc_ = cartesian_components(sc.l);
  const auto cd = cartesian_components(sd.l);
  EriBlock block(static_cast<int>(ca.size()), static_cast<int>(cb.size()),
                 static_cast<int>(cc_.size()), static_cast<int>(cd.size()));

  const int lab = sa.l + sb.l;
  const int lcd = sc.l + sd.l;

  for (std::size_t p1 = 0; p1 < sa.exponents.size(); ++p1) {
    const double a = sa.exponents[p1];
    for (std::size_t p2 = 0; p2 < sb.exponents.size(); ++p2) {
      const double b = sb.exponents[p2];
      const double p = a + b;
      const double cab = sa.coefficients[p1] * sb.coefficients[p2];
      const Vec3 pctr{(a * sa.center[0] + b * sb.center[0]) / p,
                      (a * sa.center[1] + b * sb.center[1]) / p,
                      (a * sa.center[2] + b * sb.center[2]) / p};
      const HermiteE e1x(sa.l, sb.l, a, b, sa.center[0], sb.center[0]);
      const HermiteE e1y(sa.l, sb.l, a, b, sa.center[1], sb.center[1]);
      const HermiteE e1z(sa.l, sb.l, a, b, sa.center[2], sb.center[2]);

      for (std::size_t p3 = 0; p3 < sc.exponents.size(); ++p3) {
        const double c = sc.exponents[p3];
        for (std::size_t p4 = 0; p4 < sd.exponents.size(); ++p4) {
          const double d = sd.exponents[p4];
          const double q = c + d;
          const double ccd = sc.coefficients[p3] * sd.coefficients[p4];
          const Vec3 qctr{(c * sc.center[0] + d * sd.center[0]) / q,
                          (c * sc.center[1] + d * sd.center[1]) / q,
                          (c * sc.center[2] + d * sd.center[2]) / q};
          const HermiteE e2x(sc.l, sd.l, c, d, sc.center[0], sd.center[0]);
          const HermiteE e2y(sc.l, sd.l, c, d, sc.center[1], sd.center[1]);
          const HermiteE e2z(sc.l, sd.l, c, d, sc.center[2], sd.center[2]);

          const double alpha = p * q / (p + q);
          const Vec3 pq{pctr[0] - qctr[0], pctr[1] - qctr[1],
                        pctr[2] - qctr[2]};
          const HermiteR rtuv(lab + lcd, alpha, pq,
                              /*reference_boys=*/true);
          const double pref = 2.0 * std::pow(kPi, 2.5) /
                              (p * q * std::sqrt(p + q)) * cab * ccd;

          for (std::size_t ia = 0; ia < ca.size(); ++ia) {
            for (std::size_t ib = 0; ib < cb.size(); ++ib) {
              const auto& A = ca[ia];
              const auto& B = cb[ib];
              for (std::size_t ic = 0; ic < cc_.size(); ++ic) {
                for (std::size_t id = 0; id < cd.size(); ++id) {
                  const auto& C = cc_[ic];
                  const auto& D = cd[id];
                  double sum = 0.0;
                  for (int t = 0; t <= A.lx + B.lx; ++t) {
                    const double et = e1x(A.lx, B.lx, t);
                    if (et == 0.0) continue;
                    for (int u = 0; u <= A.ly + B.ly; ++u) {
                      const double eu = e1y(A.ly, B.ly, u);
                      if (eu == 0.0) continue;
                      for (int v = 0; v <= A.lz + B.lz; ++v) {
                        const double ev = e1z(A.lz, B.lz, v);
                        if (ev == 0.0) continue;
                        double inner = 0.0;
                        for (int tau = 0; tau <= C.lx + D.lx; ++tau) {
                          const double ft = e2x(C.lx, D.lx, tau);
                          if (ft == 0.0) continue;
                          for (int nu = 0; nu <= C.ly + D.ly; ++nu) {
                            const double fu = e2y(C.ly, D.ly, nu);
                            if (fu == 0.0) continue;
                            for (int phi = 0; phi <= C.lz + D.lz; ++phi) {
                              const double fv = e2z(C.lz, D.lz, phi);
                              if (fv == 0.0) continue;
                              const double sign =
                                  ((tau + nu + phi) % 2 == 0) ? 1.0 : -1.0;
                              inner += sign * ft * fu * fv *
                                       rtuv(t + tau, u + nu, v + phi);
                            }
                          }
                        }
                        sum += et * eu * ev * inner;
                      }
                    }
                  }
                  block(static_cast<int>(ia), static_cast<int>(ib),
                        static_cast<int>(ic), static_cast<int>(id)) +=
                      pref * sum;
                }
              }
            }
          }
        }
      }
    }
  }

  // Per-component contracted normalization.
  auto norms = [](const Shell& s) {
    const auto comps = cartesian_components(s.l);
    std::vector<double> n(comps.size());
    for (std::size_t i = 0; i < comps.size(); ++i) {
      n[i] = s.component_norm(comps[i].lx, comps[i].ly, comps[i].lz);
    }
    return n;
  };
  const auto na = norms(sa), nb = norms(sb), nc = norms(sc), nd = norms(sd);
  for (std::size_t ia = 0; ia < na.size(); ++ia) {
    for (std::size_t ib = 0; ib < nb.size(); ++ib) {
      for (std::size_t ic = 0; ic < nc.size(); ++ic) {
        for (std::size_t id = 0; id < nd.size(); ++id) {
          block(static_cast<int>(ia), static_cast<int>(ib),
                static_cast<int>(ic), static_cast<int>(id)) *=
              na[ia] * nb[ib] * nc[ic] * nd[id];
        }
      }
    }
  }
  return block;
}

linalg::Matrix schwarz_matrix(const ShellPairList& pairs) {
  const std::size_t n = pairs.basis().shell_count();
  linalg::Matrix q(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const ShellPairData& pr =
          pairs.pair(static_cast<int>(i), static_cast<int>(j));
      std::array<double, kMaxQuartetSize> block;
      eri_shell_quartet(pr, pr, block.data());
      // Only the (fa, fb, fa, fb) diagonal is read.
      const auto nab = static_cast<std::size_t>(pr.na() * pr.nb());
      double m = 0.0;
      for (std::size_t ab = 0; ab < nab; ++ab) {
        m = std::max(m, std::abs(block[ab * nab + ab]));
      }
      q(i, j) = q(j, i) = std::sqrt(m);
    }
  }
  return q;
}

linalg::Matrix schwarz_matrix(const BasisSet& basis) {
  return schwarz_matrix(ShellPairList(basis));
}

std::vector<double> full_eri_tensor(const BasisSet& basis) {
  const auto n = static_cast<std::size_t>(basis.function_count());
  std::vector<double> g(n * n * n * n, 0.0);
  const ShellPairList pairs(basis);
  const auto& shells = basis.shells();
  const int ns = static_cast<int>(shells.size());

  auto put = [&g, n](std::size_t a, std::size_t b, std::size_t c,
                     std::size_t d, double v) {
    g[((a * n + b) * n + c) * n + d] = v;
  };

  // Canonical quartets only (i >= j, k >= l, rank(kl) <= rank(ij)); the
  // remaining entries follow from the 8-fold permutational symmetry.
  // Every member of a tuple's symmetry orbit receives its value from the
  // same block element, so the tensor is bitwise symmetric.
  for (int i = 0; i < ns; ++i) {
    for (int j = 0; j <= i; ++j) {
      const ShellPairData& bra = pairs.pair(i, j);
      for (int k = 0; k <= i; ++k) {
        const int lmax = (k == i) ? j : k;
        for (int l = 0; l <= lmax; ++l) {
          const EriBlock b = eri_shell_quartet(bra, pairs.pair(k, l));
          for (int fa = 0; fa < b.na(); ++fa) {
            for (int fb = 0; fb < b.nb(); ++fb) {
              for (int fc = 0; fc < b.nc(); ++fc) {
                for (int fd = 0; fd < b.nd(); ++fd) {
                  const double v = b(fa, fb, fc, fd);
                  const auto ia =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          i)].first_function +
                                               fa);
                  const auto ib =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          j)].first_function +
                                               fb);
                  const auto ic =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          k)].first_function +
                                               fc);
                  const auto id =
                      static_cast<std::size_t>(shells[static_cast<std::size_t>(
                                                          l)].first_function +
                                               fd);
                  put(ia, ib, ic, id, v);
                  put(ib, ia, ic, id, v);
                  put(ia, ib, id, ic, v);
                  put(ib, ia, id, ic, v);
                  put(ic, id, ia, ib, v);
                  put(id, ic, ia, ib, v);
                  put(ic, id, ib, ia, v);
                  put(id, ic, ib, ia, v);
                }
              }
            }
          }
        }
      }
    }
  }
  return g;
}

}  // namespace emc::chem
