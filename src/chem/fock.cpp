#include "chem/fock.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "chem/eri.hpp"

namespace emc::chem {

namespace {

double checked_threshold(double screen_threshold) {
  if (!std::isfinite(screen_threshold) || screen_threshold < 0.0) {
    throw std::invalid_argument(
        "FockBuilder: screen_threshold must be finite and >= 0");
  }
  return screen_threshold;
}

}  // namespace

FockBuilder::FockBuilder(const BasisSet& basis, double screen_threshold)
    : basis_(&basis), screen_threshold_(checked_threshold(screen_threshold)),
      pairs_(basis), schwarz_(schwarz_matrix(pairs_)) {}

std::vector<ShellPairTask> FockBuilder::make_tasks() const {
  std::vector<ShellPairTask> tasks;
  const int n = static_cast<int>(basis_->shell_count());
  tasks.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      tasks.push_back(ShellPairTask{i, j, pair_rank(i, j)});
    }
  }
  return tasks;
}

template <typename QuartetFn>
void FockBuilder::for_each_ket_pair(const ShellPairTask& task,
                                    const linalg::Matrix* block_max,
                                    QuartetFn&& fn) const {
  const auto i = static_cast<std::size_t>(task.si);
  const auto j = static_cast<std::size_t>(task.sj);
  const double q_bra = schwarz_(i, j);
  const double d_bra = block_max != nullptr ? (*block_max)(i, j) : 0.0;
  const int n = static_cast<int>(basis_->shell_count());
  for (int k = 0; k < n; ++k) {
    for (int l = 0; l <= k; ++l) {
      if (pair_rank(k, l) > task.rank) return;
      const auto uk = static_cast<std::size_t>(k);
      const auto ul = static_cast<std::size_t>(l);
      const double q = q_bra * schwarz_(uk, ul);
      if (screen_threshold_ > 0.0 && q < screen_threshold_) continue;
      if (block_max != nullptr) {
        // J reads D_ij and D_kl, K reads the four cross blocks.
        const linalg::Matrix& d = *block_max;
        const double weight =
            std::max({4.0 * std::max(d_bra, d(uk, ul)), d(i, uk), d(i, ul),
                      d(j, uk), d(j, ul)});
        if (q * weight < screen_threshold_) continue;
      }
      fn(k, l);
    }
  }
}

TaskCostFeatures FockBuilder::task_cost_features(
    const ShellPairTask& task) const {
  const auto& shells = basis_->shells();
  const Shell& si = shells[static_cast<std::size_t>(task.si)];
  const Shell& sj = shells[static_cast<std::size_t>(task.sj)];
  const double bra_fn =
      static_cast<double>(si.function_count() * sj.function_count());
  const double bra_prim =
      static_cast<double>(si.exponents.size() * sj.exponents.size());

  TaskCostFeatures f;
  // Even a fully-screened task pays its ket screening scan.
  f.scan = static_cast<double>(task.rank + 1);
  for_each_ket_pair(task, nullptr, [&](int k, int l) {
    const Shell& sk = shells[static_cast<std::size_t>(k)];
    const Shell& sl = shells[static_cast<std::size_t>(l)];
    const double prim =
        bra_prim *
        static_cast<double>(sk.exponents.size() * sl.exponents.size());
    const double fn =
        bra_fn *
        static_cast<double>(sk.function_count() * sl.function_count());
    f.quartets += 1.0;
    f.prim_quartets += prim;
    f.prim_fn += prim * fn;
  });
  return f;
}

double FockBuilder::estimate_task_cost(const ShellPairTask& task) const {
  // Quartet cost model (in abstract flop units): a fixed dispatch cost,
  // a per-ket-pair screening-scan term, a per-quartet term (block setup,
  // digestion), a per-primitive-quartet term (Boys + HermiteR recurrence
  // — the HermiteE tables are amortized by the shell-pair cache), and a
  // per-primitive-quartet-function term (the Hermite contraction), which
  // defines the unit. Constants fitted by non-negative least squares on
  // relative error against wall-time measurements of the factorized
  // kernel (bench_kernel --calibrate; water/water2 in STO-3G, 6-31G,
  // 6-31G* and alkane4/STO-3G, 534 tasks; Pearson 0.98 / Spearman 0.98
  // on a 4-core x86 host, where one unit measured ~9.7 ns). They were
  // fitted on the order-generic factorized kernel and kept for the
  // order-specialized one, which measures ~4 ns per unit and fits the
  // fixed and per-primitive terms somewhat higher (EXPERIMENTS.md EXP-0):
  // re-fitting would move every simulated workload built from this
  // model. The factorization cut the per-function work, so the fixed and
  // per-primitive terms weigh more than for the seed-era kernel (per
  // quartet 5 -> 30, per primitive quartet 0.43 -> 4.5). All four terms
  // are resolved by the relative fit; the ~70 ns dispatch plus ~3.7 ns
  // per scanned ket pair are the same order as the ~0.2 us a fully
  // screened task measures.
  constexpr double kPerQuartet = 30.0;
  constexpr double kPerPrimQuartet = 4.5;
  constexpr double kTaskDispatch = 7.0;
  constexpr double kKetScanPerPair = 0.38;

  const TaskCostFeatures f = task_cost_features(task);
  return kTaskDispatch + kKetScanPerPair * f.scan + kPerQuartet * f.quartets +
         kPerPrimQuartet * f.prim_quartets + f.prim_fn;
}

namespace {

/// Digests the canonical quartet block (ij|kl) (i >= j, k >= l,
/// rank(ij) >= rank(kl)) as the six standard J/K updates, each scaled by
/// the size of the quartet's symmetry orbit. combine_jk symmetrizes J
/// and K, which supplies the transposed updates. This is exact only for
/// a symmetric density: the orbit members' terms are folded together
/// using D(a, b) = D(b, a).
void digest_quartet(const ShellPairData& bra, const ShellPairData& ket,
                    bool bra_is_ket, const double* block,
                    const linalg::Matrix& density, linalg::Matrix& j_accum,
                    linalg::Matrix& k_accum) {
  const double deg = (bra.first_a != bra.first_b ? 2.0 : 1.0) *
                     (ket.first_a != ket.first_b ? 2.0 : 1.0) *
                     (bra_is_ket ? 1.0 : 2.0);
  const double jscale = 0.5 * deg;
  const double kscale = 0.25 * deg;
  const std::size_t n = density.cols();
  const double* d = density.data();
  double* j = j_accum.data();
  double* k = k_accum.data();
  const auto na = static_cast<std::size_t>(bra.na());
  const auto nb = static_cast<std::size_t>(bra.nb());
  const auto nc = static_cast<std::size_t>(ket.na());
  const auto nd = static_cast<std::size_t>(ket.nb());
  for (std::size_t a = 0; a < na; ++a) {
    const std::size_t mu = static_cast<std::size_t>(bra.first_a) + a;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t nu = static_cast<std::size_t>(bra.first_b) + b;
      const double d_mn = jscale * d[mu * n + nu];
      double j_mn = 0.0;
      for (std::size_t c = 0; c < nc; ++c) {
        const std::size_t la = static_cast<std::size_t>(ket.first_a) + c;
        const double d_ml = kscale * d[mu * n + la];
        const double d_nl = kscale * d[nu * n + la];
        const double* g = block + ((a * nb + b) * nc + c) * nd;
        double k_ml = 0.0, k_nl = 0.0;
        for (std::size_t e = 0; e < nd; ++e) {
          const std::size_t sg = static_cast<std::size_t>(ket.first_b) + e;
          j_mn += d[la * n + sg] * g[e];    // J(mu,nu) += D(la,sg) g
          j[la * n + sg] += d_mn * g[e];    // J(la,sg) += D(mu,nu) g
          k_ml += d[nu * n + sg] * g[e];    // K(mu,la) += D(nu,sg) g
          k[nu * n + sg] += d_ml * g[e];    // K(nu,sg) += D(mu,la) g
          k[mu * n + sg] += d_nl * g[e];    // K(mu,sg) += D(nu,la) g
          k_nl += d[mu * n + sg] * g[e];    // K(nu,la) += D(mu,sg) g
        }
        k[mu * n + la] += kscale * k_ml;
        k[nu * n + la] += kscale * k_nl;
      }
      j[mu * n + nu] += jscale * j_mn;
    }
  }
}

}  // namespace

void FockBuilder::require_density(const linalg::Matrix& density) const {
  const auto n = static_cast<std::size_t>(basis_->function_count());
  if (density.rows() != n || density.cols() != n) {
    throw std::invalid_argument("build_g: density shape mismatch");
  }
  if (!density.is_symmetric(1e-12 * density.max_abs())) {
    throw std::invalid_argument(
        "density is not symmetric: the Fock build needs D = D^T");
  }
}

std::uint64_t FockBuilder::execute_task(const ShellPairTask& task,
                                        const linalg::Matrix& density,
                                        linalg::Matrix& j_accum,
                                        linalg::Matrix& k_accum,
                                        const linalg::Matrix* block_max) const {
  const ShellPairData& bra = pairs_.pair(task.si, task.sj);
  const auto bra_size = static_cast<std::size_t>(bra.na() * bra.nb());
  // The surviving ket pairs in loop order, evaluated a window at a time
  // and then digested in that order, so J and K keep their bits.
  std::array<double, kMaxQuartetSize> blocks;
  std::array<EriKet, kEriWindowKets> window;
  static_assert(sizeof(blocks) + sizeof(window) <= 16 * 1024);
  std::size_t kets = 0, used = 0;
  auto flush = [&] {
    eri_shell_quartets(bra, {window.data(), kets});
    for (std::size_t w = 0; w < kets; ++w) {
      // Only the last ket pair of a task, (si, sj) itself, is the bra.
      digest_quartet(bra, *window[w].pair, window[w].pair == &bra,
                     window[w].out, density, j_accum, k_accum);
    }
    kets = used = 0;
  };
  std::uint64_t quartets = 0;
  for_each_ket_pair(task, block_max, [&](int k, int l) {
    const ShellPairData& ket = pairs_.pair(k, l);
    const std::size_t size =
        bra_size * static_cast<std::size_t>(ket.na() * ket.nb());
    if (eri_window_full(kets, used, size)) flush();
    window[kets++] = EriKet{&ket, blocks.data() + used};
    used += size;
    ++quartets;
  });
  if (kets > 0) flush();
  return quartets;
}

linalg::Matrix FockBuilder::combine_jk(const linalg::Matrix& j_accum,
                                       const linalg::Matrix& k_accum) {
  const std::size_t n = j_accum.rows();
  linalg::Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const double jv = 0.5 * (j_accum(r, c) + j_accum(c, r));
      const double kv = 0.5 * (k_accum(r, c) + k_accum(c, r));
      g(r, c) = jv - 0.5 * kv;
    }
  }
  return g;
}

linalg::Matrix FockBuilder::shell_block_max(
    const linalg::Matrix& density) const {
  const auto& shells = basis_->shells();
  linalg::Matrix m(shells.size(), shells.size());
  for (std::size_t a = 0; a < shells.size(); ++a) {
    const auto ra = static_cast<std::size_t>(shells[a].first_function);
    const auto na = static_cast<std::size_t>(shells[a].function_count());
    for (std::size_t b = 0; b < shells.size(); ++b) {
      const auto rb = static_cast<std::size_t>(shells[b].first_function);
      const auto nb = static_cast<std::size_t>(shells[b].function_count());
      double v = 0.0;
      for (std::size_t r = ra; r < ra + na; ++r) {
        for (std::size_t c = rb; c < rb + nb; ++c) {
          v = std::max(v, std::abs(density(r, c)));
        }
      }
      m(a, b) = v;
    }
  }
  return m;
}

linalg::Matrix FockBuilder::build_g(const linalg::Matrix& density,
                                    Screen screen,
                                    std::uint64_t* quartets) const {
  require_density(density);
  const auto n = static_cast<std::size_t>(basis_->function_count());
  const bool density_screen = screen == Screen::kDensity;
  const linalg::Matrix block_max =
      density_screen ? shell_block_max(density) : linalg::Matrix();
  linalg::Matrix j_accum(n, n), k_accum(n, n);
  std::uint64_t evaluated = 0;
  for (const ShellPairTask& task : make_tasks()) {
    evaluated += execute_task(task, density, j_accum, k_accum,
                              density_screen ? &block_max : nullptr);
  }
  if (quartets != nullptr) *quartets = evaluated;
  return combine_jk(j_accum, k_accum);
}

}  // namespace emc::chem
