// Shell-pair-cached ERI engine tests: the cached kernel must reproduce
// the direct (seed) kernel to near machine precision on randomized
// quartets of every class up to (dd|dd) and on the edge cases (coincident
// centers, extreme exponent ratios, deep contractions), the tabulated
// Boys function must match the series reference, and the canonical-
// quartet full_eri_tensor must be bitwise 8-fold symmetric while agreeing
// with the legacy all-quartets fill. Pinned FNV-1a digests hold the
// kernel's and HermiteR's output bits fixed across rewrites that must
// not change any arithmetic.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "chem/basis.hpp"
#include "chem/boys.hpp"
#include "chem/eri.hpp"
#include "chem/integrals.hpp"
#include "chem/molecule.hpp"
#include "chem/shell_pair.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc::chem;

Shell random_shell(emc::Rng& rng, int l) {
  Shell s;
  s.l = l;
  s.center = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
              rng.uniform(-2.0, 2.0)};
  const int nprim = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < nprim; ++i) {
    // Log-uniform exponents across the chemically relevant range, and
    // signed coefficients so cancellation paths are exercised.
    const double a = std::exp(rng.uniform(std::log(0.1), std::log(60.0)));
    const double c =
        rng.uniform(0.2, 1.2) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    s.exponents.push_back(a);
    s.coefficients.push_back(c * primitive_norm(a, l, 0, 0));
  }
  return s;
}

double max_block_diff(const EriBlock& x, const EriBlock& y) {
  double m = 0.0;
  for (int a = 0; a < x.na(); ++a) {
    for (int b = 0; b < x.nb(); ++b) {
      for (int c = 0; c < x.nc(); ++c) {
        for (int d = 0; d < x.nd(); ++d) {
          m = std::max(m, std::abs(x(a, b, c, d) - y(a, b, c, d)));
        }
      }
    }
  }
  return m;
}

TEST(ShellPairEriTest, CachedMatchesDirectOnRandomQuartets) {
  emc::Rng rng(20260806);
  for (int trial = 0; trial < 60; ++trial) {
    const Shell a = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell b = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell c = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const Shell d = random_shell(rng, static_cast<int>(rng.range(0, 2)));
    const EriBlock direct = eri_shell_quartet_direct(a, b, c, d);
    const EriBlock cached = eri_shell_quartet(a, b, c, d);
    EXPECT_LT(max_block_diff(direct, cached), 1e-12) << "trial " << trial;
  }
}

/// A shell of angular momentum `l` at `center` with `nprim` primitives
/// whose exponents are log-uniform in [lo, hi].
Shell shell_at(emc::Rng& rng, int l, const Vec3& center, int nprim,
               double lo, double hi) {
  Shell s;
  s.l = l;
  s.center = center;
  for (int i = 0; i < nprim; ++i) {
    const double a = std::exp(rng.uniform(std::log(lo), std::log(hi)));
    const double c =
        rng.uniform(0.2, 1.2) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    s.exponents.push_back(a);
    s.coefficients.push_back(c * primitive_norm(a, l, 0, 0));
  }
  return s;
}

Vec3 random_center(emc::Rng& rng) {
  return {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
          rng.uniform(-2.0, 2.0)};
}

/// The cached kernel skips primitive quartets whose bound product is
/// below kPrimQuartetPrune (1e-17). That is an absolute
/// error, so a block far below unit size cannot meet a purely relative
/// tolerance; this floor covers the skipped terms of one quartet.
constexpr double kPruneFloor = 1e-15;

/// Cached vs direct on one quartet: max |diff| <= 1e-13 max |block|,
/// plus the pruning floor.
::testing::AssertionResult cached_matches_direct(const Shell& a,
                                                 const Shell& b,
                                                 const Shell& c,
                                                 const Shell& d) {
  const EriBlock direct = eri_shell_quartet_direct(a, b, c, d);
  const double diff = max_block_diff(direct, eri_shell_quartet(a, b, c, d));
  if (diff <= 1e-13 * direct.max_abs() + kPruneFloor) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "max |diff| " << diff << " for max |block| " << direct.max_abs();
}

/// Runs `make(la, lb, lc, ld)` for every (la lb|lc ld) class up to
/// (dd|dd) and checks the cached kernel against the direct one.
template <typename MakeQuartet>
void expect_every_class_matches_direct(MakeQuartet&& make) {
  for (int la = 0; la <= 2; ++la) {
    for (int lb = 0; lb <= 2; ++lb) {
      for (int lc = 0; lc <= 2; ++lc) {
        for (int ld = 0; ld <= 2; ++ld) {
          const std::array<Shell, 4> q = make(la, lb, lc, ld);
          EXPECT_TRUE(cached_matches_direct(q[0], q[1], q[2], q[3]))
              << "class (" << la << lb << "|" << lc << ld << ")";
        }
      }
    }
  }
}

TEST(ShellPairEriTest, EveryClassMatchesDirectOnRandomQuartets) {
  emc::Rng rng(20261017);
  for (int trial = 0; trial < 2; ++trial) {
    expect_every_class_matches_direct([&](int la, int lb, int lc, int ld) {
      auto shell = [&](int l) {
        return shell_at(rng, l, random_center(rng),
                        static_cast<int>(rng.range(1, 3)), 0.1, 60.0);
      };
      return std::array<Shell, 4>{shell(la), shell(lb), shell(lc),
                                  shell(ld)};
    });
  }
}

TEST(ShellPairEriTest, CoincidentCentersMatchDirect) {
  emc::Rng rng(31);
  // A = B on the bra side, C and D apart.
  expect_every_class_matches_direct([&](int la, int lb, int lc, int ld) {
    const Vec3 ab = random_center(rng);
    return std::array<Shell, 4>{shell_at(rng, la, ab, 2, 0.1, 60.0),
                                shell_at(rng, lb, ab, 2, 0.1, 60.0),
                                shell_at(rng, lc, random_center(rng), 2,
                                         0.1, 60.0),
                                shell_at(rng, ld, random_center(rng), 2,
                                         0.1, 60.0)};
  });
  // A = B = C = D: PQ = 0, so every odd Hermite R vanishes.
  expect_every_class_matches_direct([&](int la, int lb, int lc, int ld) {
    const Vec3 x = random_center(rng);
    return std::array<Shell, 4>{shell_at(rng, la, x, 2, 0.1, 60.0),
                                shell_at(rng, lb, x, 2, 0.1, 60.0),
                                shell_at(rng, lc, x, 2, 0.1, 60.0),
                                shell_at(rng, ld, x, 2, 0.1, 60.0)};
  });
}

TEST(ShellPairEriTest, ExtremeExponentRatiosMatchDirect) {
  // Exponents from 1e-2 to 1e4 within one quartet: a diffuse shell
  // against a core-tight one, plus two shells spanning the whole range.
  emc::Rng rng(10000);
  expect_every_class_matches_direct([&](int la, int lb, int lc, int ld) {
    return std::array<Shell, 4>{
        shell_at(rng, la, random_center(rng), 1, 1e-2, 1e-2),
        shell_at(rng, lb, random_center(rng), 1, 1e4, 1e4),
        shell_at(rng, lc, random_center(rng), 3, 1e-2, 1e4),
        shell_at(rng, ld, random_center(rng), 3, 1e-2, 1e4)};
  });
}

TEST(ShellPairEriTest, SixPrimitiveContractionsMatchDirect) {
  emc::Rng rng(6);
  for (const std::array<int, 4> l :
       {std::array<int, 4>{0, 0, 0, 0}, std::array<int, 4>{1, 0, 1, 1},
        std::array<int, 4>{2, 1, 0, 2}, std::array<int, 4>{2, 2, 2, 2}}) {
    auto shell = [&](int li) {
      return shell_at(rng, li, random_center(rng), 6, 0.05, 500.0);
    };
    const Shell a = shell(l[0]), b = shell(l[1]), c = shell(l[2]),
                d = shell(l[3]);
    EXPECT_TRUE(cached_matches_direct(a, b, c, d))
        << "class (" << l[0] << l[1] << "|" << l[2] << l[3] << ")";
  }
}

TEST(ShellPairEriTest, ShellsAboveDAreRejected) {
  // The kernel's stack buffers are sized for (dd|dd).
  emc::Rng rng(3);
  const Shell f = shell_at(rng, 3, random_center(rng), 1, 0.5, 0.5);
  const Shell d = shell_at(rng, 2, random_center(rng), 1, 0.5, 0.5);
  EXPECT_THROW(make_shell_pair(f, d), std::invalid_argument);
  EXPECT_THROW(make_shell_pair(d, f), std::invalid_argument);
  EXPECT_NO_THROW(make_shell_pair(d, d));
}

TEST(ShellPairEriTest, CachedPairsAreReusableAcrossQuartets) {
  // The same ShellPairData object consumed as bra and as ket, repeatedly,
  // must keep producing the direct answer (guards against any hidden
  // mutable state in the pair tables).
  emc::Rng rng(7);
  const Shell a = random_shell(rng, 2);
  const Shell b = random_shell(rng, 1);
  const Shell c = random_shell(rng, 0);
  const ShellPairData ab = make_shell_pair(a, b);
  const ShellPairData cc = make_shell_pair(c, c);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(a, b, c, c),
                             eri_shell_quartet(ab, cc)),
              1e-12);
    EXPECT_LT(max_block_diff(eri_shell_quartet_direct(c, c, a, b),
                             eri_shell_quartet(cc, ab)),
              1e-12);
  }
}

TEST(ShellPairEriTest, DeepContractionWaterShells) {
  // STO-3G oxygen 1s against itself: the deepest contraction in the
  // suite's bases, where the pair-level exp(-mu |AB|^2) prefactors and
  // primitive pruning matter most.
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const auto& shells = basis.shells();
  for (std::size_t i = 0; i < shells.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const EriBlock direct =
          eri_shell_quartet_direct(shells[i], shells[j], shells[i],
                                   shells[j]);
      const EriBlock cached =
          eri_shell_quartet(shells[i], shells[j], shells[i], shells[j]);
      EXPECT_LT(max_block_diff(direct, cached), 1e-12)
          << "pair " << i << "," << j;
    }
  }
}

/// FNV-1a 64 over the bytes of `n` doubles, continuing from `h` (the
/// hash the distributed-Fock digests use).
std::uint64_t fnv1a(const double* x, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(x);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

TEST(ShellPairEriTest, PinnedDigestOfWater2CanonicalBlocks) {
  // Every canonical quartet of water2/6-31G*, unscreened: every class up
  // to (dd|dd). The digest holds the kernel's output bits, so a rewrite
  // that reorders any floating-point sum fails here.
  const BasisSet basis =
      BasisSet::build(make_water_cluster(2), "6-31g*");
  const ShellPairList pairs(basis);
  const int n = static_cast<int>(basis.shell_count());
  std::array<double, kMaxQuartetSize> block;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t quartets = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const ShellPairData& bra = pairs.pair(i, j);
      for (int k = 0; k <= i; ++k) {
        for (int l = 0; l <= (k == i ? j : k); ++l) {
          const ShellPairData& ket = pairs.pair(k, l);
          eri_shell_quartet(bra, ket, block.data());
          h = fnv1a(block.data(),
                    static_cast<std::size_t>(bra.na() * bra.nb() *
                                             ket.na() * ket.nb()),
                    h);
          ++quartets;
        }
      }
    }
  }
  EXPECT_EQ(quartets, 22155u);
  EXPECT_EQ(h, 0xdcbcbb2772a9eabaULL) << "digest=0x" << std::hex << h;

  // The same blocks through the batched entry, each bra's ket pairs
  // grouped into windows as a Fock-build task groups them.
  std::array<double, kMaxQuartetSize> buffer;
  std::array<EriKet, kEriWindowKets> window;
  std::uint64_t hb = 0xcbf29ce484222325ULL;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      const ShellPairData& bra = pairs.pair(i, j);
      const auto bra_size = static_cast<std::size_t>(bra.na() * bra.nb());
      std::size_t kets = 0, used = 0;
      auto flush = [&] {
        eri_shell_quartets(bra, {window.data(), kets});
        hb = fnv1a(buffer.data(), used, hb);
        kets = used = 0;
      };
      for (int k = 0; k <= i; ++k) {
        for (int l = 0; l <= (k == i ? j : k); ++l) {
          const ShellPairData& ket = pairs.pair(k, l);
          const std::size_t size =
              bra_size * static_cast<std::size_t>(ket.na() * ket.nb());
          if (eri_window_full(kets, used, size)) flush();
          window[kets++] = EriKet{&ket, buffer.data() + used};
          used += size;
        }
      }
      flush();
    }
  }
  EXPECT_EQ(hb, 0xdcbcbb2772a9eabaULL) << "digest=0x" << std::hex << hb;
}

/// A shell of angular momentum `l` at `center` with the given
/// exponents.
Shell shell_with(emc::Rng& rng, int l, const Vec3& center,
                 const std::vector<double>& exponents) {
  Shell s;
  s.l = l;
  s.center = center;
  for (const double a : exponents) {
    const double c =
        rng.uniform(0.2, 1.2) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    s.exponents.push_back(a);
    s.coefficients.push_back(c * primitive_norm(a, l, 0, 0));
  }
  return s;
}

/// Boys argument alpha |PQ|^2 of a primitive quartet.
double boys_argument(const PrimitivePairData& bp,
                     const PrimitivePairData& kp) {
  double r2 = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    r2 += (bp.center[c] - kp.center[c]) * (bp.center[c] - kp.center[c]);
  }
  return bp.p * kp.p / (bp.p + kp.p) * r2;
}

/// The pruning floor of the windows below. Their bras pair a tight
/// primitive with p and d functions, where the s-type bound product
/// understates a skipped primitive quartet: a near-zero block can miss
/// a few 1e-14 (seen on (pp|ds) at max |block| 2e-14). The single-quartet
/// kernel skips the same terms; the bitwise check below ties the two.
constexpr double kWindowPruneFloor = 1e-13;

TEST(BatchedEriTest, RandomWindowsMatchDirectAndSingleQuartetsBitwise) {
  // Windows of 1-40 ket pairs of mixed class and contraction depth
  // against one bra. Window t has bra class t % 9 and its ket j class
  // (j + t) % 9, so every class up to (dd|dd) occurs. Each window holds
  // an anchor ket pair, 3 bohr from the bra's common center and 3 bohr
  // long, whose primitive quartets are pruned (tight x tight), survive
  // with x < 35 (diffuse) and survive with x >= 35 (tight x diffuse
  // against the bra's tight primitive): the Boys table's edge, past
  // which a lane must take the asymptotic branch.
  emc::Rng rng(20261019);
  auto random_exponents = [&](int n) {
    std::vector<double> e;
    for (int i = 0; i < n; ++i) {
      e.push_back(std::exp(rng.uniform(std::log(0.1), std::log(60.0))));
    }
    return e;
  };
  int classes_seen = 0;
  std::array<bool, 81> seen{};
  for (int t = 0; t < 45; ++t) {
    const int la = t % 9 / 3, lb = t % 3;
    const Vec3 bra_center = random_center(rng);
    std::vector<double> tight = random_exponents(
        static_cast<int>(rng.range(0, 2)));
    tight.push_back(30.0);
    const Shell bra_a = shell_with(rng, la, bra_center, tight);
    const Shell bra_b = shell_with(
        rng, lb, bra_center,
        random_exponents(static_cast<int>(rng.range(1, 3))));
    const ShellPairData bra = make_shell_pair(bra_a, bra_b);

    const std::size_t size = 1 + static_cast<std::size_t>(t * 7 % 40);
    const std::size_t anchor =
        static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(size) - 1));
    std::vector<Shell> shells;  // two per ket pair
    std::vector<ShellPairData> kets;
    for (std::size_t j = 0; j < size; ++j) {
      const int c = static_cast<int>((j + static_cast<std::size_t>(t)) % 9);
      const int lc = c / 3, ld = c % 3;
      if (j == anchor) {
        const Vec3 q0{bra_center[0] + 3.0, bra_center[1], bra_center[2]};
        const Vec3 q1{q0[0], q0[1] + 3.0, q0[2]};
        shells.push_back(shell_with(rng, lc, q0, {20.0, 0.15}));
        shells.push_back(shell_with(rng, ld, q1, {20.0, 0.15}));
      } else {
        auto shell = [&](int l) {
          return shell_at(rng, l, random_center(rng),
                          static_cast<int>(rng.range(1, 3)), 0.1, 60.0);
        };
        shells.push_back(shell(lc));
        shells.push_back(shell(ld));
      }
      kets.push_back(make_shell_pair(shells[2 * j], shells[2 * j + 1]));
      if (!seen[static_cast<std::size_t>(t % 9 * 9 + c)]) {
        seen[static_cast<std::size_t>(t % 9 * 9 + c)] = true;
        ++classes_seen;
      }
    }

    // The window's lanes cover both sides of the edge and the pruning.
    std::size_t pruned = 0, below = 0, above = 0;
    for (const ShellPairData& ket : kets) {
      pruned += bra.prims.size() * ket.prims.size() -
                surviving_prim_quartets(bra, ket);
    }
    for (const PrimitivePairData& bp : bra.prims) {
      for (const PrimitivePairData& kp : kets[anchor].prims) {
        if (bp.bound * kp.bound < kPrimQuartetPrune) continue;
        (boys_argument(bp, kp) < 35.0 ? below : above) += 1;
      }
    }
    ASSERT_GT(pruned, 0u) << "window " << t;
    ASSERT_GT(below, 0u) << "window " << t;
    ASSERT_GT(above, 0u) << "window " << t;

    std::vector<std::vector<double>> blocks(kets.size());
    std::vector<EriKet> window;
    for (std::size_t j = 0; j < kets.size(); ++j) {
      blocks[j].resize(static_cast<std::size_t>(bra.na() * bra.nb() *
                                                kets[j].na() * kets[j].nb()));
      window.push_back(EriKet{&kets[j], blocks[j].data()});
    }
    eri_shell_quartets(bra, window);
    std::array<double, kMaxQuartetSize> single;
    for (std::size_t j = 0; j < kets.size(); ++j) {
      const EriBlock direct = eri_shell_quartet_direct(
          bra_a, bra_b, shells[2 * j], shells[2 * j + 1]);
      double diff = 0.0;
      std::size_t at = 0;
      for (int a = 0; a < direct.na(); ++a) {
        for (int b = 0; b < direct.nb(); ++b) {
          for (int c = 0; c < direct.nc(); ++c) {
            for (int d = 0; d < direct.nd(); ++d) {
              diff = std::max(diff,
                              std::abs(direct(a, b, c, d) - blocks[j][at++]));
            }
          }
        }
      }
      EXPECT_LE(diff, 1e-13 * direct.max_abs() + kWindowPruneFloor)
          << "window " << t << " ket " << j << (j == anchor ? " (anchor)" : "")
          << " class (" << la << lb << "|"
          << kets[j].la << kets[j].lb << ")";
      // Position independence: the same quartet as a window of one.
      eri_shell_quartet(bra, kets[j], single.data());
      EXPECT_EQ(fnv1a(single.data(), blocks[j].size()),
                fnv1a(blocks[j].data(), blocks[j].size()))
          << "window " << t << " ket " << j;
    }
  }
  EXPECT_EQ(classes_seen, 81);
}

/// Seeded (p, PC) inputs for HermiteR: x = p |PC|^2 = 0, just below the
/// Boys table's 35 cutoff, the asymptotic branch at and above it, then
/// random draws.
std::vector<std::pair<double, Vec3>> hermite_r_inputs() {
  std::vector<std::pair<double, Vec3>> in{
      {1.3, {0.0, 0.0, 0.0}},
      {0.7, {0.0, -std::sqrt(34.99 / 0.7), 0.0}},
      {2.0, {std::sqrt(35.0 / 2.0), 0.0, 0.0}},
      {5.0, {-1.5, 2.5, 3.0}},
      {40.0, {0.3, -2.0, 2.5}}};
  emc::Rng rng(2026);
  for (int i = 0; i < 40; ++i) {
    in.push_back({std::exp(rng.uniform(std::log(0.05), std::log(200.0))),
                  {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                   rng.uniform(-3.0, 3.0)}});
  }
  return in;
}

/// The textbook McMurchie–Davidson recursion, one table per level n:
/// R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + X_PC R^{n+1}_{t,u,v} (and in u,
/// v), R^n_{000} = (-2p)^n F_n(p |PC|^2). Returns level 0 indexed by
/// HermiteR::offset.
std::vector<double> reference_r(int order, double p, const Vec3& pc,
                                bool reference_boys) {
  std::vector<double> f(static_cast<std::size_t>(order) + 1);
  const double x = p * (pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2]);
  reference_boys ? boys_reference(x, f) : boys(x, f);
  const std::size_t cube = HermiteR::offset(HermiteR::kStride, 0, 0);
  std::vector<std::vector<double>> lvl(f.size() + 1,
                                       std::vector<double>(cube, 0.0));
  double scale = 1.0;
  for (std::size_t n = 0; n < f.size(); ++n, scale *= -2.0 * p) {
    lvl[n][0] = f[n] * scale;
  }
  for (int n = order; n >= 0; --n) {
    const std::vector<double>& up = lvl[static_cast<std::size_t>(n) + 1];
    for (int total = 1; total <= order - n; ++total) {
      for (int t = 0; t <= total; ++t) {
        for (int u = 0; t + u <= total; ++u) {
          const int v = total - t - u;
          const int axis = t > 0 ? 0 : (u > 0 ? 1 : 2);
          const int k = axis == 0 ? t : (axis == 1 ? u : v);
          const int dt = axis == 0, du = axis == 1, dv = axis == 2;
          lvl[static_cast<std::size_t>(n)][HermiteR::offset(t, u, v)] =
              (k > 1 ? static_cast<double>(k - 1) *
                           up[HermiteR::offset(t - 2 * dt, u - 2 * du,
                                               v - 2 * dv)]
                     : 0.0) +
              pc[static_cast<std::size_t>(axis)] *
                  up[HermiteR::offset(t - dt, u - du, v - dv)];
        }
      }
    }
  }
  return lvl[0];
}

/// Calls fn(t, u, v) for every defined entry t+u+v <= order, t-major.
template <typename Fn>
void for_each_r_entry(int order, Fn&& fn) {
  for (int t = 0; t <= order; ++t) {
    for (int u = 0; t + u <= order; ++u) {
      for (int v = 0; t + u + v <= order; ++v) fn(t, u, v);
    }
  }
}

TEST(HermiteRTest, PinnedDigestOfOrdersZeroToEight) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int order = 0; order <= HermiteR::kMaxOrder; ++order) {
    HermiteR r(order);
    for (const bool reference_boys : {false, true}) {
      for (const auto& [p, pc] : hermite_r_inputs()) {
        r.recompute(p, pc, reference_boys);
        for_each_r_entry(order, [&](int t, int u, int v) {
          const double x = r(t, u, v);
          h = fnv1a(&x, 1, h);
        });
      }
    }
  }
  EXPECT_EQ(h, 0x89f0b34e0766f897ULL) << "digest=0x" << std::hex << h;
}

TEST(HermiteRTest, BitwiseMatchesGenericReferenceRecursion) {
  for (int order = 0; order <= HermiteR::kMaxOrder; ++order) {
    HermiteR r(order);
    for (const bool reference_boys : {false, true}) {
      for (const auto& [p, pc] : hermite_r_inputs()) {
        r.recompute(p, pc, reference_boys);
        const std::vector<double> ref =
            reference_r(order, p, pc, reference_boys);
        for_each_r_entry(order, [&](int t, int u, int v) {
          const double x = r(t, u, v);
          const double y = ref[HermiteR::offset(t, u, v)];
          // Bytes, not values: a flipped signed zero is a difference.
          EXPECT_EQ(fnv1a(&x, 1), fnv1a(&y, 1))
              << "order " << order << " R(" << t << u << v << ") " << x
              << " vs " << y << " p=" << p;
        });
      }
    }
  }
}

TEST(BoysTableTest, MatchesSeriesReferenceOnGrid) {
  // Tabulated Taylor interpolation vs the ascending-series reference,
  // everywhere the table is consulted: x in [0, 40], orders up to 16.
  std::vector<double> fast(17), ref(17);
  double max_err = 0.0;
  for (int i = 0; i <= 1600; ++i) {
    const double x = 0.025 * i;
    boys(x, fast);
    boys_reference(x, ref);
    for (int m = 0; m <= 16; ++m) {
      max_err = std::max(max_err, std::abs(fast[m] - ref[m]));
    }
  }
  EXPECT_LT(max_err, 1e-13);
}

TEST(BoysTableTest, OffGridPointsAndHighOrderFallback) {
  // Irrational-ish arguments (worst case for the interpolation step) and
  // orders beyond the table, which must fall back to the reference path.
  std::vector<double> fast(25), ref(25);
  for (double x : {0.0333333, 1.0499999, 7.7771, 19.95001, 34.999}) {
    boys(x, fast);
    boys_reference(x, ref);
    for (int m = 0; m <= 24; ++m) {
      EXPECT_NEAR(fast[m], ref[m], 1e-13) << "x=" << x << " m=" << m;
    }
  }
}

template <int M>
void expect_lanes_match_boys(const std::vector<double>& x) {
  std::vector<double> f((M + 1) * x.size()), one(M + 1);
  boys_lanes<M>(x.size(), x.data(), f.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    boys(x[i], one);
    for (std::size_t m = 0; m <= M; ++m) {
      const double lane = f[m * x.size() + i];
      EXPECT_EQ(fnv1a(&lane, 1), fnv1a(&one[m], 1))
          << "M=" << M << " x=" << x[i] << " m=" << m;
    }
  }
}

TEST(BoysTableTest, LanesMatchScalarBitwise) {
  // Lanes on both sides of the table's x = 35 edge, interleaved, more
  // than one 64-lane block and an odd count.
  std::vector<double> x{0.0, 34.999, 35.0, 1e-3, 80.0, 34.95, 35.05, 12.3};
  emc::Rng rng(35);
  for (int i = 0; i < 131; ++i) x.push_back(rng.uniform(0.0, 60.0));
  [&]<int... M>(std::integer_sequence<int, M...>) {
    (expect_lanes_match_boys<M>(x), ...);
  }(std::make_integer_sequence<int, HermiteR::kMaxOrder + 1>{});
}

TEST(FullEriTensorTest, MatchesLegacyAllQuartetsFill) {
  // The canonical-quartet + symmetric-fill tensor must agree with the
  // legacy fill that evaluates every (i,j,k,l) with the direct kernel.
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const auto& shells = basis.shells();
  const int n = basis.function_count();
  const auto nn = static_cast<std::size_t>(n);
  std::vector<double> legacy(nn * nn * nn * nn, 0.0);
  for (const Shell& si : shells) {
    for (const Shell& sj : shells) {
      for (const Shell& sk : shells) {
        for (const Shell& sl : shells) {
          const EriBlock block = eri_shell_quartet_direct(si, sj, sk, sl);
          for (int a = 0; a < block.na(); ++a) {
            for (int b = 0; b < block.nb(); ++b) {
              for (int c = 0; c < block.nc(); ++c) {
                for (int d = 0; d < block.nd(); ++d) {
                  const auto mu =
                      static_cast<std::size_t>(si.first_function + a);
                  const auto nu =
                      static_cast<std::size_t>(sj.first_function + b);
                  const auto la =
                      static_cast<std::size_t>(sk.first_function + c);
                  const auto sg =
                      static_cast<std::size_t>(sl.first_function + d);
                  legacy[((mu * nn + nu) * nn + la) * nn + sg] =
                      block(a, b, c, d);
                }
              }
            }
          }
        }
      }
    }
  }

  const std::vector<double> tensor = full_eri_tensor(basis);
  ASSERT_EQ(tensor.size(), legacy.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(tensor[i] - legacy[i]));
  }
  EXPECT_LT(max_diff, 1e-12);
}

TEST(FullEriTensorTest, BitwiseEightFoldSymmetric) {
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const std::vector<double> t = full_eri_tensor(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  auto at = [&](std::size_t a, std::size_t b, std::size_t c,
                std::size_t d) { return t[((a * n + b) * n + c) * n + d]; };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      for (std::size_t c = 0; c <= a; ++c) {
        for (std::size_t d = 0; d <= c; ++d) {
          const double v = at(a, b, c, d);
          // Bitwise equality, not approximate: the canonical fill writes
          // the identical double to all eight orbit positions.
          EXPECT_EQ(v, at(b, a, c, d));
          EXPECT_EQ(v, at(a, b, d, c));
          EXPECT_EQ(v, at(b, a, d, c));
          EXPECT_EQ(v, at(c, d, a, b));
          EXPECT_EQ(v, at(d, c, a, b));
          EXPECT_EQ(v, at(c, d, b, a));
          EXPECT_EQ(v, at(d, c, b, a));
        }
      }
    }
  }
}

TEST(SchwarzMatrixTest, PairCachePathMatchesBasisPath) {
  const BasisSet basis = BasisSet::build(make_water_cluster(2), "6-31g");
  const ShellPairList pairs(basis);
  const auto via_pairs = schwarz_matrix(pairs);
  const auto via_basis = schwarz_matrix(basis);
  ASSERT_EQ(via_pairs.rows(), via_basis.rows());
  for (std::size_t i = 0; i < via_pairs.rows(); ++i) {
    for (std::size_t j = 0; j < via_pairs.cols(); ++j) {
      EXPECT_NEAR(via_pairs(i, j), via_basis(i, j), 1e-12)
          << "shells " << i << "," << j;
    }
  }
}

TEST(SchwarzMatrixTest, StillBoundsQuartetsWithCachedKernel) {
  // Q(ij) Q(kl) must bound |(ij|kl)| for the values the cached kernel
  // actually produces (the Cauchy-Schwarz guarantee the screening relies
  // on must survive the kernel swap).
  const BasisSet basis = BasisSet::build(make_water(), "sto-3g");
  const ShellPairList pairs(basis);
  const auto q = schwarz_matrix(pairs);
  const int n = static_cast<int>(basis.shell_count());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      for (int k = 0; k < n; ++k) {
        for (int l = 0; l <= k; ++l) {
          const EriBlock block =
              eri_shell_quartet(pairs.pair(i, j), pairs.pair(k, l));
          const double bound = q(static_cast<std::size_t>(i),
                                 static_cast<std::size_t>(j)) *
                               q(static_cast<std::size_t>(k),
                                 static_cast<std::size_t>(l));
          EXPECT_LE(block.max_abs(), bound + 1e-14)
              << i << j << k << l;
        }
      }
    }
  }
}

}  // namespace
