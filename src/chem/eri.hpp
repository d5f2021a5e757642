#pragma once

// Two-electron repulsion integrals (ab|cd) over contracted cartesian
// shells (chemists' notation), McMurchie–Davidson scheme.
//
// These quartets are the dominant cost of Hartree–Fock and — because
// their cost varies steeply with the shells' contraction depths, angular
// momenta, and screening outcomes — they are the source of the task-cost
// heterogeneity the paper's execution-model study revolves around.
//
// The production entry points consume precomputed ShellPairData (see
// shell_pair.hpp): Hermite E tables, merged exponents, and weighted
// centers are built once per shell pair and reused across every quartet,
// and primitive quartets whose Schwarz-like bound product is negligible
// (< 1e-17) are pruned. The kernel is factorized: for each bra primitive
// pair it contracts the ket side into an intermediate
//   W[cd][tuv] = sum over ket primitives, ket Hermite terms (tau nu phi)
//                of (-1)^(tau+nu+phi) E^cd_{tau nu phi} R_{t+tau,u+nu,v+phi},
// then applies the bra E-coefficients once per bra component pair. Term
// index lists depend only on a pair's angular momenta and are built once
// per process; R and W live in fixed-size stack buffers, so evaluating a
// quartet into a caller's buffer allocates nothing. The kernel is
// instantiated once per (la+lb, lc+ld), 25 instances: in each, the bra's
// W columns (every (t, u, v) with t+u+v <= la+lb), their R offsets and
// the Boys/R order are compile-time constants. It is batched over a span
// of ket pairs: the surviving primitive quartets of every bra primitive
// pair and ket pair become lanes, in the scalar order, and each batch of
// lanes, which may span bra primitives, runs the Boys evaluation, the R
// recursion and the W update as loops over lanes, so the lanes' latency
// chains overlap. A lane does the same operations in the same order as a
// quartet evaluated alone: the blocks' bits are pinned by FNV-1a digests
// in test_chem_eri_pairs, for single quartets and for windows alike.
// The seed kernel that rebuilt everything per call and ran the six-deep
// Hermite sum per component quadruple is kept as
// eri_shell_quartet_direct — the reference/benchmark baseline.

#include <cstddef>
#include <span>
#include <vector>

#include "chem/basis.hpp"
#include "chem/shell_pair.hpp"
#include "linalg/matrix.hpp"

namespace emc::chem {

/// Dense 4D quartet block with shape (na, nb, nc, nd) = the cartesian
/// function counts of the four shells.
class EriBlock {
 public:
  EriBlock(int na, int nb, int nc, int nd)
      : na_(na), nb_(nb), nc_(nc), nd_(nd),
        data_(static_cast<std::size_t>(na) * static_cast<std::size_t>(nb) *
                  static_cast<std::size_t>(nc) * static_cast<std::size_t>(nd),
              0.0) {}

  double& operator()(int a, int b, int c, int d) {
    return data_[offset(a, b, c, d)];
  }
  double operator()(int a, int b, int c, int d) const {
    return data_[offset(a, b, c, d)];
  }

  /// Row-major (a, b, c, d) storage, the layout eri_shell_quartet fills.
  double* data() { return data_.data(); }

  int na() const { return na_; }
  int nb() const { return nb_; }
  int nc() const { return nc_; }
  int nd() const { return nd_; }
  double max_abs() const;

 private:
  std::size_t offset(int a, int b, int c, int d) const {
    return ((static_cast<std::size_t>(a) * static_cast<std::size_t>(nb_) +
             static_cast<std::size_t>(b)) *
                static_cast<std::size_t>(nc_) +
            static_cast<std::size_t>(c)) *
               static_cast<std::size_t>(nd_) +
           static_cast<std::size_t>(d);
  }

  int na_, nb_, nc_, nd_;
  std::vector<double> data_;
};

/// Doubles in the largest quartet block, (dd|dd): 6^4.
inline constexpr std::size_t kMaxQuartetSize = 1296;

/// Primitive quartets whose bound product (see PrimitivePairData::bound)
/// falls below this are skipped. Chosen so that the summed omission error
/// stays orders of magnitude below the 1e-12 accuracy the property tests
/// demand and the 1e-10 Eh SCF reproducibility requirement.
inline constexpr double kPrimQuartetPrune = 1e-17;

/// One ket pair of a batched call and the block it fills: `out` must
/// hold bra.na()*bra.nb()*pair->na()*pair->nb() doubles (at most
/// kMaxQuartetSize), written in EriBlock's (a, b, c, d) row-major order.
struct EriKet {
  const ShellPairData* pair;
  double* out;
};

/// Computes the contracted, normalized quartets (bra|kets[i]) into
/// kets[i].out — the batched entry a Fock build's tasks run, one window
/// (FockBuilder::for_each_window) at a time. Ket pairs of any class may
/// be mixed: the pairs of each ket class lc+ld run through that class's
/// kernel, kEriWindowKets at a time, whose primitive quartets run in
/// lanes. Every block is bitwise equal to eri_shell_quartet(bra,
/// *kets[i].pair, ...), whatever else the span holds. Returns the
/// number of lane batches the kernels ran: a batch holds up to a
/// kernel's lane capacity of surviving primitive quartets, gathered
/// across bra primitives. Allocates nothing.
std::size_t eri_shell_quartets(const ShellPairData& bra,
                               std::span<const EriKet> kets);

/// Computes one quartet (ab|cd) of two cached shell pairs into `out`
/// (sized and laid out as EriKet::out): the batched kernel over a single
/// ket pair. Allocates nothing.
void eri_shell_quartet(const ShellPairData& bra, const ShellPairData& ket,
                       double* out);

/// Ket pairs one eri_shell_quartets call passes to a kernel at most,
/// and so the most a Fock build's window holds.
inline constexpr std::size_t kEriWindowKets = 64;

/// Primitive quartets of (bra|ket) that eri_shell_quartet evaluates: the
/// pairs of bra and ket primitive pairs whose bound product survives
/// pruning.
std::size_t surviving_prim_quartets(const ShellPairData& bra,
                                    const ShellPairData& ket);

/// The same quartet returned as a block.
EriBlock eri_shell_quartet(const ShellPairData& bra,
                           const ShellPairData& ket);

/// Convenience wrapper: builds the two pair records on the fly. Keeps
/// the original four-shell signature working for call sites that do not
/// hold a ShellPairList.
EriBlock eri_shell_quartet(const Shell& sa, const Shell& sb, const Shell& sc,
                           const Shell& sd);

/// The seed kernel, unchanged: rebuilds Hermite E tables inside the
/// primitive-quartet loop and evaluates the Boys function by its series.
/// Kept as the independent reference for property tests and for the
/// old-vs-new comparison in bench_kernel.
EriBlock eri_shell_quartet_direct(const Shell& sa, const Shell& sb,
                                  const Shell& sc, const Shell& sd);

/// Schwarz screening bounds: Q(i,j) = sqrt(max |(ij|ij)|) over the
/// functions of shell pair (i, j); |(ab|cd)| <= Q(a,b) * Q(c,d).
/// The ShellPairList overload reuses the cached pair data and only
/// normalizes the (fa, fb, fa, fb) diagonal entries it actually reads.
linalg::Matrix schwarz_matrix(const ShellPairList& pairs);
linalg::Matrix schwarz_matrix(const BasisSet& basis);

/// Full AO ERI tensor (n^4 doubles) for small test systems. Only
/// canonical quartets (i >= j, k >= l, rank(ij) >= rank(kl)) are
/// computed; the other entries are filled from the 8-fold permutational
/// symmetry, so the tensor is bitwise symmetric under it.
/// Index order: (ij|kl) at [((i*n + j)*n + k)*n + l].
std::vector<double> full_eri_tensor(const BasisSet& basis);

}  // namespace emc::chem
