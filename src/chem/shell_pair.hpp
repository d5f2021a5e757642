#pragma once

// Shell-pair data cache for the McMurchie–Davidson integral engine.
//
// Every ERI quartet (ab|cd) factors into bra-pair data (merged exponents,
// weighted centers, contraction products, Hermite E tables), identical ket
// -pair data, and a Boys-function core that couples the two. The naive
// kernel rebuilds the pair data inside the primitive-quartet loop, so a
// Fock build recomputes each shell pair's tables once per quartet it
// appears in — O(n_pairs) redundant rebuilds per pair. Production integral
// codes (the NWChem lineage this study models) precompute the pair data
// once and reuse it across every quartet. ShellPairData is that
// precomputed record; ShellPairList is the per-basis cache indexed by
// canonical pair rank.

#include <cstdint>
#include <vector>

#include "chem/basis.hpp"

namespace emc::chem {

/// Canonical rank of an ordered shell pair (i >= j): i*(i+1)/2 + j.
inline std::uint64_t pair_rank(int i, int j) {
  return static_cast<std::uint64_t>(i) * (static_cast<std::uint64_t>(i) + 1) /
             2 +
         static_cast<std::uint64_t>(j);
}

/// Precomputed quantities of one primitive pair (a, b) of a shell pair.
struct PrimitivePairData {
  double p;             ///< merged exponent a + b
  double coeff_over_p;  ///< c_a c_b / p — the pair's share of the quartet
                        ///< prefactor 2 pi^{5/2} cab ccd / (p q sqrt(p+q))
  Vec3 center;          ///< P = (a A + b B) / p
  /// Schwarz-like magnitude bound: sqrt of the primitive s-approximated
  /// self-repulsion (ab|ab), including the contraction coefficients and
  /// the Gaussian-product prefactor exp(-a b |AB|^2 / p). The product of
  /// two pairs' bounds upper-bounds their s-type primitive quartet and is
  /// used to prune negligible primitive quartets.
  double bound;
};

/// Everything eri_shell_quartet needs from a (bra or ket) shell pair,
/// computed once per pair instead of once per quartet.
struct ShellPairData {
  int la = 0, lb = 0;            ///< angular momenta of the two shells
  int first_a = 0, first_b = 0;  ///< basis-function offsets of the shells
  std::vector<CartesianComponent> comps_a, comps_b;
  std::vector<double> norm_a, norm_b;  ///< per-component contracted norms
  std::vector<PrimitivePairData> prims;
  /// Hermite expansion tables E^{ij}_t of every primitive pair in one
  /// buffer: for prims[k], the x, y and z tables of e_size() doubles
  /// each start at 3 * k * e_size(), laid out by
  /// HermiteE::flat_index(la, lb, i, j, t).
  std::vector<double> hermite_e;
  double max_bound = 0.0;  ///< max over the primitive pairs' bounds

  int na() const { return static_cast<int>(comps_a.size()); }
  int nb() const { return static_cast<int>(comps_b.size()); }
  std::size_t e_size() const {
    return static_cast<std::size_t>((la + 1) * (lb + 1) * (la + lb + 1));
  }
  /// The x table of prims[k]; y and z follow at + e_size() and
  /// + 2 * e_size().
  const double* prim_e(std::size_t k) const {
    return hermite_e.data() + 3 * k * e_size();
  }
};

/// Highest shell angular momentum the ERI kernel supports (d shells,
/// where the basis library tops out).
inline constexpr int kMaxShellL = 2;

/// Builds the cached pair record for two shells (order matters: `a` is
/// the row/bra-left shell). Throws std::invalid_argument for a shell
/// above kMaxShellL.
ShellPairData make_shell_pair(const Shell& a, const Shell& b);

/// All canonical shell pairs (i >= j) of a basis set, indexed by
/// pair_rank(i, j). This is the cache a FockBuilder owns: bra data is
/// reused across a task's whole ket loop and ket data across all tasks.
///
/// THREAD SAFETY: immutable after construction. Every member is const-
/// qualified read-only access into data fully materialized by the
/// constructor — there is no lazy filling, memoization, or mutable
/// workspace — so one ShellPairList may be shared by any number of
/// concurrent readers (the serving layer's cross-request FockCache
/// relies on this; guarded by the TSan-covered
/// SharedFockBuilderTest.ConcurrentBuildsOffOneBuilderAreBitwise).
class ShellPairList {
 public:
  explicit ShellPairList(const BasisSet& basis);

  /// Requires i >= j (canonical order).
  const ShellPairData& pair(int i, int j) const {
    return pairs_[pair_rank(i, j)];
  }
  std::size_t size() const { return pairs_.size(); }
  const BasisSet& basis() const { return *basis_; }

 private:
  const BasisSet* basis_;
  std::vector<ShellPairData> pairs_;
};

}  // namespace emc::chem
