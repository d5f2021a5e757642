#pragma once

// Fock-matrix construction and its task decomposition.
//
// The two-electron part of the Fock matrix, G(P), is assembled from shell
// quartets (ij|kl) exploiting 8-fold permutational symmetry and Schwarz
// screening (plus, for density differences, a density-weighted screen).
// Work is decomposed the way the paper's SCF study does: one
// *task* per canonical bra shell pair (i >= j); the task owns the loop
// over all canonical ket pairs with pair rank <= its own. Task costs
// therefore vary by orders of magnitude — the heterogeneity that drives
// the execution-model comparison.

#include <cstdint>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "chem/shell_pair.hpp"
#include "linalg/matrix.hpp"

namespace emc::chem {

/// One unit of schedulable work: a canonical bra shell pair.
struct ShellPairTask {
  int si = 0;               ///< bra shell i (si >= sj)
  int sj = 0;               ///< bra shell j
  std::uint64_t rank = 0;   ///< canonical pair rank si*(si+1)/2 + sj
};

/// Raw per-task work counters that underlie the analytic cost model.
/// Exposed so the calibration harness (bench_kernel --calibrate) can
/// re-fit the model constants against wall-time measurements whenever
/// the kernel's cost profile changes.
struct TaskCostFeatures {
  double quartets = 0.0;       ///< ket pairs surviving Schwarz screening
  double prim_quartets = 0.0;  ///< sum of primitive-quartet counts
  double prim_fn = 0.0;        ///< sum of prim-quartet * function products
  double scan = 0.0;           ///< ket pairs scanned (rank + 1)
};

/// The screens of a G build: Schwarz's alone, or also the density-
/// weighted one (FockBuilder::build_g).
enum class Screen { kSchwarz, kDensity };

/// THREAD SAFETY: a FockBuilder is immutable after construction (pair
/// cache + Schwarz matrix are materialized in the constructor) and its
/// const methods are stateless per call — execute_task/build_g use only
/// function-local scratch (the task's window of quartet blocks, the
/// kernel's lanes and W intermediate live on the stack of each call)
/// and the Boys table and Hermite term lists behind them are thread-safe
/// function-local statics. Any number of threads may therefore run
/// builds off ONE shared builder concurrently, each against its own
/// accumulators; results are bitwise reproducible. This is the contract
/// the serving layer's cross-request cache (serve::FockCache) and the
/// hybrid executor rely on; guarded by the TSan-covered
/// SharedFockBuilderTest in tests/test_serve.cpp.
class FockBuilder {
 public:
  /// Precomputes Schwarz bounds for screening. `screen_threshold` is the
  /// bound product below which a quartet is skipped (0 disables), by
  /// either screen. This is its one owner: every G build and SCF over
  /// this builder, distributed and served ones included, reads it here.
  /// Throws std::invalid_argument unless it is finite and >= 0.
  FockBuilder(const BasisSet& basis, double screen_threshold = 1e-10);

  const BasisSet& basis() const { return *basis_; }
  double screen_threshold() const { return screen_threshold_; }
  const linalg::Matrix& schwarz() const { return schwarz_; }
  /// The precomputed shell-pair cache shared by every task.
  const ShellPairList& shell_pairs() const { return pairs_; }

  /// All tasks in canonical (rank) order.
  std::vector<ShellPairTask> make_tasks() const;

  /// Executes one task: digests its quartets' J/K contributions against
  /// `density` (the total RHF density P, or a change of it) into
  /// `j_accum` and `k_accum` and returns the number of quartets digested.
  /// Accumulators must be n x n; contributions are += so a caller may
  /// merge partial results from many tasks. The density must be
  /// symmetric: each quartet is applied as six updates that stand for
  /// its whole symmetry orbit, and only combine_jk's symmetrization
  /// completes J and K. Not checked here, per task; build entry points
  /// check once (require_density). A non-null `block_max`
  /// (shell_block_max of `density`) adds the density screen of
  /// Screen::kDensity.
  std::uint64_t execute_task(const ShellPairTask& task,
                             const linalg::Matrix& density,
                             linalg::Matrix& j_accum, linalg::Matrix& k_accum,
                             const linalg::Matrix* block_max = nullptr) const;

  /// Throws std::invalid_argument unless `density` is n x n and
  /// symmetric to 1e-12 relative to its largest element: the digest is
  /// exact only for D = D^T.
  void require_density(const linalg::Matrix& density) const;

  /// Max |D| over each shell block (a, b): the ns x ns table the density
  /// screen reads. A build computes it once, before any task runs, so
  /// every task of the build makes its skip decisions from one table.
  linalg::Matrix shell_block_max(const linalg::Matrix& density) const;

  /// Analytic work estimate (flop-weighted, no density info): sum over
  /// surviving quartets of the product of function counts and contraction
  /// depths. Cheap enough to run as an inspector pass.
  double estimate_task_cost(const ShellPairTask& task) const;

  /// The raw work counters behind estimate_task_cost (see
  /// TaskCostFeatures); used to re-fit the model constants.
  TaskCostFeatures task_cost_features(const ShellPairTask& task) const;

  /// G(P) = J - K/2 built by running every task sequentially. Screen::
  /// kSchwarz, the default, is the oracle. Screen::kDensity also skips
  /// quartet (ij|kl) when
  ///   Q_ij Q_kl max(4|D_ij|, 4|D_kl|, |D_ik|, |D_il|, |D_jk|, |D_jl|)
  /// is below screen_threshold, |D_ab| being the largest |element| of
  /// the density's shell block (a, b). The weights follow the digest
  /// (J scaled by deg/2, K by deg/4, G = J - K/2): a skipped integral's
  /// J update would have moved an element of G by at most
  /// deg/2 |D_J| Q_ij Q_kl and a K update by deg/8 |D_K| Q_ij Q_kl, so
  /// with the orbit size deg <= 8 every dropped update is below the
  /// threshold. Meant for density differences, whose blocks shrink as an
  /// SCF converges (IncrementalGBuilder in chem/scf.hpp). Stores the
  /// number of quartets evaluated in `*quartets` when it is non-null.
  /// Throws std::invalid_argument unless `density` is n x n and
  /// symmetric (see execute_task).
  linalg::Matrix build_g(const linalg::Matrix& density,
                         Screen screen = Screen::kSchwarz,
                         std::uint64_t* quartets = nullptr) const;

  /// Combines J/K accumulators into G = J - K/2 and symmetrizes.
  static linalg::Matrix combine_jk(const linalg::Matrix& j_accum,
                                   const linalg::Matrix& k_accum);

 private:
  /// Calls fn(k, l) for every ket pair of `task` that survives the
  /// Schwarz screen and, when `block_max` (max |D| per shell block,
  /// ns x ns) is non-null, the density screen.
  template <typename QuartetFn>
  void for_each_ket_pair(const ShellPairTask& task,
                         const linalg::Matrix* block_max,
                         QuartetFn&& fn) const;

  const BasisSet* basis_;
  double screen_threshold_;
  ShellPairList pairs_;
  linalg::Matrix schwarz_;
};

}  // namespace emc::chem
