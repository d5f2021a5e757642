#pragma once

// Distributed Fock build in the Global-Arrays style of the paper's
// implementation: the density lives in a GlobalArray, every rank fetches
// it with one-sided Get at the start of an iteration, Fock tasks are
// scheduled under a configurable execution model, and each rank's J/K
// contributions are merged back with one-sided atomic Accumulate.
//
// Execution is hierarchical — ranks × threads, scheduled by one
// exec::SlotScheduler call per build (one persistent thread pool per
// rank; the same static / counter / work-stealing policies at both
// levels). Threads accumulate into pooled J/K buffers, one per
// reduction SLOT (a fixed contiguous cost-balanced range of the task
// list), and the slot partials fold through a fixed-shape pairwise tree
// (exec::TreeReduction) — so for any deterministic task→rank
// assignment the rank's J/K partial is bitwise identical regardless of
// thread count, intra policy, or scheduling interleaving.
//
// Wrapped in a chem::IncrementalGBuilder it drives the same incremental
// SCF as the sequential chem::run_rhf through any execution model, and
// is verified against it (tests/test_distributed_fock.cpp).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chem/fock.hpp"
#include "exec/schedulers.hpp"
#include "lb/partition.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace emc::core {

/// Inter-rank execution model and intra-rank thread policy. Both levels
/// share exec::Policy; the intra policy only matters under the static
/// model (see exec::SlotSchedule). By the tree-reduction construction
/// the intra policy never changes the RESULT — only wall clock and
/// steal/counter traffic differ.
using ExecModel = exec::Policy;
using IntraPolicy = exec::Policy;

struct DistributedFockOptions {
  ExecModel model = ExecModel::kWorkStealing;
  /// Balancer for the static model / work-stealing seed: "block",
  /// "cyclic", or "lpt". Operates on reduction slots.
  std::string static_balancer = "block";
  /// Slots per global-nxtval grab under ExecModel::kCounter (>= 1).
  std::int64_t counter_chunk = 4;
  exec::WorkStealingOptions steal;

  /// Pool threads per rank. 1 = the classic serial-per-rank loop (no
  /// workers are spawned). The Fock matrix is bitwise independent of
  /// this knob whenever the task→rank assignment is deterministic
  /// (static model, or any model at 1 rank).
  int threads = 1;
  /// How a rank's pool threads divide its reduction slots.
  IntraPolicy intra_policy = IntraPolicy::kStatic;
  /// Slots per rank-local counter grab under IntraPolicy::kCounter (>= 1).
  std::int64_t intra_chunk = 1;

  /// Optional observability hook. When set, the builder attaches it to
  /// the runtime (per-rank barrier/PGAS counters), the per-build
  /// GlobalArrays (get/put/acc ops + bytes), and records its own
  /// "fock/..." series: per-phase wall time (get / execute /
  /// accumulate), build count, quartets evaluated, reduction buffer pool
  /// size, and shell-pair-cache stats. Must outlive the
  /// builder. nullptr = fully disabled, no overhead on the build path.
  util::MetricsRegistry* metrics = nullptr;
};

/// One pooled J/K accumulation buffer pair (the payload of a reduction
/// slot / tree node).
struct JkBuffer {
  linalg::Matrix j;
  linalg::Matrix k;
};

/// Thread-safe free list of JkBuffers. acquire() hands out a ZEROED
/// n×n pair, reusing a released buffer when one is available and
/// allocating otherwise (never blocking — the tree reduction may hold
/// buffers that only future merges release, so waiting could deadlock).
/// This is what replaces the old 3·ranks·n² full-replica allocation:
/// the live set is bounded by ranks·(threads + log2 slots), not by
/// ranks·slots, and the pool persists across SCF iterations.
class JkBufferPool {
 public:
  /// A pool of n×n buffer pairs.
  explicit JkBufferPool(std::size_t n) : n_(n) {}
  JkBuffer* acquire();
  void release(JkBuffer* buffer);
  /// Buffers ever allocated (live + free). Stable after a build joins.
  std::size_t allocated() const;

 private:
  mutable std::mutex mutex_;
  const std::size_t n_;
  std::vector<std::unique_ptr<JkBuffer>> storage_;
  std::vector<JkBuffer*> free_;
};

/// SPMD Fock builder over a PGAS runtime. Not thread-safe to share one
/// instance across concurrent SCF runs; reuse across iterations of one
/// run is the intended pattern.
class DistributedFockBuilder {
 public:
  /// Throws std::invalid_argument for threads < 1, a chunk < 1, or an
  /// unknown static_balancer.
  DistributedFockBuilder(const chem::BasisSet& basis,
                         pgas::Runtime& runtime,
                         DistributedFockOptions options = {});

  /// Builds G(P) = J - K/2 with the configured execution model, behind
  /// the same screens as chem::FockBuilder::build_g. The density is
  /// published to a GlobalArray, ranks fetch it one-sided, execute their
  /// tasks ranks × threads, tree-reduce per rank, and accumulate the
  /// rank partials back one-sided. Screen::kDensity's shell-block table
  /// is built once, on the calling thread, and read by every slot, so
  /// every rank and thread makes the same skip decisions. Stores the
  /// number of quartets evaluated in `*quartets` when it is non-null.
  /// Throws std::invalid_argument unless `density` is n x n and
  /// symmetric (see chem::FockBuilder::execute_task).
  linalg::Matrix build_g(const linalg::Matrix& density,
                         chem::Screen screen = chem::Screen::kSchwarz,
                         std::uint64_t* quartets = nullptr);

  /// Execution statistics of the most recent build_g call. Per-rank
  /// tasks_executed counts TASKS (summed over that rank's threads);
  /// busy_seconds sums thread-local kernel time, so it can exceed the
  /// phase wall time when threads > 1.
  const exec::ExecutionStats& last_stats() const { return last_stats_; }
  /// Total build_g invocations (SCF iterations served).
  int builds() const { return builds_; }
  /// The fixed slot partition (for tests/benches).
  std::int64_t slot_count() const {
    return static_cast<std::int64_t>(slots_.size());
  }

 private:
  void make_slots();
  lb::Assignment slot_assignment() const;
  /// Runs every slot; slot s writes its quartet count to
  /// slot_quartets[s] (each slot runs exactly once).
  exec::ExecutionStats run_hybrid(const std::vector<linalg::Matrix>& density,
                                  const linalg::Matrix* block_max,
                                  std::vector<std::uint64_t>& slot_quartets,
                                  std::vector<JkBuffer*>& rank_roots);
  void attach_metrics();

  /// Pre-resolved "fock/..." instruments (see DistributedFockOptions::
  /// metrics). Null pointers when no registry is attached.
  struct FockMetrics {
    util::Counter* builds = nullptr;
    util::Counter* tasks = nullptr;
    util::Counter* quartets = nullptr;
    util::Gauge* phase_get = nullptr;
    util::Gauge* phase_execute = nullptr;
    util::Gauge* phase_accumulate = nullptr;
    util::Gauge* reduction_buffers = nullptr;
  };

  const chem::BasisSet* basis_;
  pgas::Runtime* runtime_;
  DistributedFockOptions options_;
  chem::FockBuilder fock_;
  std::vector<chem::ShellPairTask> tasks_;
  /// Fixed reduction-slot partition: slots_[s] = [first, last) task
  /// range, slot_costs_[s] = summed cost estimate (for the balancer).
  std::vector<std::pair<std::int64_t, std::int64_t>> slots_;
  std::vector<double> slot_costs_;
  /// Home rank of each slot (static placement and stealing seed).
  lb::Assignment slot_home_;
  exec::SlotSchedule schedule_;
  /// Per-rank thread pools, reused across SCF iterations.
  exec::SlotScheduler scheduler_;
  JkBufferPool buffer_pool_;
  exec::ExecutionStats last_stats_;
  int builds_ = 0;
  FockMetrics metrics_;
};

}  // namespace emc::core
