#pragma once

// The execution models under study, as one real multithreaded slot
// scheduler over the PGAS runtime. Executors are ranks × threads: each
// rank owns a persistent ThreadPool, and every pool thread runs the same
// executor loop, drawing slots from one of three sources:
//
//   * static        — a cyclic slice of the rank's home slots
//   * counter       — GA-nxtval chunked self-scheduling, either over the
//                     rank's home slots (a rank-local atomic) or over all
//                     slots (the global counter shared by every rank)
//   * work stealing — per-executor Chase–Lev deques seeded cyclically over
//                     the rank's threads; victims are co-threads first,
//                     then remote ranks, and a thief takes half the
//                     victim's queue
//
// The same Policy names both scheduling levels. The inter-rank policy
// decides the scope: static keeps every slot on its home rank and lets
// the intra-rank policy divide it among the rank's threads; counter and
// work stealing schedule all slots across all executors, so the intra
// policy is not consulted.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/thread_pool.hpp"
#include "lb/partition.hpp"
#include "pgas/runtime.hpp"

namespace emc::exec {

enum class Policy {
  kStatic,        ///< fixed home assignment, cyclic thread slices
  kCounter,       ///< GA-nxtval chunked self-scheduling
  kWorkStealing,  ///< Chase-Lev deques, random victims, steal half
};

struct RankStats {
  std::int64_t tasks_executed = 0;
  double busy_seconds = 0.0;        ///< time inside task bodies
  std::int64_t steal_attempts = 0;
  std::int64_t steals = 0;          ///< successful steals
  std::int64_t counter_ops = 0;
};

struct ExecutionStats {
  double wall_seconds = 0.0;
  std::vector<RankStats> ranks;

  std::int64_t total_tasks() const;
  std::int64_t total_steals() const;
  /// Mean over ranks of busy/wall — the utilization metric of EXP-3.
  double utilization() const;
};

struct WorkStealingOptions {
  std::uint64_t seed = 7;    ///< victim-selection RNG seed
};

struct SlotSchedule {
  Policy inter = Policy::kWorkStealing;
  /// Divides a rank's home slots among its threads; read only when
  /// inter == kStatic.
  Policy intra = Policy::kStatic;
  /// Slots per global-counter grab (inter == kCounter).
  std::int64_t counter_chunk = 4;
  /// Slots per rank-local counter grab (inter == kStatic, intra ==
  /// kCounter).
  std::int64_t intra_chunk = 1;
  WorkStealingOptions steal;

  /// Throws std::invalid_argument when a chunk is < 1.
  void validate() const;
};

/// Runs one slot on executor (rank, thread). The scheduler accounts
/// steals and counter ops in `stats`; the body accounts its own work
/// (tasks_executed, busy_seconds).
using SlotBody =
    std::function<void(std::int64_t slot, int rank, RankStats& stats)>;

class SlotScheduler {
 public:
  /// One pool of `threads` executors per rank of `runtime` (reused
  /// across runs). Throws std::invalid_argument when threads < 1.
  SlotScheduler(pgas::Runtime& runtime, int threads);

  /// Executes every slot s in [0, home.size()) exactly once; home[s] is
  /// the rank that owns slot s (the static placement and the stealing
  /// seed). `rank_done(rank)`, when set, runs on each rank's thread
  /// once all of that rank's executors have drained. The first
  /// exception thrown by a body stops every executor and is rethrown.
  ExecutionStats run(const SlotSchedule& schedule, const lb::Assignment& home,
                     const SlotBody& body,
                     const std::function<void(int rank)>& rank_done = {});

 private:
  pgas::Runtime* runtime_;
  int threads_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

}  // namespace emc::exec
