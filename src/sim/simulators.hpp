#pragma once

// Deterministic discrete-event replays of each execution model on the
// simulated cluster. Inputs are a task-cost vector (seconds of work per
// task, e.g. measured from the real Fock kernel) and the machine model;
// outputs are makespan, per-proc utilization, and overhead anatomy.

#include <span>
#include <vector>

#include "lb/partition.hpp"
#include "sim/machine.hpp"

namespace emc::sim {

/// Static execution: every proc runs exactly its assigned tasks.
SimResult simulate_static(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment);

/// How the dynamic counter doles out work per grab.
enum class ChunkPolicy {
  kFixed,      ///< constant `chunk`
  kGuided,     ///< guided self-scheduling: ceil(remaining / P)
  kTrapezoid,  ///< trapezoid self-scheduling: linearly decreasing chunks
};

struct CounterOptions {
  std::int64_t chunk = 1;        ///< fixed size, or the floor for
                                 ///< guided/trapezoid
  ChunkPolicy policy = ChunkPolicy::kFixed;
};

/// Dynamic shared-counter self-scheduling. The counter is served
/// serially at its home node, so contention grows with proc count — the
/// effect EXP-8 quantifies.
SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           std::int64_t chunk);
SimResult simulate_counter(const MachineConfig& config,
                           std::span<const double> costs,
                           const CounterOptions& options);

/// Two-level counter: each node's leader grabs `node_chunk` tasks from
/// the global counter (inter-node round trip, global serialization);
/// procs then self-schedule `proc_chunk`-sized pieces from their node's
/// counter (intra-node). The classic fix for global-counter contention.
SimResult simulate_hierarchical_counter(const MachineConfig& config,
                                        std::span<const double> costs,
                                        std::int64_t node_chunk,
                                        std::int64_t proc_chunk);

/// Hybrid static/dynamic: the first (1 - dynamic_fraction) of the total
/// work follows `assignment`; the remaining tail is self-scheduled via
/// the shared counter once a proc exhausts its static part. The paper's
/// "balance between work units and overheads" sweet spot often lands
/// here.
SimResult simulate_hybrid(const MachineConfig& config,
                          std::span<const double> costs,
                          const lb::Assignment& assignment,
                          double dynamic_fraction, std::int64_t chunk = 1);

/// Victim-selection policy for work stealing.
enum class VictimPolicy {
  kUniform,    ///< uniformly random other proc
  kNodeFirst,  ///< prefer node-local victims, escalate on failure
  kRing,       ///< deterministic scan from the thief's right neighbour
};

struct StealOptions {
  VictimPolicy victim = VictimPolicy::kUniform;
  std::uint64_t seed = 7;
};

/// Work stealing from an initial placement. A successful steal takes the
/// victim's oldest task and migrates half of what remains in its queue.
/// If `executed_by` is non-null it receives the executing proc per task
/// (for retentive reuse).
SimResult simulate_work_stealing(const MachineConfig& config,
                                 std::span<const double> costs,
                                 const lb::Assignment& initial,
                                 const StealOptions& options = {},
                                 std::vector<int>* executed_by = nullptr);

/// Retentive work stealing across `iterations` rounds of the same task
/// list (an iterative SCF kernel); round r+1 starts from round r's final
/// placement.
std::vector<SimResult> simulate_retentive(const MachineConfig& config,
                                          std::span<const double> costs,
                                          const lb::Assignment& initial,
                                          int iterations,
                                          const StealOptions& options = {});

/// Persistence-based inspector-executor balancing: round 1 executes the
/// given assignment statically; every later round is statically
/// re-balanced by LPT over the costs *observed* in round 1 (the
/// principle-of-persistence alternative to retentive stealing). The
/// balancer's own runtime is charged to each rebalanced round's
/// makespan via `rebalance_cost_seconds`.
std::vector<SimResult> simulate_persistence(
    const MachineConfig& config, std::span<const double> costs,
    const lb::Assignment& initial, int iterations,
    double rebalance_cost_seconds = 0.0);

}  // namespace emc::sim
