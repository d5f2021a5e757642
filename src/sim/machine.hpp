#pragma once

// Simulated cluster model: processors grouped into nodes, per-operation
// latencies calibrated to Global-Arrays-class interconnects, and optional
// per-core performance variability ("energy-induced" noise).
//
// This is the substitution for the paper's physical cluster (see
// DESIGN.md): scheduling behaviour depends on task costs and relative
// overheads, both of which this model captures; absolute times are in
// seconds but their meaning is "simulated seconds".

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace emc::sim {

/// Perturbation model for the resilience experiments (EXP-9b): transient
/// per-proc slowdowns or stalls, dropped one-sided operations with
/// exponential-backoff retries, and a counter-home outage window. All
/// randomness derives from MachineConfig::seed, so a faulted run replays
/// exactly (same seed + same model => same makespan, trace, and retry
/// counts).
struct FaultModel {
  /// Probability that a given proc suffers one transient fault window.
  double fault_prob = 0.0;
  /// Window onset drawn uniformly from [onset_min, onset_max] seconds.
  double onset_min = 0.0;
  double onset_max = 0.0;
  /// Window length in simulated seconds.
  double duration = 0.0;
  /// Core speed multiplier inside the window, in [0, 1]. 0 is a full
  /// stall: the in-flight task's work is lost and the task re-executes
  /// from scratch once the window closes (a kTaskReexec trace event).
  double slowdown_factor = 0.0;

  /// Probability that a one-sided op round trip (counter fetch-and-add,
  /// steal request) is dropped and must be retried.
  double drop_prob = 0.0;
  /// Backoff before retry k (0-based) is retry_backoff * multiplier^k.
  double retry_backoff = 0.5e-6;
  double backoff_multiplier = 2.0;
  /// Consecutive drops are capped here; the next attempt is forced
  /// through (models protocol-level recovery), bounding every retry loop.
  int max_retries = 16;

  /// Counter-home outage: requests arriving inside
  /// [outage_start, outage_start + outage_duration) are held until the
  /// window closes. A negative start disables the outage.
  double outage_start = -1.0;
  double outage_duration = 0.0;

  bool enabled() const {
    return fault_prob > 0.0 || drop_prob > 0.0 ||
           (outage_start >= 0.0 && outage_duration > 0.0);
  }
};

struct MachineConfig {
  int n_procs = 64;
  int procs_per_node = 16;

  /// Latencies in (simulated) seconds. Defaults approximate published
  /// ARMCI/IB numbers: ~1.5 us one-sided remote op, ~0.3 us on-node.
  double intra_node_latency = 0.3e-6;
  double inter_node_latency = 1.5e-6;
  double counter_service = 0.1e-6;  ///< serialization at the counter home
  double task_overhead = 0.05e-6;   ///< per-task dispatch cost
  double steal_fail_retry = 0.5e-6; ///< back-off after a failed steal

  /// Per-core static speed variability: core speeds are drawn uniformly
  /// from [1 - noise_amplitude, 1]; 0 disables.
  double noise_amplitude = 0.0;

  /// When true, simulators record typed TraceEvents (task executions,
  /// steal attempts with victim provenance, counter round trips) in
  /// SimResult::trace for timeline/anatomy analysis and Chrome-trace
  /// export. Off by default: recording must cost nothing when disabled.
  bool record_trace = false;

  /// Fault injection; FaultModel{} (all zeros) means a benign machine.
  FaultModel faults;

  /// Interconnect model (src/net): topology, per-link bandwidth, and
  /// message sizing. The default legacy-flat config reproduces the seed
  /// simulator bitwise — link_latency below is its closed form. Anything
  /// else routes every simulated message over shared links whose
  /// occupancy serializes concurrent transfers (congestion shows up as
  /// kLinkWait trace events and SimResult::net_link_wait).
  net::NetworkConfig network;

  /// When set, each simulate_* run exports its network counters here
  /// (net/messages, net/link_wait_seconds, net/hottest_link, ...) via
  /// net::NetworkModel::write_metrics. Not owned; may be null.
  util::MetricsRegistry* metrics = nullptr;

  std::uint64_t seed = 1;

  int node_of(int proc) const { return proc / procs_per_node; }
  /// Latency floor of a one-sided operation from `from` to `to` — the
  /// legacy flat model's entire cost, and every topology's uncongested
  /// endpoint term.
  double link_latency(int from, int to) const {
    if (from == to) return 0.0;
    return node_of(from) == node_of(to) ? intra_node_latency
                                        : inter_node_latency;
  }
};

/// Builds the stateful per-run network for this machine. Each simulator
/// constructs one so link occupancy starts empty per run.
net::NetworkModel make_network(const MachineConfig& config);

/// Per-core speed factors (execution time divides by the factor).
std::vector<double> draw_core_speeds(const MachineConfig& config);

/// One compiled fault window: proc runs at `factor` speed inside
/// [start, end); factor == 0 stalls the proc and loses in-flight work.
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;
  double factor = 1.0;

  bool exists() const { return end > start; }
};

/// Deterministic replay schedule compiled from MachineConfig::{faults,
/// seed, n_procs}: at most one fault window per proc, stateless-hash
/// drop decisions, and the counter-home outage. Every simulator builds
/// one; when the model is disabled all queries are cheap no-ops.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  /// Compiles the schedule; throws std::invalid_argument on a malformed
  /// model (probabilities outside [0, 1), negative durations/backoff,
  /// onset_max < onset_min, max_retries < 1).
  explicit FaultSchedule(const MachineConfig& config);

  bool active() const { return active_; }
  const FaultModel& model() const { return model_; }
  /// The fault window of `proc` (exists() == false when unfaulted).
  const FaultWindow& window(int proc) const;

  /// Finish time of `work` seconds of execution starting at `start` on
  /// `proc`, honoring the proc's fault window. A stall loses in-flight
  /// work: `restarts` (if non-null) is incremented and `last_restart`
  /// (if non-null) receives the time the surviving execution began.
  double finish_time(int proc, double start, double work,
                     int* restarts = nullptr,
                     double* last_restart = nullptr) const;

  /// Deterministic drop decision for retry `attempt` of logical op
  /// `op_seq` issued by `proc`. Always false once attempt reaches
  /// max_retries, so retry loops terminate.
  bool drop_op(int proc, std::uint64_t op_seq, int attempt) const;

  /// Backoff delay before retry `attempt` (0-based).
  double backoff(int attempt) const;

  /// Earliest time the counter home can see a request arriving at
  /// `arrival` (pushed past the outage window when one is configured).
  double outage_release(double arrival) const;

 private:
  FaultModel model_;
  std::uint64_t seed_ = 0;
  bool active_ = false;
  std::vector<FaultWindow> windows_;  ///< one slot per proc
};

struct SimResult {
  double makespan = 0.0;                 ///< simulated completion time
  std::vector<double> busy;              ///< per-proc task-execution time
  std::vector<std::int64_t> tasks_executed;
  std::int64_t steals = 0;
  std::int64_t steal_attempts = 0;
  std::int64_t counter_ops = 0;
  double counter_wait = 0.0;             ///< total time spent on counter
  double steal_wait = 0.0;               ///< total time spent stealing
  std::int64_t op_retries = 0;           ///< one-sided ops dropped+retried
  std::int64_t tasks_reexecuted = 0;     ///< executions lost to stalls
  std::int64_t net_messages = 0;         ///< messages through the network
  std::int64_t net_congested = 0;        ///< messages that queued on a link
  double net_bytes = 0.0;                ///< payload bytes moved
  double net_link_wait = 0.0;            ///< total link-queue wait, seconds
  std::int64_t events_processed = 0;     ///< event-loop pops (sim-speed
                                         ///< denominator for events/sec)
  std::vector<TraceEvent> trace;         ///< typed events, if recorded

  /// Mean busy fraction = sum(busy) / (P * makespan); EXP-3's metric.
  double utilization() const;
};

/// Bins the recorded trace into `bins` equal slices of [0, makespan] and
/// returns the fraction of processors busy in each — the utilization-
/// over-time curve of the paper's figures. Requires record_trace.
/// Throws std::invalid_argument if the trace is empty or bins < 1.
/// (Convenience over the span-based overload in sim/trace.hpp.)
std::vector<double> utilization_timeline(const SimResult& result,
                                         int n_procs, int bins);

/// Concatenates the traces of a multi-round run (simulate_retentive /
/// simulate_persistence) into one timeline: round r's events are offset
/// by the cumulative makespan of rounds [0, r), with a kIterationBoundary
/// event (task = round index, proc = 0) marking each round's start.
std::vector<TraceEvent> merge_round_traces(
    std::span<const SimResult> rounds);

}  // namespace emc::sim
