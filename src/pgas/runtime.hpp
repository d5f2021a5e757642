#pragma once

// Thread-backed PGAS runtime in the style of Global Arrays / ARMCI.
//
// The paper's kernel runs over Global Arrays: an SPMD process group with
// one-sided access to distributed data and an atomic global counter
// ("nxtval") for dynamic scheduling. This runtime reproduces those
// semantics with one std::thread per rank. A CommCostModel can inject
// artificial latency into remote operations so runtime overheads (steal
// round-trips, counter contention) remain visible even on shared memory.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/metrics.hpp"

namespace emc::pgas {

/// Latency model for one-sided operations, in nanoseconds. Remote means
/// "owned by another rank". Zero-initialized = free (pure shared memory).
struct CommCostModel {
  std::uint64_t local_ns = 0;       ///< local get/put/acc overhead
  std::uint64_t remote_ns = 0;      ///< remote operation base latency
  std::uint64_t per_byte_ns = 0;    ///< payload transfer cost
  std::uint64_t counter_ns = 0;     ///< global fetch-and-add round trip

  // Fault injection for one-sided operations. Each op attempt is dropped
  // with probability drop_prob; a dropped attempt wastes its round trip,
  // backs off exponentially (retry_backoff_ns * backoff_multiplier^k),
  // and is reissued. Drop decisions are a stateless hash of (fault_seed,
  // rank, op_seq, attempt) — no shared RNG state, so a given operation
  // stream replays identically. After max_attempts consecutive drops the
  // op times out with std::runtime_error. Faults never corrupt data:
  // only the attempt that goes through touches memory.
  double drop_prob = 0.0;           ///< per-attempt drop probability
  int max_attempts = 8;             ///< attempts before timeout throw
  std::uint64_t retry_backoff_ns = 200;  ///< base backoff before retry
  double backoff_multiplier = 2.0;  ///< exponential backoff growth
  std::uint64_t fault_seed = 0x5eedULL;  ///< hash seed for drop decisions

  std::uint64_t transfer_cost(bool remote, std::size_t bytes) const {
    return (remote ? remote_ns : local_ns) +
           per_byte_ns * static_cast<std::uint64_t>(bytes);
  }

  bool faults_enabled() const { return drop_prob > 0.0; }
};

/// Busy-waits for the given simulated latency (no-op for 0).
void inject_delay(std::uint64_t nanoseconds);

/// Replays the drop/retry protocol for one one-sided operation, before
/// the operation itself runs: while the (fault_seed, rank, op_seq,
/// attempt) hash says "dropped", pays the wasted round trip
/// (`op_latency_ns`) plus exponential backoff and reissues. Returns the
/// number of retries performed (0 = clean first attempt). Throws
/// std::runtime_error if all max_attempts attempts are dropped — the
/// operation timed out. No-op returning 0 when faults are disabled.
int resolve_with_retries(const CommCostModel& cost, int rank,
                         std::uint64_t op_seq, std::uint64_t op_latency_ns);

class Runtime;

/// Per-rank handle passed to the SPMD body.
class Context {
 public:
  int rank() const { return rank_; }
  int size() const;
  void barrier();
  const CommCostModel& cost_model() const;

 private:
  friend class Runtime;
  Context(Runtime* rt, int rank) : runtime_(rt), rank_(rank) {}

  Runtime* runtime_;
  int rank_;
};

/// SPMD process group. `run` launches one thread per rank and blocks
/// until all return. The runtime may be reused for several runs.
class Runtime {
 public:
  explicit Runtime(int n_ranks, CommCostModel cost_model = {});

  int size() const { return n_ranks_; }
  const CommCostModel& cost_model() const { return cost_model_; }

  /// Attaches a metrics registry: barriers record per-rank wait time
  /// ("pgas/r<k>/barrier_wait_seconds", "pgas/r<k>/barriers") and
  /// GlobalCounter/GlobalArray users (see their set_metrics) share the
  /// same registry via metrics(). Counters are resolved here once, so
  /// per-operation recording is a relaxed atomic. nullptr detaches; the
  /// registry must outlive the runtime.
  void set_metrics(util::MetricsRegistry* registry);
  util::MetricsRegistry* metrics() const { return metrics_; }

  /// Executes `body(ctx)` on every rank concurrently. Exceptions thrown
  /// by any rank are captured and the first one is rethrown here after
  /// all ranks join.
  void run(const std::function<void(Context&)>& body);

 private:
  friend class Context;

  struct RankBarrierMetrics {
    util::Counter* barriers = nullptr;
    util::Gauge* wait_seconds = nullptr;
  };

  int n_ranks_;
  CommCostModel cost_model_;
  std::barrier<> barrier_;
  util::MetricsRegistry* metrics_ = nullptr;
  std::vector<RankBarrierMetrics> rank_metrics_;
};

/// Global atomic counter with GA-nxtval semantics: fetch_add returns the
/// previous value. Latency injection models the remote round trip.
class GlobalCounter {
 public:
  explicit GlobalCounter(std::int64_t initial = 0) : value_(initial) {}

  /// Resolves "pgas/nxtval_ops", "pgas/nxtval_retries", and per-rank
  /// "pgas/r<k>/nxtval_ops" counters; rank-aware fetch_add calls record
  /// into both. The registry must outlive the counter.
  void attach_metrics(util::MetricsRegistry& registry, int n_ranks);

  /// With faults enabled in `cost`, the round trip may be dropped and
  /// retried with backoff (see resolve_with_retries); the fetch-add
  /// itself executes exactly once, after the protocol succeeds.
  std::int64_t fetch_add(std::int64_t delta, const CommCostModel& cost,
                         int rank = -1) {
    if (cost.faults_enabled()) {
      const std::uint64_t seq =
          fault_seq_.fetch_add(1, std::memory_order_relaxed);
      const int retries =
          resolve_with_retries(cost, rank, seq, cost.counter_ns);
      if (retries > 0 && retry_ops_ != nullptr) retry_ops_->add(retries);
    }
    inject_delay(cost.counter_ns);
    if (total_ops_ != nullptr) {
      total_ops_->add(1);
      if (rank >= 0 &&
          rank < static_cast<int>(rank_ops_.size())) {
        rank_ops_[static_cast<std::size_t>(rank)]->add(1);
      }
    }
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }

  std::int64_t load() const {
    return value_.load(std::memory_order_relaxed);
  }

  void reset(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_;
  // Monotone sequence feeding the drop-decision hash; shared across
  // ranks, so retry placement follows the actual interleaving while each
  // individual decision stays a pure function of (seed, rank, seq).
  std::atomic<std::uint64_t> fault_seq_{0};
  util::Counter* total_ops_ = nullptr;
  util::Counter* retry_ops_ = nullptr;
  std::vector<util::Counter*> rank_ops_;
};

}  // namespace emc::pgas
