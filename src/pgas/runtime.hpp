#pragma once

// Thread-backed PGAS runtime in the style of Global Arrays / ARMCI.
//
// The paper's kernel runs over Global Arrays: an SPMD process group with
// one-sided access to distributed data and an atomic global counter
// ("nxtval") for dynamic scheduling. This runtime reproduces those
// semantics with one std::thread per rank over real shared memory.
// Network latency and faults are not modelled here: the cluster
// simulator (src/sim, MachineConfig / FaultModel) is the one place that
// prices them.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/metrics.hpp"

namespace emc::pgas {

class Runtime;

/// Per-rank handle passed to the SPMD body.
class Context {
 public:
  int rank() const { return rank_; }
  int size() const;
  void barrier();

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
  explicit Runtime(int n_ranks);

  int size() const { return n_ranks_; }

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
  std::barrier<> barrier_;
  util::MetricsRegistry* metrics_ = nullptr;
  std::vector<RankBarrierMetrics> rank_metrics_;
};

/// Global atomic counter with GA-nxtval semantics: fetch_add returns the
/// previous value.
class GlobalCounter {
 public:
  explicit GlobalCounter(std::int64_t initial = 0) : value_(initial) {}

  /// Resolves "pgas/nxtval_ops" and per-rank "pgas/r<k>/nxtval_ops"
  /// counters; rank-aware fetch_add calls record into both. The
  /// registry must outlive the counter.
  void attach_metrics(util::MetricsRegistry& registry, int n_ranks);

  std::int64_t fetch_add(std::int64_t delta, int rank = -1) {
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
  util::Counter* total_ops_ = nullptr;
  std::vector<util::Counter*> rank_ops_;
};

}  // namespace emc::pgas
