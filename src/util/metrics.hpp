#pragma once

// Lightweight runtime-metrics registry: named counters, gauges, and
// log-scale histograms with cheap thread-safe updates.
//
// Intended usage is resolve-once / update-often: a subsystem looks its
// metrics up by name when instrumentation is attached (registration takes
// a lock) and then holds plain references whose updates are single
// relaxed atomics — cheap enough for PGAS one-sided-op and scheduler hot
// paths. Snapshots serve the observability readers (scf_server's
// per-tenant summary, perfbench's per-layer attribution).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace emc::util {

/// Monotonic integer count. Updates are relaxed atomics.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Double-valued level: set to the latest value or accumulated with add
/// (CAS loop — gauges are not meant for per-task hot paths).
class Gauge {
 public:
  void set(double value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale (power-of-two bins) histogram of positive doubles, plus
/// count/sum/min/max. Values spanning many orders of magnitude — task
/// costs, wait times, transfer sizes — land in stable bins without
/// configuration. Bin b covers [2^(b + kMinExp), 2^(b + kMinExp + 1));
/// out-of-range values clamp to the first/last bin.
///
/// Internally each log2 bin is subdivided into kSubBins equal-width
/// LINEAR sub-bins (HdrHistogram-style log-linear binning), so
/// percentile estimates resolve to 1/kSubBins of the value's
/// power-of-two bracket instead of the full factor of 2. The exported
/// log2 bins() aggregate the sub-bins and are bitwise identical to the
/// pre-sub-bin layout — snapshots are unchanged except for the sharper
/// p50/p90/p99 values themselves.
class Histogram {
 public:
  static constexpr int kBins = 64;
  static constexpr int kMinExp = -44;  ///< 2^-44 ~ 5.7e-14 lower edge
  static constexpr int kSubBins = 8;   ///< linear sub-bins per log2 bin
  static constexpr int kFineBins = kBins * kSubBins;

  void record(double value);
  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  /// Snapshot of the per-log2-bin counts (sub-bins aggregated).
  std::array<std::int64_t, kBins> bins() const;
  /// Snapshot of the per-sub-bin counts (percentile resolution).
  std::array<std::int64_t, kFineBins> fine_bins() const;
  /// Lower edge of log2 bin b.
  static double bin_lower_bound(int bin);
  /// Lower edge of sub-bin f (f = bin * kSubBins + sub): the log2 bin's
  /// lower edge L scaled by (1 + sub / kSubBins).
  static double fine_lower_bound(int fine);
  /// Exclusive upper edge of sub-bin f.
  static double fine_upper_bound(int fine);
  void reset();

 private:
  std::array<std::atomic<std::int64_t>, kFineBins> bins_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of every registered metric, for reports.
struct MetricsSnapshot {
  struct HistogramValue {
    std::int64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    /// sum / count (0 when empty), precomputed so consumers never
    /// divide by zero themselves.
    double mean = 0.0;
    /// Percentile estimates from the binned counts (see percentile());
    /// filled by MetricsRegistry::snapshot.
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
    /// (log2-bin lower edge, count) for non-empty bins only — the
    /// exported granularity, bitwise identical to the pre-sub-bin
    /// snapshots.
    std::vector<std::pair<double, std::int64_t>> bins;
    /// (sub-bin lower edge, count) for non-empty linear sub-bins —
    /// internal percentile resolution.
    std::vector<std::pair<double, std::int64_t>> fine;

    /// Percentile estimate for q in [0, 1]: cumulative walk over the
    /// linear sub-bins (falling back to the log2 bins when `fine` is
    /// unset, e.g. on hand-built values), linear interpolation inside
    /// the sub-bin holding the q-th sample over the sub-bin's support
    /// intersected with the observed [min, max], and a final clamp to
    /// [min, max] so estimates never leave the true sample range.
    ///
    /// EXACTNESS (regression-tested in tests/test_util.cpp):
    ///   - empty histogram -> 0; q = 0 -> min and q = 1 -> max, exact;
    ///   - a histogram whose samples share one value is exact at every
    ///     q (the [min, max] clamp collapses the estimate);
    ///   - otherwise the error is bounded by the width of one linear
    ///     sub-bin: 1/kSubBins of the sample's power-of-two bracket
    ///     (<= 12.5% relative for kSubBins = 8), versus the factor-of-2
    ///     bound of pure log2 binning.
    double percentile(double q) const;
  };
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValue> histograms;
};

/// Name -> metric registry. Registration (the first counter()/gauge()/
/// histogram() call per name) takes an exclusive lock; later lookups a
/// shared lock; returned references stay valid for the registry's
/// lifetime, so hot paths resolve once and update lock-free. A name
/// registered as one kind cannot be re-registered as another
/// (std::invalid_argument).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time copy of every metric's value.
  ///
  /// SNAPSHOT-AFTER-JOIN CONTRACT: all updates are relaxed atomics, so
  /// a snapshot taken while writer threads are still running may
  /// observe torn in-flight aggregates — e.g. a histogram whose count
  /// no longer equals the sum of its bins, or a counter mid-batch.
  /// Each individual load is atomic (never garbage), but there is no
  /// cross-metric or cross-field ordering. Exact, mutually consistent
  /// values are guaranteed only once the writing threads have been
  /// joined (thread join / ThreadPool::run return / Runtime::run return
  /// all publish a happens-before edge). Bench drivers and reports must
  /// therefore snapshot AFTER the run they report on has joined —
  /// enforced by tests/test_util.cpp SnapshotAfterJoinIsExact. The same
  /// caveat applies to exec::WsDeque::size_estimate.
  MetricsSnapshot snapshot() const;
  /// Zeroes every metric's value; registrations (and outstanding
  /// references) stay valid.
  void reset();
  /// Drops all registrations. Outstanding references become dangling —
  /// only for teardown between independent runs.
  void clear();
  std::size_t size() const;

  /// Process-wide default registry.
  static MetricsRegistry& global();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace emc::util
