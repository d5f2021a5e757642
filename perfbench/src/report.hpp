#pragma once

// Shared plumbing of the benchmark driver: run configuration, sample
// statistics and the one-line JSON report every workload fills in.
// Timing goes through the library's emc::Timer / emc::timed_seconds.

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time of the timed operations
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool smoke = false;     ///< seconds-long size with the same checks
  int nproc = 1;          ///< CPUs this process may run on
};

using emc::timed_seconds;
using emc::Timer;

inline double median(const std::vector<double>& values) {
  return emc::percentile(values, 0.5);
}

inline double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// CPUs in this process's affinity mask.
int available_cpus();
/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

/// Metrics, checks and facts of one run, printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, double value);
  void info(const std::string& key, const std::string& value);

  /// Counts one attempted operation; `ok == false` counts it as failed
  /// and records `what` as the reason.
  void op(bool ok, const std::string& what = "");
  /// A check that is not tied to one operation; a failure counts as one
  /// more attempted and failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) op(false, what);
  }

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;  ///< key -> JSON literal
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// End-to-end metrics shared by every workload. The median is taken over
/// `op_seconds`, the wall times of the timed operations; the tail is the
/// `tail_percentile` of `tail_seconds`, fixed per workload so that it
/// leaves about ten samples above it at the workload's usual sample count
/// (100 = the slowest, for workloads with too few operations for any
/// percentile to do so).
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& op_seconds,
                       const std::vector<double>& tail_seconds,
                       double tail_percentile, double throughput_per_s);

/// Closure of a traced run: `attributed_s` of `wall_s` was spent inside
/// timed layer calls, and tracing cost the difference between the traced
/// and the untraced median operation time.
void report_trace_closure(Report& report, double wall_s, double attributed_s,
                          double traced_op_s, double untraced_op_s);

}  // namespace perfbench
