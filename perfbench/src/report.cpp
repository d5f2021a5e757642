#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

namespace {

using emc::util::json_quote;

std::string json_number(double value) {
  return std::isfinite(value) ? emc::util::format_double(value) : "null";
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  // VmHWM rather than getrusage: ru_maxrss survives exec, so it would
  // report the launching process's size when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!metrics_.emplace(name, std::make_pair(value, unit)).second) {
    throw std::logic_error("metric reported twice: " + name);
  }
  if (!std::isfinite(value)) check(false, "metric " + name + " is not finite");
}

void Report::info(const std::string& key, double value) {
  info_[key] = json_number(value);
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = json_quote(value);
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": {\"value\": " + json_number(entry.first) +
           ", \"unit\": " + json_quote(entry.second) + "}";
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, literal] : info_) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(key) + ": " + literal;
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(failures_[i]);
  }
  return out + "]}";
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<double>& op_seconds,
                       const std::vector<double>& tail_seconds,
                       double tail_percentile, double throughput_per_s) {
  report.metric("setup_s", setup_s, "s");
  report.metric("latency_p50_s", median(op_seconds), "s");
  report.metric("latency_tail_s",
                emc::percentile(tail_seconds, tail_percentile / 100.0), "s");
  report.metric("throughput_per_s", throughput_per_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("samples", static_cast<double>(op_seconds.size()));
  report.info("tail_samples", static_cast<double>(tail_seconds.size()));
  report.info("tail_percentile", tail_percentile);
}

void report_trace_closure(Report& report, double wall_s, double attributed_s,
                          double traced_op_s, double untraced_op_s) {
  report.metric("trace.unattributed_s", wall_s - attributed_s, "s");
  report.metric("trace.attributed_frac", attributed_s / wall_s, "ratio");
  report.metric("trace.overhead_frac",
                (traced_op_s - untraced_op_s) / untraced_op_s, "ratio");
}

}  // namespace perfbench
