#include "sim/machine.hpp"

#include <algorithm>
#include <stdexcept>

namespace emc::sim {

net::NetworkModel make_network(const MachineConfig& config) {
  return net::NetworkModel(config.network, config.n_procs,
                           config.procs_per_node,
                           config.intra_node_latency,
                           config.inter_node_latency);
}

std::vector<double> draw_core_speeds(const MachineConfig& config) {
  std::vector<double> speeds(static_cast<std::size_t>(config.n_procs), 1.0);
  if (config.noise_amplitude <= 0.0) return speeds;
  emc::Rng rng(config.seed ^ 0xc0ffee);
  for (double& s : speeds) {
    s = 1.0 - config.noise_amplitude * rng.uniform();
  }
  return speeds;
}

namespace {

void validate_fault_model(const FaultModel& model) {
  const bool bad_prob = model.fault_prob < 0.0 || model.fault_prob > 1.0 ||
                        model.drop_prob < 0.0 || model.drop_prob >= 1.0;
  if (bad_prob) {
    throw std::invalid_argument(
        "FaultModel: fault_prob must be in [0,1], drop_prob in [0,1)");
  }
  if (model.duration < 0.0 || model.onset_min < 0.0 ||
      model.onset_max < model.onset_min) {
    throw std::invalid_argument("FaultModel: bad onset/duration");
  }
  if (model.slowdown_factor < 0.0 || model.slowdown_factor > 1.0) {
    throw std::invalid_argument(
        "FaultModel: slowdown_factor outside [0,1]");
  }
  if (model.retry_backoff < 0.0 || model.backoff_multiplier < 1.0 ||
      model.max_retries < 1) {
    throw std::invalid_argument("FaultModel: bad retry parameters");
  }
  if (model.outage_duration < 0.0) {
    throw std::invalid_argument("FaultModel: negative outage duration");
  }
}

}  // namespace

FaultSchedule::FaultSchedule(const MachineConfig& config)
    : model_(config.faults), seed_(config.seed), active_(config.faults.enabled()) {
  validate_fault_model(model_);
  if (!active_) return;
  windows_.assign(static_cast<std::size_t>(config.n_procs), FaultWindow{});
  if (model_.fault_prob <= 0.0 || model_.duration <= 0.0) return;
  emc::Rng rng(seed_ ^ 0xfa017ULL);
  for (auto& w : windows_) {
    // Draw both variates unconditionally so the per-proc stream does not
    // shift when fault_prob changes.
    const double hit = rng.uniform();
    const double onset = rng.uniform(model_.onset_min, model_.onset_max);
    if (hit >= model_.fault_prob) continue;
    w.start = onset;
    w.end = onset + model_.duration;
    w.factor = model_.slowdown_factor;
  }
}

const FaultWindow& FaultSchedule::window(int proc) const {
  static const FaultWindow kNone{};
  const auto p = static_cast<std::size_t>(proc);
  return p < windows_.size() ? windows_[p] : kNone;
}

double FaultSchedule::finish_time(int proc, double start, double work,
                                  int* restarts,
                                  double* last_restart) const {
  if (!active_) return start + work;
  const FaultWindow& w = window(proc);
  if (!w.exists() || start >= w.end) return start + work;

  double t = start;
  double remaining = work;
  if (start < w.start) {
    const double head = w.start - start;
    if (head >= remaining) return start + remaining;  // done before fault
    if (w.factor <= 0.0) {
      // Stall mid-flight: the partial execution is lost and the task
      // re-runs from scratch once the window closes.
      if (restarts != nullptr) ++*restarts;
      if (last_restart != nullptr) *last_restart = w.end;
      return w.end + work;
    }
    remaining -= head;
    t = w.start;
  } else if (w.factor <= 0.0) {
    // Dispatched inside a stall: nothing executed yet, just deferred.
    return w.end + work;
  }

  // Dilated progress inside the window (factor > 0).
  const double capacity = (w.end - t) * w.factor;
  if (capacity >= remaining) return t + remaining / w.factor;
  return w.end + (remaining - capacity);
}

bool FaultSchedule::drop_op(int proc, std::uint64_t op_seq,
                            int attempt) const {
  if (!active_ || model_.drop_prob <= 0.0) return false;
  if (attempt >= model_.max_retries) return false;  // forced through
  std::uint64_t h = seed_ ^
                    (static_cast<std::uint64_t>(proc) + 1) *
                        0x9e3779b97f4a7c15ULL ^
                    (op_seq + 1) * 0xbf58476d1ce4e5b9ULL ^
                    (static_cast<std::uint64_t>(attempt) + 1) *
                        0x94d049bb133111ebULL;
  return unit_interval(splitmix64(h)) < model_.drop_prob;
}

double FaultSchedule::backoff(int attempt) const {
  double delay = model_.retry_backoff;
  for (int i = 0; i < attempt; ++i) delay *= model_.backoff_multiplier;
  return delay;
}

double FaultSchedule::outage_release(double arrival) const {
  if (!active_ || model_.outage_start < 0.0 ||
      model_.outage_duration <= 0.0) {
    return arrival;
  }
  const double end = model_.outage_start + model_.outage_duration;
  if (arrival >= model_.outage_start && arrival < end) return end;
  return arrival;
}

std::vector<double> utilization_timeline(const SimResult& result,
                                         int n_procs, int bins) {
  return utilization_timeline(std::span<const TraceEvent>(result.trace),
                              result.makespan, n_procs, bins);
}

std::vector<TraceEvent> merge_round_traces(
    std::span<const SimResult> rounds) {
  std::vector<TraceEvent> merged;
  double offset = 0.0;
  for (std::size_t round = 0; round < rounds.size(); ++round) {
    TraceEvent boundary;
    boundary.type = TraceEventType::kIterationBoundary;
    boundary.proc = 0;
    boundary.task = static_cast<std::int64_t>(round);
    boundary.start = offset;
    boundary.end = offset;
    merged.push_back(boundary);
    for (TraceEvent ev : rounds[round].trace) {
      ev.start += offset;
      ev.end += offset;
      merged.push_back(ev);
    }
    offset += rounds[round].makespan;
  }
  return merged;
}

double SimResult::utilization() const {
  if (busy.empty() || makespan <= 0.0) return 0.0;
  double total = 0.0;
  for (double b : busy) total += b;
  return total / (makespan * static_cast<double>(busy.size()));
}

}  // namespace emc::sim
