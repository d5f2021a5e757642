// sim-models: the four execution-model simulators at P in the thousands
// over a seeded permutation of water27/STO-3G analytic task costs tiled
// to about a million tasks, once on the legacy-flat network and once on
// a 2:1 fat tree. Only the event core and the network model work here; no
// chemistry runs after set-up, and analytic costs keep every simulated
// makespan deterministic.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "net/topology.hpp"
#include "sim/simulators.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sim = emc::sim;

const char* const kModels[] = {"static", "counter", "hier_counter",
                               "work_stealing"};
constexpr std::size_t kModelCount = std::size(kModels);
constexpr std::size_t kCalls = 2 * kModelCount;  // both networks

struct Inputs {
  std::vector<double> costs;
  emc::lb::Assignment initial;
  sim::MachineConfig flat;
  sim::MachineConfig fat_tree;
  double total = 0.0;
  double max_task = 0.0;
};

/// Tiles and permutes `model`'s task costs and builds both machines.
Inputs make_inputs(const emc::core::TaskModel& model, std::uint64_t seed,
                   bool smoke) {
  Inputs in;
  const int tiles = smoke ? 4 : 109;  // 109 x 9180 tasks ~ 1M
  in.costs.reserve(static_cast<std::size_t>(tiles) * model.costs.size());
  for (int t = 0; t < tiles; ++t) {
    in.costs.insert(in.costs.end(), model.costs.begin(), model.costs.end());
  }
  emc::Rng rng(seed);
  for (std::size_t i = in.costs.size() - 1; i > 0; --i) {
    std::swap(in.costs[i], in.costs[rng.below(i + 1)]);
  }
  in.flat.n_procs = smoke ? 256 : 2048;
  in.flat.seed = seed;
  in.fat_tree = in.flat;
  in.fat_tree.network.topology = emc::net::TopologyKind::kFatTree;
  in.fat_tree.network.oversubscription = 2;
  in.fat_tree.network.task_payload_bytes =
      emc::core::mean_task_comm_bytes(model);
  in.initial = emc::lb::block_assignment(in.costs.size(), in.flat.n_procs);
  for (const double c : in.costs) {
    in.total += c;
    in.max_task = std::max(in.max_task, c);
  }
  return in;
}

sim::SimResult simulate(std::size_t call, const Inputs& in,
                        std::uint64_t seed) {
  const sim::MachineConfig& m = call < kModelCount ? in.flat : in.fat_tree;
  switch (call % kModelCount) {
    case 0:
      return sim::simulate_static(m, in.costs, in.initial);
    case 1:
      return sim::simulate_counter(m, in.costs, 4);
    case 2:
      return sim::simulate_hierarchical_counter(m, in.costs, 64, 4);
    default: {
      sim::StealOptions steal;
      steal.seed = seed;
      return sim::simulate_work_stealing(m, in.costs, in.initial, steal);
    }
  }
}

struct Sweep {
  double seconds = 0.0;
  std::int64_t events = 0;
  std::vector<double> call_seconds;  ///< filled only when traced
  std::vector<sim::SimResult> results;
};

/// One sweep over both networks and all four models. Traced sweeps time
/// every simulate call; untraced ones only the whole sweep.
Sweep run_sweep(const Inputs& in, std::uint64_t seed, bool traced) {
  Sweep s;
  s.results.reserve(kCalls);
  const Timer sweep;
  for (std::size_t call = 0; call < kCalls; ++call) {
    if (traced) {
      s.call_seconds.push_back(timed_seconds(
          [&] { s.results.push_back(simulate(call, in, seed)); }));
    } else {
      s.results.push_back(simulate(call, in, seed));
    }
  }
  s.seconds = sweep.seconds();
  for (const sim::SimResult& r : s.results) s.events += r.events_processed;
  return s;
}

/// Conservation checks on every result, and bitwise replay against the
/// first sweep of the run.
void check_sweep(const Sweep& s, const Sweep& first, const Inputs& in,
                 Report& report) {
  const auto n = static_cast<std::int64_t>(in.costs.size());
  for (std::size_t call = 0; call < kCalls; ++call) {
    const sim::SimResult& r = s.results[call];
    const std::string name = std::string(kModels[call % kModelCount]) +
                             (call < kModelCount ? "/flat" : "/fat-tree");
    std::int64_t executed = 0;
    for (const std::int64_t t : r.tasks_executed) executed += t;
    double busy = 0.0;
    for (const double b : r.busy) busy += b;
    const double p = in.flat.n_procs;
    std::string why;
    if (executed != n) {
      why = "executed " + std::to_string(executed) + " of " +
            std::to_string(n) + " tasks";
    } else if (busy > r.makespan * p * (1.0 + 1e-12)) {
      why = "busy time exceeds makespan x P";
    } else if (r.makespan < std::max(in.total / p, in.max_task) *
                                (1.0 - 1e-12)) {
      why = "makespan below max(total / P, max task)";
    } else if (r.makespan != first.results[call].makespan ||
               r.events_processed != first.results[call].events_processed) {
      why = "replay differs from the run's first sweep";
    }
    report.op(why.empty(), name + ": " + why);
  }
}

void report_traced(const std::vector<Sweep>& sweeps, Report& report) {
  const Sweep& first = sweeps.front();
  for (std::size_t m = 0; m < kModelCount; ++m) {
    double wall = 0.0;
    for (const Sweep& s : sweeps) {
      wall += s.call_seconds[m] + s.call_seconds[m + kModelCount];
    }
    const double per_sweep =
        static_cast<double>(first.results[m].events_processed +
                            first.results[m + kModelCount].events_processed);
    report.metric(std::string("sim.events_per_s.") + kModels[m],
                  per_sweep * static_cast<double>(sweeps.size()) / wall,
                  "1/s");
    report.metric(std::string("sim.events.") + kModels[m], per_sweep,
                  "count");
  }
  double steals = 0.0, attempts = 0.0, messages = 0.0, link_wait = 0.0;
  for (const sim::SimResult& r : first.results) {
    steals += static_cast<double>(r.steals);
    attempts += static_cast<double>(r.steal_attempts);
    messages += static_cast<double>(r.net_messages);
    link_wait += r.net_link_wait;
  }
  report.metric("sim.steal_success", steals / attempts, "ratio");
  report.metric("net.messages", messages, "count");
  report.metric("net.link_wait_s", link_wait, "s");
}

/// Sweeps until `seconds` have passed (at least `min_sweeps`), checking
/// each against the first.
std::vector<Sweep> run_sweeps(const Inputs& in, std::uint64_t seed,
                              bool traced, double seconds, int min_sweeps,
                              Report& report) {
  std::vector<Sweep> sweeps;
  const Timer measuring;
  while (static_cast<int>(sweeps.size()) < min_sweeps ||
         measuring.seconds() < seconds) {
    sweeps.push_back(run_sweep(in, seed, traced));
    check_sweep(sweeps.back(), sweeps.front(), in, report);
    if (!traced && sweeps.size() > 1) sweeps.back().results.clear();
  }
  return sweeps;
}

std::vector<double> sweep_seconds(const std::vector<Sweep>& sweeps) {
  std::vector<double> out;
  for (const Sweep& s : sweeps) out.push_back(s.seconds);
  return out;
}

}  // namespace

void run_sim_models(const RunConfig& config, Report& report) {
  // Built once and untimed: it runs the chemistry set-up (basis, shell
  // pairs, Schwarz), which this workload must not measure.
  const emc::core::TaskModel model = emc::core::build_task_model("water27");
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < 31; ++i) {
    in = Inputs{};  // one set of inputs alive at a time
    setup_s.push_back(timed_seconds(
        [&] { in = make_inputs(model, config.seed, config.smoke); }));
  }
  report.info("tasks", static_cast<double>(in.costs.size()));
  report.info("procs", static_cast<double>(in.flat.n_procs));
  const int min_sweeps = 3;

  if (!config.trace) {
    const std::vector<Sweep> sweeps = run_sweeps(
        in, config.seed, false, config.seconds, min_sweeps, report);
    const std::vector<double> seconds = sweep_seconds(sweeps);
    double events = 0.0;
    for (const Sweep& s : sweeps) events += static_cast<double>(s.events);
    report_end_to_end(report, median(setup_s), seconds, seconds, 75.0,
                      events / sum(seconds));
    return;
  }

  const std::vector<double> untraced = sweep_seconds(run_sweeps(
      in, config.seed, false, config.seconds / 2, min_sweeps, report));
  const std::vector<Sweep> traced = run_sweeps(
      in, config.seed, true, config.seconds / 2, min_sweeps, report);
  report_traced(traced, report);
  double calls = 0.0;
  for (const Sweep& s : traced) calls += sum(s.call_seconds);
  const std::vector<double> traced_seconds = sweep_seconds(traced);
  report_trace_closure(report, sum(traced_seconds), calls,
                       median(traced_seconds), median(untraced));
}

}  // namespace perfbench
