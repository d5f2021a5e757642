// Simulator-throughput bench: how fast is the simulator itself?
//
// Every other bench asks what the *simulated machine* does; this one
// measures the simulator as a program — events per wall-clock second
// and peak RSS while replaying synthetic million-task workloads at up
// to P = 100k simulated procs — for the counter, hierarchical-counter
// and work-stealing models on the binary-heap event queue.
//
// The workload is synthetic — task costs drawn uniformly from
// [0.5, 1.5) x a mean cost via the seeded Rng — because this bench
// stresses the event core, not the chemistry; the cost *distribution*
// is irrelevant to simulator throughput and a synthetic vector scales
// to millions of tasks instantly.
//
// Self-checks (exit nonzero on violation; the ctest smoke gate):
//   1. replay: every (model, P) cell, run twice, produces bitwise-
//      identical SimResults;
//   2. a P = 100k, 1M-task work-stealing run completes (the scale
//      target of the event core).
//
// Full mode sweeps P up to 100k and records events/sec per cell in
// BENCH_simspeed.json (wall-clock numbers are host-dependent, so they
// are reported, not gated).
//
// Flags:
//   --smoke          small sweep + the two gates above (CI)
//   --mean-cost=S    mean synthetic task cost, sim-seconds (default 1e-5)
//   --report=PATH    JSON report (default BENCH_simspeed.json)
//   --seed=N         workload + steal seed (default 1)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

struct Options {
  bool smoke = false;
  double mean_cost = 1.0e-5;
  std::string report_path = "BENCH_simspeed.json";
  std::uint64_t seed = 1;
};

/// Parses the flags above; returns false (after printing why) on an
/// unknown flag or a malformed value.
bool parse_options(int argc, char** argv, Options* opt) {
  auto seed = static_cast<std::int64_t>(opt->seed);
  Cli cli("bench_simspeed", "simulator throughput and replay gate");
  cli.add_flag("smoke", '\0', "small sweep + gates (CI)", &opt->smoke);
  cli.add_double("mean-cost", '\0', "mean synthetic task cost, sim-seconds",
                 &opt->mean_cost);
  cli.add_string("report", '\0', "JSON report path", &opt->report_path);
  cli.add_int("seed", '\0', "workload + steal seed", &seed);
  if (!cli.parse(argc, argv)) return false;
  opt->seed = static_cast<std::uint64_t>(seed);
  return true;
}

std::vector<double> synthetic_costs(std::int64_t n, double mean,
                                    std::uint64_t seed) {
  std::vector<double> costs(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (double& c : costs) c = rng.uniform(0.5, 1.5) * mean;
  return costs;
}

/// Strict bitwise equality of everything a simulation computes. Double
/// comparisons are intentionally exact: a replay must not change results
/// at all, not "up to rounding".
bool bitwise_equal(const SimResult& a, const SimResult& b,
                   std::string* why) {
  auto fail = [&](const std::string& field) {
    if (why != nullptr) *why = field;
    return false;
  };
  if (a.makespan != b.makespan) return fail("makespan");
  if (a.busy != b.busy) return fail("busy");
  if (a.tasks_executed != b.tasks_executed) return fail("tasks_executed");
  if (a.steals != b.steals) return fail("steals");
  if (a.steal_attempts != b.steal_attempts) return fail("steal_attempts");
  if (a.counter_ops != b.counter_ops) return fail("counter_ops");
  if (a.counter_wait != b.counter_wait) return fail("counter_wait");
  if (a.steal_wait != b.steal_wait) return fail("steal_wait");
  if (a.op_retries != b.op_retries) return fail("op_retries");
  if (a.net_messages != b.net_messages) return fail("net_messages");
  if (a.net_congested != b.net_congested) return fail("net_congested");
  if (a.net_bytes != b.net_bytes) return fail("net_bytes");
  if (a.net_link_wait != b.net_link_wait) return fail("net_link_wait");
  if (a.events_processed != b.events_processed) {
    return fail("events_processed");
  }
  if (a.trace.size() != b.trace.size()) return fail("trace size");
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const TraceEvent& x = a.trace[i];
    const TraceEvent& y = b.trace[i];
    if (x.type != y.type || x.proc != y.proc || x.peer != y.peer ||
        x.task != y.task || x.start != y.start || x.end != y.end) {
      return fail("trace[" + std::to_string(i) + "]");
    }
  }
  return true;
}

/// One timed simulation.
struct Timed {
  SimResult result;
  double wall_ms = 0.0;

  double events_per_sec() const {
    return wall_ms > 0.0
               ? static_cast<double>(result.events_processed) /
                     (wall_ms * 1e-3)
               : 0.0;
  }
};

template <typename F>
Timed timed_run(F&& run) {
  Timed t;
  const auto t0 = std::chrono::steady_clock::now();
  t.result = run();
  const auto t1 = std::chrono::steady_clock::now();
  t.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return t;
}

/// One (model, P, tasks) cell of the throughput sweep.
struct Cell {
  std::string model;
  int procs = 0;
  std::int64_t tasks = 0;
  Timed run;  ///< the faster of the two replays
  bool replayed = false;
  std::string mismatch;
};

/// Runs `model` twice on a fresh machine, keeps the faster timing, and
/// checks the replay is bitwise identical.
template <typename F>
Cell run_cell(const std::string& model, int procs, std::int64_t tasks,
              std::span<const double> costs, F&& simulate) {
  Cell cell;
  cell.model = model;
  cell.procs = procs;
  cell.tasks = tasks;
  const MachineConfig machine = bench::make_machine(procs);
  Timed first = timed_run([&] { return simulate(machine, costs); });
  Timed second = timed_run([&] { return simulate(machine, costs); });
  cell.replayed =
      bitwise_equal(first.result, second.result, &cell.mismatch);
  cell.run = std::move(second.wall_ms < first.wall_ms ? second : first);
  return cell;
}

std::vector<Cell> throughput_sweep(const Options& opt,
                                   const std::vector<int>& proc_counts,
                                   std::int64_t tasks_per_proc,
                                   std::int64_t max_tasks) {
  std::vector<Cell> cells;
  for (int procs : proc_counts) {
    const std::int64_t tasks =
        std::min<std::int64_t>(max_tasks, tasks_per_proc * procs);
    const std::vector<double> costs =
        synthetic_costs(tasks, opt.mean_cost, opt.seed);
    const lb::Assignment initial =
        lb::block_assignment(costs.size(), procs);

    cells.push_back(run_cell(
        "counter", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          return simulate_counter(m, c, /*chunk=*/1);
        }));
    cells.push_back(run_cell(
        "hier_counter", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          return simulate_hierarchical_counter(m, c, /*node_chunk=*/64,
                                               /*proc_chunk=*/4);
        }));
    cells.push_back(run_cell(
        "work_stealing", procs, tasks, costs,
        [&](const MachineConfig& m, std::span<const double> c) {
          StealOptions steal;
          steal.seed = opt.seed + 7;
          return simulate_work_stealing(m, c, initial, steal);
        }));
    for (std::size_t i = cells.size() - 3; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      std::cout << "  P=" << cell.procs << " tasks=" << cell.tasks
                << "  " << cell.model << ": " << cell.run.wall_ms
                << " ms (" << cell.run.events_per_sec() / 1e6
                << " Mev/s), replay="
                << (cell.replayed ? "identical" : "DIFFERS") << "\n";
    }
  }
  return cells;
}

/// The scale target: P = 100k procs, 1M tasks, work stealing.
struct ScaleRun {
  int procs = 0;
  std::int64_t tasks = 0;
  Timed run;
  std::int64_t peak_rss = 0;
};

ScaleRun scale_run(const Options& opt, int procs, std::int64_t tasks) {
  ScaleRun s;
  s.procs = procs;
  s.tasks = tasks;
  const std::vector<double> costs =
      synthetic_costs(tasks, opt.mean_cost, opt.seed);
  const lb::Assignment initial = lb::block_assignment(costs.size(), procs);
  const MachineConfig machine = bench::make_machine(procs);
  StealOptions steal;
  steal.seed = opt.seed + 7;
  s.run = timed_run([&] {
    return simulate_work_stealing(machine, costs, initial, steal);
  });
  s.peak_rss = bench::peak_rss_bytes();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;

  std::cout << "##############################################\n"
            << "# bench_simspeed: simulator throughput\n"
            << "# claim: the event core sustains datacenter-scale\n"
            << "#   replays (P = 100k, millions of tasks)\n"
            << "# seed: " << opt.seed << "\n"
            << "##############################################\n";

  // --- Throughput sweep -------------------------------------------------
  const std::vector<int> proc_counts =
      opt.smoke ? std::vector<int>{256, 4096}
                : std::vector<int>{1024, 4096, 10000, 40000, 100000};
  const std::int64_t tasks_per_proc = opt.smoke ? 16 : 20;
  const std::int64_t max_tasks = opt.smoke ? 100000 : 2000000;
  std::cout << "\nthroughput sweep (each cell replayed twice):\n";
  const std::vector<Cell> cells =
      throughput_sweep(opt, proc_counts, tasks_per_proc, max_tasks);

  bool all_replayed = true;
  for (const Cell& cell : cells) {
    if (!cell.replayed) {
      all_replayed = false;
      std::cerr << "FAIL: " << cell.model << " P=" << cell.procs
                << " replay differs in " << cell.mismatch << "\n";
    }
  }

  // --- Scale target -----------------------------------------------------
  const int scale_procs = 100000;
  const std::int64_t scale_tasks = 1000000;
  std::cout << "\nscale target (work stealing):\n";
  const ScaleRun scale = scale_run(opt, scale_procs, scale_tasks);
  std::cout << "  P=" << scale.procs << " tasks=" << scale.tasks << ": "
            << scale.run.wall_ms << " ms wall, "
            << scale.run.result.events_processed << " events ("
            << scale.run.events_per_sec() / 1e6 << " Mev/s), peak RSS "
            << static_cast<double>(scale.peak_rss) / (1024.0 * 1024.0)
            << " MiB\n";
  const bool scale_ok = scale.run.result.makespan > 0.0 &&
                        scale.run.result.events_processed >
                            scale.tasks;
  if (!scale_ok) {
    std::cerr << "FAIL: P=100k scale run did not complete sanely\n";
  }

  const bool passed = all_replayed && scale_ok;

  // --- Report -----------------------------------------------------------
  std::ofstream out(opt.report_path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
    return 1;
  }
  {
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_simspeed",
                               opt.smoke ? "smoke" : "full", opt.seed);
    json.field("bench", "bench_simspeed");
    json.field("mode", opt.smoke ? "smoke" : "full");
    json.field("seed", opt.seed);
    json.field("mean_task_cost_s", opt.mean_cost);
    json.begin_array("throughput_sweep");
    for (const Cell& cell : cells) {
      json.begin_object();
      json.field("model", cell.model);
      json.field("procs", cell.procs);
      json.field("tasks", cell.tasks);
      json.field("events", cell.run.result.events_processed);
      json.field("makespan_s", cell.run.result.makespan);
      json.field("wall_ms", cell.run.wall_ms);
      json.field("events_per_sec", cell.run.events_per_sec());
      json.field("bitwise_replay", cell.replayed);
      json.end_object();
    }
    json.end_array();
    json.begin_object("scale_run");
    json.field("model", "work_stealing");
    json.field("procs", scale.procs);
    json.field("tasks", scale.tasks);
    json.field("wall_ms", scale.run.wall_ms);
    json.field("events", scale.run.result.events_processed);
    json.field("events_per_sec", scale.run.events_per_sec());
    json.field("makespan_s", scale.run.result.makespan);
    json.field("steals", scale.run.result.steals);
    json.field("peak_rss_bytes", scale.peak_rss);
    json.end_object();
    json.begin_object("checks");
    json.field("all_bitwise_replayed", all_replayed);
    json.field("scale_run_ok", scale_ok);
    json.field("passed", passed);
    json.end_object();
    emc::bench::write_run_footer(json);
    json.end_object();
  }
  out.close();
  std::cout << "\nwrote " << opt.report_path << "\n";

  if (const std::string bad = emc::bench::validate_report(opt.report_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }

  if (!passed) return 1;
  std::cout << "PASS\n";
  return 0;
}
