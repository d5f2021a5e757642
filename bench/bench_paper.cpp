// bench_paper — the paper's experiments EXP-1..10 and EXP-2b (DESIGN.md)
// in one table-driven binary. Each experiment prints the tables of its
// figure or table to stdout; every table also lands in BENCH_paper.json
// (one object per row, keyed by the column headers), which bench_compare
// gates against bench/baselines/BENCH_paper.json.
//
// The abstract's checkable claims are gates (EXP-2, 4, 5, 6, 7): the
// binary exits 1 when one fails, and 2 on any argument (it takes none).
//
// Column names: simulated times read "name(ms)" and gate exactly in
// bench_compare; host-timed columns keep the "_ms" suffix that
// bench_compare treats as advisory (balance_ms, EXP-5's balancer times,
// EXP-9's persistence_ms, which includes a measured LPT wall time).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "graph/hypergraph.hpp"
#include "lb/hypergraph_partition.hpp"
#include "lb/partition.hpp"
#include "lb/semi_matching.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace emc;

struct Section;

struct Experiment {
  const char* id;
  const char* title;
  const char* claim;
  void (*run)(const core::TaskModel& water27, Section& out);
};

/// What one experiment produced: its tables (printed as they are added)
/// and the verdict of its claim gate, if it has one.
struct Section {
  const Experiment& exp;
  std::vector<std::pair<std::string, Table>> tables;
  std::string gate;  ///< the claim checked; empty when ungated
  bool holds = true;

  /// Prints the experiment's banner; `model` describes the workload
  /// (nullptr for a sweep over workloads, which prints none).
  void banner(const core::TaskModel* model) const {
    const std::string heading = std::string(exp.id) + ": " + exp.title;
    if (model != nullptr) {
      bench::print_header(heading, exp.claim, *model);
      return;
    }
    std::cout << "##############################################\n"
              << "# " << heading << "\n"
              << "# claim: " << exp.claim << "\n"
              << "##############################################\n";
  }

  void table(std::string title, Table t) {
    t.print(std::cout, title);
    tables.emplace_back(std::move(title), std::move(t));
  }

  /// Records the claim gate; `measured` goes to stderr with the verdict.
  void check(std::string claim, bool ok, const std::string& measured) {
    gate = std::move(claim);
    holds = ok;
    std::cerr << exp.id << " gate " << (ok ? "holds" : "FAILS") << ": "
              << gate << " (" << measured << ")\n";
  }
};

// EXP-1 — task-cost heterogeneity of the Fock build (the figure that
// motivates dynamic load balancing): per-workload cost statistics and a
// log-scale histogram of task costs.
void exp1_heterogeneity(const core::TaskModel&, Section& out) {
  Table table({"workload", "tasks", "min_cost", "p50", "p90", "p99",
               "max_cost", "max/min", "cv"});
  table.set_precision(3);

  const std::vector<std::string> workloads{"water4", "water8", "water16",
                                           "alkane8", "alkane16"};
  core::TaskModel last;
  for (const auto& name : workloads) {
    const core::TaskModel model = core::build_task_model(name);
    const Summary s = summarize(model.costs);
    table.add_row({name, static_cast<std::int64_t>(model.task_count()),
                   s.min * 1e6, s.p50 * 1e6, s.p90 * 1e6, s.p99 * 1e6,
                   s.max * 1e6, s.min > 0.0 ? s.max / s.min : 0.0, s.cv()});
    last = model;
  }

  out.banner(&last);
  std::cout << "(costs in simulated microseconds)\n";
  out.table("task cost distributions", std::move(table));

  // Log10-cost histogram for the largest workload.
  std::vector<double> logs;
  logs.reserve(last.costs.size());
  for (double c : last.costs) {
    if (c > 0.0) logs.push_back(std::log10(c));
  }
  const Summary ls = summarize(logs);
  Histogram h(ls.min, ls.max + 1e-9, 12);
  h.add_all(logs);
  std::cout << "\nlog10(task cost) histogram, " << workloads.back() << ":\n"
            << h.render(48);
}

// EXP-2 — execution-model comparison across core counts (the paper's
// headline figure), with speedup over the serial execution and the
// work-stealing-vs-static-block improvement factor.
void exp2_execution_models(const core::TaskModel& model, Section& out) {
  out.banner(&model);
  const double serial = model.total_cost();

  Table table({"procs", "model", "makespan(ms)", "vs_serial", "efficiency",
               "vs_static_block"});
  table.set_precision(3);
  Table summary({"procs", "static_block(ms)", "work_stealing(ms)",
                 "improvement_pct"});
  summary.set_precision(1);

  double min_ratio = 0.0;
  int min_p = 0;
  for (int p : {16, 32, 64, 128, 256, 512, 1024}) {
    core::ExperimentConfig config;
    config.machine.n_procs = p;
    const auto runs = core::run_all_models(model, config);

    double static_block = 0.0, stealing = 0.0;
    for (const auto& run : runs) {
      if (run.name == "static-block") static_block = run.sim.makespan;
      if (run.name == "work-stealing") stealing = run.sim.makespan;
    }
    for (const auto& run : runs) {
      table.add_row({static_cast<std::int64_t>(p), run.name,
                     run.sim.makespan * 1e3, serial / run.sim.makespan,
                     serial / run.sim.makespan / p,
                     static_block / run.sim.makespan});
    }
    summary.add_row({static_cast<std::int64_t>(p), static_block * 1e3,
                     stealing * 1e3,
                     (static_block / stealing - 1.0) * 100.0});
    if (min_p == 0 || static_block / stealing < min_ratio) {
      min_ratio = static_block / stealing;
      min_p = p;
    }
  }

  out.table("per-model results", std::move(table));
  std::cout << "\n";
  out.table("work stealing vs static-block (paper: ~50% improvement)",
            std::move(summary));
  out.check("work stealing >= 1.5x faster than static-block at every P",
            min_ratio >= 1.5,
            "min " + std::to_string(min_ratio) + "x at P = " +
                std::to_string(min_p));
}

// EXP-2b (extension) — weak scaling: grow the chemical system with the
// core count (one water molecule per 8 simulated cores) and track
// per-model efficiency. The per-core task pool stays roughly constant
// but the cost distribution widens with system size.
void exp2b_weak_scaling(const core::TaskModel&, Section& out) {
  Table table({"procs", "waters", "tasks", "work_s", "static_lpt(ms)",
               "counter(ms)", "stealing(ms)", "stealing_efficiency"});
  table.set_precision(3);
  out.banner(nullptr);

  for (int p : {16, 32, 64, 128, 256}) {
    const int waters = p / 8;
    const core::TaskModel model =
        core::build_task_model("water" + std::to_string(waters));

    sim::MachineConfig machine = bench::make_machine(p);

    const auto lpt = lb::lpt_assignment(model.costs, p);
    const auto block = lb::block_assignment(model.task_count(), p);
    const double st = sim::simulate_static(machine, model.costs, lpt).makespan;
    const double cn = sim::simulate_counter(machine, model.costs, 2).makespan;
    const double ws =
        sim::simulate_work_stealing(machine, model.costs, block).makespan;

    const double ideal = model.total_cost() / static_cast<double>(p);
    table.add_row({static_cast<std::int64_t>(p),
                   static_cast<std::int64_t>(waters),
                   static_cast<std::int64_t>(model.task_count()),
                   model.total_cost(), st * 1e3, cn * 1e3, ws * 1e3,
                   ideal / ws});
  }
  out.table("weak scaling (efficiency = ideal/actual)", std::move(table));
}

// EXP-3 — system utilization per execution model at P = 256: busy
// fraction, overhead anatomy and utilization-over-time curves.
void exp3_utilization(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  core::ExperimentConfig config;
  config.machine.n_procs = 256;
  const auto runs = core::run_all_models(model, config);

  Table table({"model", "makespan(ms)", "utilization_pct", "steals",
               "failed_steals", "counter_ops", "balance_ms"});
  table.set_precision(2);
  for (const auto& run : runs) {
    table.add_row(
        {run.name, run.sim.makespan * 1e3, run.sim.utilization() * 100.0,
         run.sim.steals, run.sim.steal_attempts - run.sim.steals,
         run.sim.counter_ops, run.balance_seconds * 1e3});
  }
  out.table("utilization at 256 simulated cores", std::move(table));

  // Each timeline row is one time bin; bar length = fraction of cores
  // busy.
  std::cout << "\nutilization timelines (20 bins across each makespan):\n";
  sim::MachineConfig traced = config.machine;
  traced.record_trace = true;

  const auto block = lb::block_assignment(model.task_count(), traced.n_procs);
  const auto lpt = lb::lpt_assignment(model.costs, traced.n_procs);
  struct Curve {
    std::string name;
    sim::SimResult result;
  };
  const Curve curves[] = {
      {"static-block", sim::simulate_static(traced, model.costs, block)},
      {"static-lpt", sim::simulate_static(traced, model.costs, lpt)},
      {"counter(4)", sim::simulate_counter(traced, model.costs, 4)},
      {"work-stealing",
       sim::simulate_work_stealing(traced, model.costs, block)},
  };
  for (const Curve& curve : curves) {
    const auto timeline =
        sim::utilization_timeline(curve.result, traced.n_procs, 20);
    std::cout << "  " << curve.name << "\n";
    for (std::size_t b = 0; b < timeline.size(); ++b) {
      const auto bar = static_cast<std::size_t>(timeline[b] * 40.0);
      std::cout << "    |" << std::string(bar, '#')
                << std::string(40 - bar, ' ') << "| "
                << static_cast<int>(timeline[b] * 100.0) << "%\n";
    }
    // Critical-path anatomy of the same trace: where the proc that ends
    // the run spends its time, and the single worst idle stretch.
    const sim::TraceSummary anatomy = sim::summarize_trace(
        curve.result.trace, traced.n_procs, curve.result.makespan);
    std::cout << "    critical proc " << anatomy.critical_proc << ": busy "
              << anatomy.critical_busy * 1e3 << " ms, overhead "
              << anatomy.critical_overhead * 1e3 << " ms, idle "
              << anatomy.critical_idle * 1e3 << " ms; longest idle gap "
              << anatomy.longest_idle_gap * 1e3 << " ms on proc "
              << anatomy.longest_idle_proc << "\n";
  }
}

// EXP-4 — load-balance quality across core counts: makespan imbalance
// and the communication proxy (connectivity cut of the task hypergraph)
// of every balancer.
void exp4_lb_quality(const core::TaskModel& model, Section& out) {
  out.banner(&model);
  const graph::Hypergraph hg = core::make_task_hypergraph(model);

  Table table({"procs", "balancer", "imbalance", "makespan(ms)", "hg_cut",
               "balance_ms"});
  table.set_precision(3);

  double worst = 0.0;
  int worst_p = 0;
  for (int p : {16, 64, 256, 1024}) {
    core::ExperimentConfig config;
    config.machine.n_procs = p;
    double semi = 0.0, hyper = 0.0;
    for (const std::string& algo : core::balancer_names()) {
      const lb::BalanceResult r = core::balance_tasks(model, algo, p, config);
      const double imb = lb::imbalance(model.costs, r.assignment, p);
      const double ms = lb::makespan(model.costs, r.assignment, p);
      const std::vector<int> part(r.assignment.begin(), r.assignment.end());
      table.add_row({static_cast<std::int64_t>(p), algo, imb, ms * 1e3,
                     hg.connectivity_cut(part, p), r.balance_seconds * 1e3});
      if (algo == "semi-matching") semi = imb;
      if (algo == "hypergraph") hyper = imb;
    }
    if (worst_p == 0 || semi / hyper > worst) {
      worst = semi / hyper;
      worst_p = p;
    }
  }
  out.table("balancer quality (imbalance = max/mean load)", std::move(table));
  out.check("semi-matching imbalance <= 1.05x hypergraph's at every P",
            worst <= 1.05,
            "worst " + std::to_string(worst) + "x at P = " +
                std::to_string(worst_p));
}

/// Best wall time of `repeats` calls of `fn`, in ms.
template <typename Fn>
double best_ms(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    bench::do_not_optimize(fn());
    const double t = timer.millis();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

// EXP-5 — balancer runtime cost at P = 256 over three task counts.
// The inputs (locality instance, hypergraph) are built outside the
// timed region; the partitioner takes seconds, so it gets 2 repeats.
void exp5_lb_cost(const core::TaskModel& water27, Section& out) {
  out.banner(&water27);
  constexpr int kProcs = 256;
  constexpr int kRepeats = 5;

  Table table({"workload", "tasks", "lpt_ms", "semi_matching_ms",
               "hypergraph_ms"});
  table.set_precision(3);
  const core::TaskModel water8 = core::build_task_model("water8");
  const core::TaskModel water16 = core::build_task_model("water16");
  double semi = 0.0, hyper = 0.0;
  for (const auto& [name, model] :
       {std::pair<const char*, const core::TaskModel&>{"water8", water8},
        {"water16", water16},
        {"water27", water27}}) {
    const auto instance = core::make_locality_instance(model, kProcs, 1);
    const auto hg = core::make_task_hypergraph(model);
    const double lpt = best_ms(
        kRepeats, [&] { return lb::lpt_assignment(model.costs, kProcs); });
    semi = best_ms(kRepeats,
                   [&] { return lb::semi_matching_balance(instance); });
    hyper = best_ms(2, [&] { return lb::hypergraph_balance(hg, kProcs); });
    table.add_row({std::string(name),
                   static_cast<std::int64_t>(model.task_count()), lpt, semi,
                   hyper});
  }
  out.table("balancer wall time (best of 5 calls; hypergraph best of 2)",
            std::move(table));
  out.check("hypergraph partition >= 10x semi-matching's time on water27",
            hyper >= 10.0 * semi,
            std::to_string(hyper) + " vs " + std::to_string(semi) + " ms");
}

/// Re-grains a cost vector: factor > 0 splits each task into `factor`
/// equal units; factor < 0 agglomerates |factor| consecutive tasks.
std::vector<double> regrain(const std::vector<double>& costs, int factor) {
  std::vector<double> out;
  if (factor >= 1) {
    out.reserve(costs.size() * static_cast<std::size_t>(factor));
    for (double c : costs) {
      for (int s = 0; s < factor; ++s) out.push_back(c / factor);
    }
  } else {
    const int g = -factor;
    for (std::size_t i = 0; i < costs.size(); i += static_cast<std::size_t>(g)) {
      double sum = 0.0;
      for (std::size_t j = i;
           j < std::min(costs.size(), i + static_cast<std::size_t>(g)); ++j) {
        sum += costs[j];
      }
      out.push_back(sum);
    }
  }
  return out;
}

/// True when the minimum of `v` sits strictly inside it (a U-curve).
bool interior_minimum(const std::vector<double>& v) {
  const auto at = std::min_element(v.begin(), v.end()) - v.begin();
  return at > 0 && at + 1 < static_cast<std::ptrdiff_t>(v.size());
}

// EXP-6 — work-unit granularity: the measured task set is split into
// s equal parts (finer) or g consecutive tasks are merged (coarser),
// then replayed under the dynamic-counter and work-stealing models. Too
// coarse pays imbalance; too fine pays per-unit dispatch and
// counter/steal round trips.
void exp6_granularity(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  sim::MachineConfig machine = bench::make_machine(256);
  // Per-unit costs of a GA-class runtime: task dispatch + the one-sided
  // gets/accumulates every work unit performs.
  machine.task_overhead = 2.0e-6;
  machine.counter_service = 0.3e-6;

  Table table({"grain", "units", "units_per_proc", "mean_unit_us",
               "counter(ms)", "stealing(ms)"});
  table.set_precision(3);

  std::vector<double> counter_ms, steal_ms;
  // factor: negative = agglomerate, positive = split.
  for (int factor : {-512, -128, -32, -8, -2, 1, 4, 16, 64, 256}) {
    const auto costs = regrain(model.costs, factor);
    const auto n = costs.size();

    const sim::SimResult counter = sim::simulate_counter(machine, costs, 1);
    const auto block = lb::block_assignment(n, machine.n_procs);
    const sim::SimResult steal =
        sim::simulate_work_stealing(machine, costs, block);

    double total = 0.0;
    for (double c : costs) total += c;
    const std::string label = factor >= 1
                                  ? "split x" + std::to_string(factor)
                                  : "merge x" + std::to_string(-factor);
    table.add_row({label, static_cast<std::int64_t>(n),
                   static_cast<double>(n) / machine.n_procs,
                   total / static_cast<double>(n) * 1e6,
                   counter.makespan * 1e3, steal.makespan * 1e3});
    counter_ms.push_back(counter.makespan * 1e3);
    steal_ms.push_back(steal.makespan * 1e3);
  }
  out.table("granularity sweep (expect U-curves in both columns)",
            std::move(table));

  std::cout << "\nlower bound (perfect balance, zero overhead): "
            << model.total_cost() / machine.n_procs * 1e3 << " ms\n";

  const double counter_min =
      *std::min_element(counter_ms.begin(), counter_ms.end());
  const double steal_min = *std::min_element(steal_ms.begin(), steal_ms.end());
  const double finest = counter_ms.back() / counter_min;
  out.check(
      "counter and stealing minima strictly inside the grain sweep; "
      "counter's finest grain >= 1.2x its minimum",
      interior_minimum(counter_ms) && interior_minimum(steal_ms) &&
          finest >= 1.2,
      "minima " + std::to_string(counter_min) + " and " +
          std::to_string(steal_min) + " ms; counter finest/min " +
          std::to_string(finest));
}

// EXP-7 — energy-induced performance variability: sweep per-core speed
// noise and compare how each execution model degrades.
void exp7_noise(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  const int procs = 256;
  const auto lpt = lb::lpt_assignment(model.costs, procs);

  Table table({"noise_pct", "static_lpt(ms)", "counter(ms)", "stealing(ms)",
               "static_degradation", "stealing_degradation"});
  table.set_precision(3);

  double static_base = 0.0, steal_base = 0.0;
  double static_deg = 0.0, steal_deg = 0.0;
  for (double noise : {0.0, 0.05, 0.10, 0.20, 0.30, 0.40}) {
    sim::MachineConfig machine = bench::make_machine(procs);
    machine.noise_amplitude = noise;

    const double st = sim::simulate_static(machine, model.costs, lpt).makespan;
    const double cn = sim::simulate_counter(machine, model.costs, 4).makespan;
    const double ws =
        sim::simulate_work_stealing(machine, model.costs, lpt).makespan;
    if (noise == 0.0) {
      static_base = st;
      steal_base = ws;
    }
    static_deg = st / static_base;
    steal_deg = ws / steal_base;
    table.add_row({noise * 100.0, st * 1e3, cn * 1e3, ws * 1e3, static_deg,
                   steal_deg});
  }
  out.table("makespan vs core-speed noise amplitude", std::move(table));
  out.check("at 40% noise static-LPT degrades more than work stealing",
            static_deg > steal_deg,
            std::to_string(static_deg) + " vs " + std::to_string(steal_deg));
}

// EXP-8 — runtime-overhead anatomy vs core count: steal traffic (hits,
// misses, wasted round trips) and counter serialization.
void exp8_overheads(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  Table steal_table({"procs", "steals", "failed", "fail_rate_pct",
                     "steal_wait(ms)", "makespan(ms)"});
  steal_table.set_precision(3);
  Table counter_table({"procs", "counter_ops", "avg_wait_us",
                       "total_wait(ms)", "makespan(ms)"});
  counter_table.set_precision(3);

  for (int p : {16, 32, 64, 128, 256, 512, 1024}) {
    sim::MachineConfig machine = bench::make_machine(p);

    const auto block = lb::block_assignment(model.task_count(), p);
    const sim::SimResult ws =
        sim::simulate_work_stealing(machine, model.costs, block);
    const double failed =
        static_cast<double>(ws.steal_attempts - ws.steals);
    steal_table.add_row(
        {static_cast<std::int64_t>(p), ws.steals,
         ws.steal_attempts - ws.steals,
         ws.steal_attempts > 0
             ? failed / static_cast<double>(ws.steal_attempts) * 100.0
             : 0.0,
         ws.steal_wait * 1e3, ws.makespan * 1e3});

    const sim::SimResult cn = sim::simulate_counter(machine, model.costs, 4);
    counter_table.add_row(
        {static_cast<std::int64_t>(p), cn.counter_ops,
         cn.counter_wait / static_cast<double>(cn.counter_ops) * 1e6,
         cn.counter_wait * 1e3, cn.makespan * 1e3});
  }
  out.table("work-stealing overhead anatomy", std::move(steal_table));
  std::cout << "\n";
  out.table("dynamic-counter overhead anatomy", std::move(counter_table));

  // Steal provenance at a representative scale: where stolen work comes
  // from (on-node vs off-node), plus the critical-path anatomy — both
  // derived from the typed trace of the same run.
  sim::MachineConfig traced = bench::make_machine(64);
  traced.record_trace = true;
  const auto block64 = lb::block_assignment(model.task_count(), 64);
  const sim::SimResult ws64 =
      sim::simulate_work_stealing(traced, model.costs, block64);
  const auto provenance = sim::steal_provenance(ws64.trace, 64);
  std::int64_t on_node = 0, off_node = 0;
  for (int thief = 0; thief < 64; ++thief) {
    for (int victim = 0; victim < 64; ++victim) {
      const std::int64_t n =
          provenance[static_cast<std::size_t>(thief) * 64 +
                     static_cast<std::size_t>(victim)];
      if (traced.node_of(thief) == traced.node_of(victim)) {
        on_node += n;
      } else {
        off_node += n;
      }
    }
  }
  const sim::TraceSummary anatomy =
      sim::summarize_trace(ws64.trace, 64, ws64.makespan);
  std::cout << "\nsteal provenance at P = 64 (uniform victims): "
            << on_node << " on-node, " << off_node << " off-node\n"
            << "critical proc " << anatomy.critical_proc << ": busy "
            << anatomy.critical_busy * 1e3 << " ms, overhead "
            << anatomy.critical_overhead * 1e3 << " ms, idle "
            << anatomy.critical_idle * 1e3 << " ms; longest idle gap "
            << anatomy.longest_idle_gap * 1e3 << " ms on proc "
            << anatomy.longest_idle_proc << "\n";
}

// EXP-9 — retentive work stealing over SCF iterations: each iteration
// is seeded with the previous one's final placement, against plain
// stealing from the block distribution and persistence-based LPT
// rebalancing.
void exp9_retentive(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  sim::MachineConfig machine = bench::make_machine(256);
  const auto block = lb::block_assignment(model.task_count(), 256);
  const int iterations = 10;

  const auto retentive =
      sim::simulate_retentive(machine, model.costs, block, iterations);

  // Persistence-based inspector-executor alternative: rebalance cost =
  // the LPT balancer's measured wall time on this very instance.
  Timer lpt_timer;
  (void)lb::lpt_assignment(model.costs, machine.n_procs);
  const double lpt_cost = lpt_timer.seconds();
  const auto persistence = sim::simulate_persistence(
      machine, model.costs, block, iterations, lpt_cost);

  Table table({"iteration", "retentive(ms)", "retentive_steals", "plain(ms)",
               "plain_steals", "persistence_ms"});
  table.set_precision(3);
  double retentive_total = 0.0, plain_total = 0.0, persist_total = 0.0;
  for (int i = 0; i < iterations; ++i) {
    // "Plain" restarts from the block distribution every iteration (only
    // the victim-selection seed varies).
    sim::StealOptions options;
    options.seed = 7 + static_cast<std::uint64_t>(i);
    const sim::SimResult plain =
        sim::simulate_work_stealing(machine, model.costs, block, options);
    const auto& ret = retentive[static_cast<std::size_t>(i)];
    const auto& per = persistence[static_cast<std::size_t>(i)];
    retentive_total += ret.makespan;
    plain_total += plain.makespan;
    persist_total += per.makespan;
    table.add_row({static_cast<std::int64_t>(i + 1), ret.makespan * 1e3,
                   ret.steals, plain.makespan * 1e3, plain.steals,
                   per.makespan * 1e3});
  }
  out.table("per-iteration comparison", std::move(table));
  std::cout << "\ncumulative makespan over " << iterations
            << " iterations:\n  retentive stealing " << retentive_total * 1e3
            << " ms\n  plain stealing     " << plain_total * 1e3
            << " ms\n  persistence (LPT)  " << persist_total * 1e3
            << " ms (includes " << lpt_cost * 1e3
            << " ms rebalance per round)\n";
}

// EXP-10 (extension) — scheduling-policy ablation: counter chunk
// policies, the hierarchical counter, hybrid static+dynamic execution
// and steal victim selection. Each row is one design choice.
void exp10_scheduling_policies(const core::TaskModel& model, Section& out) {
  out.banner(&model);

  sim::MachineConfig machine = bench::make_machine(256);

  Table table({"policy", "makespan(ms)", "utilization_pct", "counter_ops",
               "steals", "steal_or_counter_wait(ms)"});
  table.set_precision(2);

  auto add = [&](const std::string& name, const sim::SimResult& r) {
    table.add_row({name, r.makespan * 1e3, r.utilization() * 100.0,
                   r.counter_ops, r.steals,
                   (r.counter_wait + r.steal_wait) * 1e3});
  };

  for (auto [name, policy] :
       {std::pair<const char*, sim::ChunkPolicy>{"counter fixed(4)",
                                                 sim::ChunkPolicy::kFixed},
        {"counter guided", sim::ChunkPolicy::kGuided},
        {"counter trapezoid", sim::ChunkPolicy::kTrapezoid}}) {
    sim::CounterOptions options;
    options.chunk = policy == sim::ChunkPolicy::kFixed ? 4 : 1;
    options.policy = policy;
    add(name, sim::simulate_counter(machine, model.costs, options));
  }

  add("hierarchical 256/2",
      sim::simulate_hierarchical_counter(machine, model.costs, 256, 2));
  add("hierarchical 64/1",
      sim::simulate_hierarchical_counter(machine, model.costs, 64, 1));

  // Hybrid static+dynamic (LPT prefix, counter tail).
  const auto lpt = lb::lpt_assignment(model.costs, machine.n_procs);
  for (double frac : {0.1, 0.3, 0.5}) {
    add("hybrid lpt+" + std::to_string(static_cast<int>(frac * 100)) + "%",
        sim::simulate_hybrid(machine, model.costs, lpt, frac, 2));
  }

  // Victim policies for work stealing (block initial placement).
  const auto block = lb::block_assignment(model.task_count(), machine.n_procs);
  for (auto [name, victim] :
       {std::pair<const char*, sim::VictimPolicy>{"steal uniform",
                                                  sim::VictimPolicy::kUniform},
        {"steal node-first", sim::VictimPolicy::kNodeFirst},
        {"steal ring", sim::VictimPolicy::kRing}}) {
    sim::StealOptions options;
    options.victim = victim;
    add(name,
        sim::simulate_work_stealing(machine, model.costs, block, options));
  }

  out.table("policy ablation", std::move(table));
  std::cout << "\nlower bound (perfect balance, zero overhead): "
            << model.total_cost() / machine.n_procs * 1e3 << " ms\n";
}

const Experiment kExperiments[] = {
    {"EXP-1", "Fock-build task-cost heterogeneity",
     "SCF tasks are highly irregular, motivating dynamic load balancing",
     exp1_heterogeneity},
    {"EXP-2", "execution models vs core count",
     "~50% improvement from work stealing over static scheduling",
     exp2_execution_models},
    {"EXP-2b", "weak scaling (1 water per 8 cores)",
     "dynamic models hold efficiency as the system and\n"
     "#        machine grow together",
     exp2b_weak_scaling},
    {"EXP-3", "utilization per execution model (P = 256)",
     "execution-model choice drives system utilization", exp3_utilization},
    {"EXP-4", "balancer quality across core counts",
     "semi-matching comparable to hypergraph partitioning", exp4_lb_quality},
    {"EXP-5", "balancer runtime cost (P = 256)",
     "hypergraph partitioning is computationally expensive", exp5_lb_cost},
    {"EXP-6", "work-unit granularity vs runtime overheads (P = 256)",
     "too-coarse pays imbalance, too-fine pays per-unit overheads",
     exp6_granularity},
    {"EXP-7", "resilience to per-core performance noise (P = 256)",
     "static degrades with noise amplitude; work stealing absorbs it",
     exp7_noise},
    {"EXP-8", "overhead anatomy vs core count",
     "steal traffic and counter contention grow with P", exp8_overheads},
    {"EXP-9", "retentive work stealing across SCF iterations (P = 256)",
     "retention drives steal traffic toward zero across iterations",
     exp9_retentive},
    {"EXP-10", "scheduling-policy ablation (P = 256)",
     "execution-model design choices trade overhead against imbalance",
     exp10_scheduling_policies},
};

void write_table(bench::JsonWriter& json, const std::string& title,
                 const Table& table) {
  json.begin_object();
  json.field("title", title);
  json.begin_array("rows");
  for (std::size_t r = 0; r < table.rows(); ++r) {
    json.begin_object();
    for (std::size_t c = 0; c < table.cols(); ++c) {
      std::visit([&](const auto& v) { json.field(table.headers()[c], v); },
                 table.at(r, c));
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_report(std::ostream& out, const std::vector<Section>& sections) {
  bench::JsonWriter json(out);
  json.begin_object();
  bench::write_manifest(json, "bench_paper", "full", 1);
  json.begin_array("experiments");
  for (const Section& s : sections) {
    json.begin_object();
    json.field("name", s.exp.id);
    json.field("title", s.exp.title);
    if (!s.gate.empty()) {
      json.field("gate", s.gate);
      json.field("holds", s.holds);
    }
    json.begin_array("tables");
    for (const auto& [title, table] : s.tables) {
      write_table(json, title, table);
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  bench::write_run_footer(json);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  emc::Cli cli("bench_paper",
               "EXP-1..10 and EXP-2b with the paper's claims as gates; "
               "writes BENCH_paper.json (takes no options)");
  if (!cli.parse(argc, argv)) return 2;

  const char* const report_path = "BENCH_paper.json";
  // The cluster-scale standard workload, built once: water27/STO-3G,
  // 135 shells and 9180 shell-pair tasks.
  const emc::core::TaskModel water27 =
      emc::core::build_task_model("water27");
  std::vector<Section> sections;
  for (const Experiment& exp : kExperiments) {
    sections.push_back(Section{exp, {}, {}, true});
    exp.run(water27, sections.back());
  }

  {
    std::ofstream out(report_path);
    write_report(out, sections);
    if (!out) {
      std::cerr << "FAIL: cannot write " << report_path << "\n";
      return 1;
    }
  }
  // Re-read the report with the strict parser and check its manifest.
  {
    std::ifstream in(report_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const std::string bad =
          emc::bench::manifest_error(emc::util::parse_json(buf.str()));
      if (!bad.empty()) {
        std::cerr << "FAIL: report manifest invalid: " << bad << "\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "FAIL: " << report_path << " is invalid JSON: " << e.what()
                << "\n";
      return 1;
    }
  }
  std::cerr << "wrote " << report_path << " (validated)\n";

  const bool all_hold =
      std::all_of(sections.begin(), sections.end(),
                  [](const Section& s) { return s.holds; });
  return all_hold ? 0 : 1;
}
