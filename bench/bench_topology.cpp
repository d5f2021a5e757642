// EXP-11 driver: execution-model ranking vs interconnect topology.
//
// The same Hartree-Fock task workload is replayed under every execution
// model (static LPT, shared counter, hierarchical counter, hybrid, work
// stealing) on a sweep of interconnects: the seed's contention-free flat
// model, a crossbar (endpoint contention only), fat-trees at 1:1, 2:1,
// and 4:1 trunk oversubscription, and a 2D torus. Messages are sized —
// control ops carry NetworkConfig::control_bytes, dynamically acquired
// tasks pull their density/Fock stripes (core::mean_task_comm_bytes) —
// and concurrent transfers sharing a link serialize, so hot links
// actually saturate.
//
// The paper-level claim under test: execution-model rankings measured on
// one machine do not transfer to another. On the contention-free flat
// model the dynamic schemes win on balance alone; once trunk links
// oversubscribe, the shared counter's centralized control traffic and
// the larger data motion of dynamic task acquisition are charged to the
// same saturated links, and the counter-family vs work-stealing gap
// moves — the divergence this bench quantifies and EXPERIMENTS.md plots.
//
// Per-link bandwidth defaults to "auto": scaled so one task's payload
// costs half a mean task execution per unit link, which puts the fabric
// in the communication-sensitive regime at any workload size (pin an
// absolute value with --bandwidth for machine-matched studies).
//
// Self-checks (exit nonzero on violation, the ctest smoke gate):
//   1. every (topology, model) run replays bitwise (determinism);
//   2. crossbar with infinite bandwidth reproduces the flat counter
//      makespan bitwise (routing adds only exact +0.0 terms);
//   3. the 2:1 fat-tree shows congestion: nonzero link wait and queued
//      messages on the dynamic models;
//   4. the 2:1 fat-tree shows a nonzero execution-model makespan gap.
//
// Flags:
//   --smoke            tiny workload (water3, P=16, 2 procs/node) for CI
//   --model-procs=P    simulated processors (default 64)
//   --ppn=N            procs per node (default 4 — topology experiments
//                      want many nodes, not the benches' usual 16)
//   --molecule=NAME    workload molecule (default water27)
//   --bandwidth=B      per-link bytes/s; 0 = auto-scale (default)
//   --report=PATH      JSON report output (default BENCH_topology.json)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "net/topology.hpp"
#include "sim/simulators.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace {

using namespace emc;
using namespace emc::sim;

struct Options {
  bool smoke = false;
  std::string molecule = "water27";
  int procs = 64;
  int ppn = 4;
  double bandwidth = 0.0;  ///< 0 = auto-scale to the workload
  std::string report_path = "BENCH_topology.json";
};

/// One interconnect in the sweep.
struct TopoPoint {
  std::string name;
  net::NetworkConfig network;
};

std::vector<TopoPoint> topology_sweep(const net::NetworkConfig& base) {
  std::vector<TopoPoint> points;
  {
    TopoPoint p{"flat", base};
    p.network.topology = net::TopologyKind::kLegacyFlat;
    points.push_back(p);
  }
  {
    TopoPoint p{"crossbar", base};
    p.network.topology = net::TopologyKind::kCrossbar;
    points.push_back(p);
  }
  for (int oversub : {1, 2, 4}) {
    TopoPoint p{"fat-tree-" + std::to_string(oversub) + ":1", base};
    p.network.topology = net::TopologyKind::kFatTree;
    p.network.nodes_per_switch = 4;
    p.network.oversubscription = oversub;
    points.push_back(p);
  }
  {
    TopoPoint p{"torus", base};
    p.network.topology = net::TopologyKind::kTorus;  // auto near-square
    points.push_back(p);
  }
  return points;
}

struct RunResult {
  std::string model;
  double makespan = 0.0;
  double slowdown = 1.0;  ///< vs the same model on the flat network
  double utilization = 0.0;
  std::int64_t net_messages = 0;
  std::int64_t net_congested = 0;
  double net_bytes = 0.0;
  double net_link_wait = 0.0;
  double counter_wait = 0.0;
  double steal_wait = 0.0;
  std::int64_t steals = 0;
};

struct ModelDef {
  const char* name;
  bool dynamic = true;  ///< moves work (and therefore data) at runtime
  std::function<SimResult(const MachineConfig&)> run;
};

/// Replays the run and requires bitwise agreement — congestion booking
/// may not introduce nondeterminism.
SimResult run_checked(const ModelDef& def, const MachineConfig& config,
                      bool* deterministic) {
  const SimResult a = def.run(config);
  const SimResult b = def.run(config);
  *deterministic = a.makespan == b.makespan &&
                   a.net_messages == b.net_messages &&
                   a.net_link_wait == b.net_link_wait &&
                   a.steals == b.steals && a.counter_ops == b.counter_ops;
  return a;
}

int run(const Options& opt) {
  core::TaskModelOptions model_opts;
  const core::TaskModel model =
      core::build_task_model(opt.molecule, model_opts);
  emc::bench::print_header(
      "bench_topology (EXP-11)",
      "execution-model rankings do not survive a topology change",
      model);

  const std::span<const double> costs = model.costs;
  double total_cost = 0.0;
  for (double c : costs) total_cost += c;
  const double mean_cost =
      costs.empty() ? 0.0 : total_cost / static_cast<double>(costs.size());

  const std::size_t payload = core::mean_task_comm_bytes(model);
  double bandwidth = opt.bandwidth;
  if (bandwidth <= 0.0) {
    // Auto: one task payload = half a mean task execution per unit link.
    bandwidth = mean_cost > 0.0
                    ? static_cast<double>(payload) / (0.5 * mean_cost)
                    : 4.0e9;
  }

  net::NetworkConfig base_net;
  base_net.link_bandwidth = bandwidth;
  base_net.task_payload_bytes = payload;

  MachineConfig base = emc::bench::make_machine(opt.procs, opt.ppn);
  const int n_nodes =
      (base.n_procs + base.procs_per_node - 1) / base.procs_per_node;
  std::cout << "machine: P=" << base.n_procs << ", "
            << base.procs_per_node << " procs/node, " << n_nodes
            << " nodes\n"
            << "payload: " << payload << " B/task, link bandwidth "
            << bandwidth << " B/s"
            << (opt.bandwidth <= 0.0 ? " (auto-scaled)" : "") << "\n";

  std::vector<double> lpt_costs(costs.begin(), costs.end());
  const lb::Assignment lpt = lb::lpt_assignment(lpt_costs, opt.procs);
  const lb::Assignment block = lb::block_assignment(costs.size(), opt.procs);

  const std::vector<ModelDef> models = {
      {"static", false, [&](const MachineConfig& c) {
         return simulate_static(c, costs, lpt);
       }},
      {"counter", true, [&](const MachineConfig& c) {
         return simulate_counter(c, costs, 4);
       }},
      {"hier", true, [&](const MachineConfig& c) {
         return simulate_hierarchical_counter(c, costs, 32, 4);
       }},
      {"hybrid", true, [&](const MachineConfig& c) {
         return simulate_hybrid(c, costs, lpt, 0.3, 4);
       }},
      {"ws", true, [&](const MachineConfig& c) {
         return simulate_work_stealing(c, costs, block);
       }},
  };

  const std::vector<TopoPoint> sweep = topology_sweep(base_net);
  std::vector<std::vector<RunResult>> table;  // [topology][model]
  bool all_deterministic = true;

  // Featured run for the metrics export: counter on the 2:1 fat-tree.
  util::MetricsRegistry featured_metrics;

  for (const TopoPoint& point : sweep) {
    std::vector<RunResult> row;
    for (const ModelDef& def : models) {
      MachineConfig config = base;
      config.network = point.network;
      if (point.name == "fat-tree-2:1" &&
          std::string(def.name) == "counter") {
        config.metrics = &featured_metrics;
      }
      bool deterministic = false;
      const SimResult r = run_checked(def, config, &deterministic);
      if (!deterministic) {
        std::cerr << "FAIL: " << def.name << " on " << point.name
                  << " is not deterministic across replays\n";
        all_deterministic = false;
      }
      RunResult out;
      out.model = def.name;
      out.makespan = r.makespan;
      out.utilization = r.utilization();
      out.net_messages = r.net_messages;
      out.net_congested = r.net_congested;
      out.net_bytes = r.net_bytes;
      out.net_link_wait = r.net_link_wait;
      out.counter_wait = r.counter_wait;
      out.steal_wait = r.steal_wait;
      out.steals = r.steals;
      row.push_back(out);
    }
    table.push_back(std::move(row));
  }
  for (std::size_t t = 0; t < table.size(); ++t) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      const double flat = table[0][m].makespan;
      table[t][m].slowdown =
          flat > 0.0 ? table[t][m].makespan / flat : 1.0;
    }
  }

  // --- console report ---------------------------------------------------
  std::cout << "\nmakespan slowdown vs same model on flat (x1.00):\n"
            << std::left << std::setw(14) << "  topology";
  for (const ModelDef& def : models) {
    std::cout << std::right << std::setw(10) << def.name;
  }
  std::cout << "\n";
  for (std::size_t t = 0; t < table.size(); ++t) {
    std::cout << std::left << std::setw(14) << ("  " + sweep[t].name);
    for (const RunResult& r : table[t]) {
      std::cout << std::right << std::setw(9) << std::fixed
                << std::setprecision(3) << r.slowdown << "x";
    }
    std::cout << "\n";
  }
  std::cout << "\nlink wait (congestion seconds), dynamic models:\n";
  for (std::size_t t = 0; t < table.size(); ++t) {
    std::cout << "  " << std::left << std::setw(12) << sweep[t].name;
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (!models[m].dynamic) continue;
      std::cout << "  " << models[m].name << "="
                << std::setprecision(6) << table[t][m].net_link_wait;
    }
    std::cout << "\n";
  }

  // Ranking (best model first) on the extremes.
  const auto ranking = [&](std::size_t t) {
    std::vector<std::size_t> order(models.size());
    for (std::size_t m = 0; m < order.size(); ++m) order[m] = m;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return table[t][a].makespan < table[t][b].makespan;
    });
    std::string s;
    for (std::size_t m : order) {
      if (!s.empty()) s += " < ";
      s += models[m].name;
    }
    return s;
  };
  const std::size_t flat_idx = 0;
  std::size_t fat2_idx = 0, fat4_idx = 0;
  for (std::size_t t = 0; t < sweep.size(); ++t) {
    if (sweep[t].name == "fat-tree-2:1") fat2_idx = t;
    if (sweep[t].name == "fat-tree-4:1") fat4_idx = t;
  }
  const std::string rank_flat = ranking(flat_idx);
  const std::string rank_fat2 = ranking(fat2_idx);
  const std::string rank_fat4 = ranking(fat4_idx);
  std::cout << "\nranking on flat:         " << rank_flat
            << "\nranking on fat-tree-2:1: " << rank_fat2
            << "\nranking on fat-tree-4:1: " << rank_fat4 << "\n";

  // --- self-checks ------------------------------------------------------
  // 2. Crossbar at infinite bandwidth adds only exact +0.0 terms to the
  //    counter's send legs, so it must match flat bitwise.
  MachineConfig infbw = base;
  infbw.network = base_net;
  infbw.network.topology = net::TopologyKind::kCrossbar;
  infbw.network.link_bandwidth = 0.0;
  infbw.network.task_payload_bytes = 0;
  const double flat_counter = table[flat_idx][1].makespan;
  const double infbw_counter =
      simulate_counter(infbw, costs, 4).makespan;
  const bool backcompat = infbw_counter == flat_counter;
  if (!backcompat) {
    std::cerr << "FAIL: crossbar @ infinite bandwidth diverged from flat: "
              << std::hexfloat << infbw_counter << " vs " << flat_counter
              << std::defaultfloat << "\n";
  }

  // 3/4. The 2:1 fat-tree must congest and split the models apart.
  bool congested = true;
  double gap_lo = 0.0, gap_hi = 0.0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const RunResult& r = table[fat2_idx][m];
    if (models[m].dynamic &&
        (r.net_link_wait <= 0.0 || r.net_congested <= 0)) {
      std::cerr << "FAIL: no congestion for " << r.model
                << " on fat-tree-2:1 (link_wait=" << r.net_link_wait
                << ", congested=" << r.net_congested << ")\n";
      congested = false;
    }
    const double mk = r.makespan;
    if (m == 0 || mk < gap_lo) gap_lo = mk;
    if (m == 0 || mk > gap_hi) gap_hi = mk;
  }
  const bool gap_ok = gap_lo > 0.0 && gap_hi / gap_lo > 1.0 + 1e-6;
  if (!gap_ok) {
    std::cerr << "FAIL: no execution-model makespan gap on fat-tree-2:1 ("
              << gap_lo << " .. " << gap_hi << ")\n";
  }
  std::cout << "checks: deterministic=" << (all_deterministic ? "ok" : "FAIL")
            << " flat-backcompat=" << (backcompat ? "ok" : "FAIL")
            << " fat2-congested=" << (congested ? "ok" : "FAIL")
            << " fat2-model-gap=" << (gap_ok ? "ok" : "FAIL") << " (x"
            << std::setprecision(3) << (gap_lo > 0.0 ? gap_hi / gap_lo : 0.0)
            << ")\n";

  // --- JSON artifact ----------------------------------------------------
  std::string featured_json;
  {
    std::ostringstream buf;
    featured_metrics.write_json(buf);
    featured_json = buf.str();
    while (!featured_json.empty() && featured_json.back() == '\n') {
      featured_json.pop_back();
    }
  }
  {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "FAIL: cannot write " << opt.report_path << "\n";
      return 1;
    }
    emc::bench::JsonWriter json(out);
    json.begin_object();
    emc::bench::write_manifest(json, "bench_topology",
                               opt.smoke ? "smoke" : "full", 0);
    json.field("bench", "bench_topology");
    json.field("experiment", "EXP-11");
    json.field("molecule", opt.molecule);
    json.field("procs", opt.procs);
    json.field("procs_per_node", base.procs_per_node);
    json.field("nodes", n_nodes);
    json.field("tasks", static_cast<std::int64_t>(model.task_count()));
    json.field("task_payload_bytes",
               static_cast<std::int64_t>(payload));
    json.field("link_bandwidth_bps", bandwidth);
    json.field("bandwidth_auto_scaled", opt.bandwidth <= 0.0);
    json.begin_array("topologies");
    for (std::size_t t = 0; t < sweep.size(); ++t) {
      json.begin_object();
      json.field("topology", sweep[t].name);
      json.field("oversubscription", sweep[t].network.oversubscription);
      json.begin_array("models");
      for (const RunResult& r : table[t]) {
        json.begin_object();
        json.field("model", r.model);
        json.field("makespan_s", r.makespan);
        json.field("slowdown_vs_flat", r.slowdown);
        json.field("utilization", r.utilization);
        json.field("net_messages", r.net_messages);
        json.field("net_congested_messages", r.net_congested);
        json.field("net_bytes", r.net_bytes);
        json.field("net_link_wait_s", r.net_link_wait);
        json.field("counter_wait_s", r.counter_wait);
        json.field("steal_wait_s", r.steal_wait);
        json.field("steals", r.steals);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_array();
    json.begin_object("rankings");
    json.field("flat", rank_flat);
    json.field("fat_tree_2_1", rank_fat2);
    json.field("fat_tree_4_1", rank_fat4);
    json.field("diverged", rank_flat != rank_fat4);
    json.end_object();
    json.begin_object("checks");
    json.field("deterministic", all_deterministic);
    json.field("flat_backcompat_bitwise", backcompat);
    json.field("fat2_congested", congested);
    json.field("fat2_model_gap", gap_ok);
    json.field("fat2_gap_ratio", gap_lo > 0.0 ? gap_hi / gap_lo : 0.0);
    json.end_object();
    json.raw("featured_metrics", featured_json);
    emc::bench::write_run_footer(json);
    json.end_object();
  }

  if (const std::string bad = emc::bench::validate_report(opt.report_path);
      !bad.empty()) {
    std::cerr << "FAIL: " << bad << "\n";
    return 1;
  }
  std::cout << "wrote " << opt.report_path << " (validated)\n";

  if (!all_deterministic || !backcompat || !congested || !gap_ok) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (emc::bench::has_flag(argc, argv, "--smoke")) {
    opt.molecule = "water3";
    opt.procs = 16;
    opt.ppn = 2;
  }
  emc::Cli cli("bench_topology", "EXP-11 network-topology sweep and gate");
  cli.add_flag("smoke", '\0', "small workload + gates (CI)", &opt.smoke);
  cli.add_int("model-procs", '\0', "simulated procs", &opt.procs);
  cli.add_int("ppn", '\0', "procs per node", &opt.ppn);
  cli.add_string("molecule", '\0', "workload molecule", &opt.molecule);
  cli.add_double("bandwidth", '\0',
                 "link bandwidth (0 = auto-scale to the workload)",
                 &opt.bandwidth);
  cli.add_string("report", '\0', "JSON report path", &opt.report_path);
  if (!cli.parse(argc, argv)) return 2;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
}
