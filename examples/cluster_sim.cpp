// Simulated-cluster explorer: run any execution model on any workload
// with configurable machine parameters (core count, node size, noise,
// latencies) and print the makespan, utilization, and overhead anatomy.
// --trace=PATH records the run's typed event trace, writes it as Chrome
// trace-event JSON (open it in Perfetto or chrome://tracing; retentive
// rounds are merged into one timeline) and prints the critical
// processor's busy/overhead/idle split and the longest idle gap.
//
//   ./build/examples/cluster_sim --model work-stealing --procs 512
//   ./build/examples/cluster_sim --model counter --chunk 8 --noise 0.2
//   ./build/examples/cluster_sim --model retentive --trace=ws.json

#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace emc;

  std::string molecule_name = "water16";
  std::string model_name = "work-stealing";
  std::int64_t procs = 256;
  std::int64_t procs_per_node = 16;
  std::int64_t chunk = 4;
  std::int64_t iterations = 1;
  double noise = 0.0;
  std::int64_t seed = 1;
  std::string trace_path;

  Cli cli("cluster_sim", "Replay an execution model on a simulated cluster");
  cli.add_string("molecule", 'm', "workload molecule", &molecule_name);
  cli.add_string("model", 'x',
                 "execution model: static-<balancer>, counter, "
                 "work-stealing, retentive",
                 &model_name);
  cli.add_int("procs", 'p', "processor count", &procs);
  cli.add_int("node-size", 'n', "processors per node", &procs_per_node);
  cli.add_int("chunk", 'c', "counter chunk size", &chunk);
  cli.add_int("iterations", 'i', "rounds for retentive stealing",
              &iterations);
  cli.add_double("noise", 'z', "core-speed noise amplitude [0,1)", &noise);
  cli.add_int("seed", 's', "simulation seed", &seed);
  cli.add_string("trace", '\0',
                 "write the run's Chrome trace to PATH and print its anatomy",
                 &trace_path);
  if (!cli.parse(argc, argv)) return 2;

  const core::TaskModel model = core::build_task_model(molecule_name);

  core::ExperimentConfig config;
  config.machine.n_procs = static_cast<int>(procs);
  config.machine.procs_per_node = static_cast<int>(procs_per_node);
  config.machine.noise_amplitude = noise;
  config.machine.seed = static_cast<std::uint64_t>(seed);
  config.counter_chunk = chunk;
  config.steal.seed = static_cast<std::uint64_t>(seed);

  // Open the trace file before simulating, so a bad path fails first.
  std::ofstream trace_out;
  auto trace_failure = [&] {
    std::string message = "cannot write trace file '";
    message += trace_path;
    message += '\'';
    return std::runtime_error(message);
  };
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out) throw trace_failure();
    config.machine.record_trace = true;
  }
  auto export_trace = [&](std::span<const sim::TraceEvent> trace,
                          double makespan) {
    if (trace_path.empty()) return;
    const sim::TraceSummary summary =
        sim::summarize_trace(trace, static_cast<int>(procs), makespan);
    sim::write_chrome_trace(trace_out, trace,
                            config.machine.procs_per_node);
    trace_out.close();
    if (!trace_out) throw trace_failure();
    std::cout << "trace: " << summary.events << " events written to "
              << trace_path << "\n"
              << "critical proc " << summary.critical_proc << ": busy "
              << summary.critical_busy * 1e3 << " ms, overhead "
              << summary.critical_overhead * 1e3 << " ms, idle "
              << summary.critical_idle * 1e3 << " ms\n"
              << "longest idle gap " << summary.longest_idle_gap * 1e3
              << " ms on proc " << summary.longest_idle_proc << "\n";
  };

  std::cout << molecule_name << ": " << model.task_count() << " tasks ("
            << model.total_cost() << " sim-seconds of work) on " << procs
            << " procs, noise " << noise * 100 << "%\n";

  Table table({"metric", "value"});
  table.set_precision(4);
  auto report = [&](const sim::SimResult& r, const std::string& label) {
    std::cout << "== " << label << " ==\n";
    table.add_row({std::string("makespan_ms"), r.makespan * 1e3});
    table.add_row({std::string("utilization_pct"), r.utilization() * 100});
    table.add_row({std::string("steals"), r.steals});
    table.add_row(
        {std::string("failed_steals"), r.steal_attempts - r.steals});
    table.add_row({std::string("counter_ops"), r.counter_ops});
    table.add_row({std::string("counter_wait_ms"), r.counter_wait * 1e3});
    table.add_row({std::string("steal_wait_ms"), r.steal_wait * 1e3});
    table.print(std::cout);
    export_trace(r.trace, r.makespan);
  };

  if (model_name == "counter") {
    report(sim::simulate_counter(config.machine, model.costs, chunk),
           "dynamic counter, chunk " + std::to_string(chunk));
  } else if (model_name == "work-stealing") {
    const auto block = lb::block_assignment(
        model.task_count(), static_cast<int>(procs));
    report(sim::simulate_work_stealing(config.machine, model.costs, block,
                                       config.steal),
           "work stealing");
  } else if (model_name == "retentive") {
    const auto block = lb::block_assignment(
        model.task_count(), static_cast<int>(procs));
    const auto rounds =
        sim::simulate_retentive(config.machine, model.costs, block,
                                static_cast<int>(iterations), config.steal);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      std::cout << "round " << (i + 1) << ": "
                << rounds[i].makespan * 1e3 << " ms, " << rounds[i].steals
                << " steals\n";
    }
    double total = 0.0;
    for (const sim::SimResult& r : rounds) total += r.makespan;
    export_trace(sim::merge_round_traces(rounds), total);
  } else if (model_name.rfind("static-", 0) == 0) {
    const std::string balancer = model_name.substr(7);
    const auto b = core::balance_tasks(model, balancer,
                                       static_cast<int>(procs), config);
    report(sim::simulate_static(config.machine, model.costs, b.assignment),
           "static, balanced by " + balancer + " (" +
               std::to_string(b.balance_seconds * 1e3) + " ms to balance)");
  } else {
    std::cerr << "cluster_sim: unknown model '" << model_name << "'\n";
    return 2;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "cluster_sim: " << e.what() << "\n";
  return 2;
}
