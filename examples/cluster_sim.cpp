// Simulated-cluster explorer: run any execution model on any workload
// with configurable machine parameters (core count, node size, noise,
// latencies) and print the makespan, utilization, and overhead anatomy.
//
//   ./build/examples/cluster_sim --model work-stealing --procs 512
//   ./build/examples/cluster_sim --model counter --chunk 8 --noise 0.2

#include <exception>
#include <iostream>

#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"
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
  if (!cli.parse(argc, argv)) return 2;

  const core::TaskModel model = core::build_task_model(molecule_name);

  core::ExperimentConfig config;
  config.machine.n_procs = static_cast<int>(procs);
  config.machine.procs_per_node = static_cast<int>(procs_per_node);
  config.machine.noise_amplitude = noise;
  config.machine.seed = static_cast<std::uint64_t>(seed);
  config.counter_chunk = chunk;
  config.steal.seed = static_cast<std::uint64_t>(seed);

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
