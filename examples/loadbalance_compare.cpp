// Compare every load balancer on a chosen workload: imbalance, makespan
// on the simulated cluster, hypergraph cut (communication proxy), and
// the balancer's own runtime.
//
//   ./build/examples/loadbalance_compare --molecule water16 --procs 128

#include <exception>
#include <iostream>

#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "graph/hypergraph.hpp"
#include "lb/partition.hpp"
#include "sim/simulators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace emc;

  std::string molecule_name = "water8";
  std::string basis_name = "sto-3g";
  std::int64_t procs = 64;
  std::int64_t window = 1;

  Cli cli("loadbalance_compare", "Compare static load balancers");
  cli.add_string("molecule", 'm', "workload molecule", &molecule_name);
  cli.add_string("basis", 'b', "basis set", &basis_name);
  cli.add_int("procs", 'p', "simulated processor count", &procs);
  cli.add_int("window", 'w', "semi-matching locality window", &window);
  if (!cli.parse(argc, argv)) return 2;

  core::TaskModelOptions model_options;
  model_options.basis_name = basis_name;
  const core::TaskModel model =
      core::build_task_model(molecule_name, model_options);
  const graph::Hypergraph hg = core::make_task_hypergraph(model);

  std::cout << molecule_name << "/" << basis_name << ": "
            << model.task_count() << " tasks over " << procs
            << " simulated procs\n";

  core::ExperimentConfig config;
  config.machine.n_procs = static_cast<int>(procs);
  config.locality_window = static_cast<int>(window);

  Table table({"balancer", "imbalance", "sim_makespan_ms", "hg_cut",
               "balance_ms"});
  table.set_precision(3);
  for (const std::string& algo : core::balancer_names()) {
    const lb::BalanceResult r = core::balance_tasks(
        model, algo, static_cast<int>(procs), config);
    const auto sim_result =
        sim::simulate_static(config.machine, model.costs, r.assignment);
    const std::vector<int> part(r.assignment.begin(), r.assignment.end());
    table.add_row({algo,
                   lb::imbalance(model.costs, r.assignment,
                                 static_cast<int>(procs)),
                   sim_result.makespan * 1e3,
                   hg.connectivity_cut(part, static_cast<int>(procs)),
                   r.balance_seconds * 1e3});
  }
  table.print(std::cout, "balancer comparison");
  std::cout << "\nideal makespan (total/procs): "
            << model.total_cost() / static_cast<double>(procs) * 1e3
            << " ms\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "loadbalance_compare: " << e.what() << "\n";
  return 2;
}
