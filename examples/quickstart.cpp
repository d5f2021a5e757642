// Quickstart: the library in ~40 lines.
//
//  1. Build a molecule and run Hartree-Fock on it.
//  2. Turn its Fock build into a weighted task list.
//  3. Balance the tasks with semi-matching and replay static scheduling
//     vs work stealing on a simulated 64-core cluster.
//
// Build & run:  ./build/examples/quickstart

#include <exception>
#include <iostream>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "chem/scf.hpp"
#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "lb/simple.hpp"
#include "sim/simulators.hpp"

int main() try {
  using namespace emc;

  // 1. Chemistry: restricted Hartree-Fock on a water molecule.
  const chem::Molecule water = chem::make_water();
  const chem::BasisSet basis = chem::BasisSet::build(water, "sto-3g");
  const chem::ScfResult scf = chem::run_rhf(water, basis);
  std::cout << "RHF/STO-3G water: E = " << scf.energy << " Hartree in "
            << scf.iterations << " iterations\n";

  // 2. Task model: the Fock build of a 8-molecule cluster as work units.
  const core::TaskModel model = core::build_task_model("water8");
  std::cout << "water8 Fock build: " << model.task_count()
            << " tasks, total cost " << model.total_cost()
            << " simulated seconds\n";

  // 3. Execution models on a simulated 64-core cluster.
  core::ExperimentConfig config;
  config.machine.n_procs = 64;

  const auto semi = core::balance_tasks(model, "semi-matching", 64, config);
  const auto static_run =
      sim::simulate_static(config.machine, model.costs, semi.assignment);
  const auto steal_run = sim::simulate_work_stealing(
      config.machine, model.costs,
      lb::block_assignment(model.task_count(), 64));

  std::cout << "static + semi-matching: " << static_run.makespan * 1e3
            << " ms (" << static_run.utilization() * 100 << "% utilized)\n"
            << "work stealing:          " << steal_run.makespan * 1e3
            << " ms (" << steal_run.utilization() * 100 << "% utilized, "
            << steal_run.steals << " steals)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 2;
}
