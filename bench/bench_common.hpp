#pragma once

// Shared helpers for the experiment benches: standard workloads, the
// header every bench prints so runs are self-describing and replayable,
// and (via manifest.hpp) the provenance envelope + run footer every
// artifact-emitting bench stamps into its BENCH_*.json report.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "manifest.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace emc::bench {

/// The streaming report emitter now lives in util/json.hpp (one escaping
/// path for every writer); the alias keeps bench code reading naturally.
using JsonWriter = util::JsonWriter;

/// Machine setup shared by every bench driver. `ppn > 0` pins the
/// procs-per-node (clamped to `procs`, typically from a --ppn flag);
/// `ppn == 0` keeps the benches' historical default of min(16, procs).
/// Centralized so the node topology is set one way everywhere and the
/// network model (MachineConfig::network) is layered on consistently.
inline sim::MachineConfig make_machine(int procs, int ppn = 0) {
  sim::MachineConfig config;
  config.n_procs = procs;
  config.procs_per_node =
      ppn > 0 ? std::min(ppn, procs) : std::min(16, procs);
  return config;
}

/// True when `flag` appears verbatim on the command line. Drivers use it
/// to load a preset (the --smoke sizes) before emc::Cli parses, so
/// explicit flags override the preset whatever their order.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  return std::find(argv + 1, argv + argc, flag) != argv + argc;
}

/// Standard workload for cluster-scale simulations: a 27-molecule water
/// cluster (135 shells, 9180 shell-pair tasks) — large enough for 1024
/// simulated procs, small enough to build in seconds.
inline core::TaskModel standard_workload(
    const std::string& name = "water27") {
  core::TaskModelOptions options;
  options.basis_name = "sto-3g";
  return core::build_task_model(name, options);
}

inline void print_header(const std::string& experiment,
                         const std::string& claim,
                         const core::TaskModel& model,
                         std::uint64_t seed = 1) {
  std::cout << "##############################################\n"
            << "# " << experiment << "\n"
            << "# claim: " << claim << "\n"
            << "# workload: " << model.molecule.size() << " atoms, "
            << model.basis.function_count() << " basis functions, "
            << model.task_count() << " tasks, total cost "
            << model.total_cost() << " sim-seconds\n"
            << "# seed: " << seed << "\n"
            << "##############################################\n";
}

}  // namespace emc::bench
