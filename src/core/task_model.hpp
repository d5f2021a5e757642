#pragma once

// The study's task model: the Fock build of a concrete molecule/basis is
// turned into a weighted task list plus the structures each balancer
// needs (bipartite locality graph for semi-matching, task-interaction
// hypergraph for partitioning).
//
// Task costs can be *measured* (each task executed once against a model
// density on this machine — the honest calibration used by benches) or
// *estimated* analytically (flop-weighted quartet counts — the cheap
// inspector model a production run would use).

#include <cstdint>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/fock.hpp"
#include "chem/molecule.hpp"
#include "graph/hypergraph.hpp"
#include "lb/semi_matching.hpp"

namespace emc::core {

struct TaskModel {
  chem::Molecule molecule;
  chem::BasisSet basis;
  std::vector<chem::ShellPairTask> tasks;
  std::vector<double> costs;       ///< per-task cost (seconds)
  std::vector<int> shell_atom;     ///< owning atom per shell

  std::size_t task_count() const { return tasks.size(); }
  int shell_count() const { return static_cast<int>(shell_atom.size()); }
  double total_cost() const;
};

struct TaskModelOptions {
  std::string basis_name = "sto-3g";
  /// If true, run every task once and record wall time; otherwise use
  /// the analytic estimate scaled to ~seconds.
  bool measure_costs = false;
  /// Analytic cost scale: estimated flop units are multiplied by this to
  /// produce simulated seconds. The default is the simulated machine's
  /// per-unit cost: the ~53 ns per primitive-quartet-function unit fitted
  /// to the shell-pair-cached kernel before its factorization. It stays
  /// fixed across kernel rewrites so simulated seconds remain on one
  /// scale; bench_kernel --calibrate reports the current kernel's unit
  /// (~9.7 ns on a 4-core x86 host).
  double analytic_cost_scale = 5.3e-8;
};

/// Builds the task model for a named molecule (see make_named_molecule).
TaskModel build_task_model(const std::string& molecule_name,
                           const TaskModelOptions& options = {});

/// Same, for an explicit molecule.
TaskModel build_task_model(const chem::Molecule& molecule,
                           const TaskModelOptions& options = {});

/// Owner of a shell's matrix stripe under the P-way block distribution
/// the PGAS layer uses.
int shell_owner(int shell, int n_shells, int n_procs);

/// Mean bytes a task moves when it executes away from its home stripe:
/// the bra shells' density row-stripes fetched plus the matching J/K
/// Fock stripes accumulated back, as 8-byte doubles. This is the sized
/// payload the contention-aware network model (src/net) charges per
/// dynamically migrated task (NetworkConfig::task_payload_bytes).
std::size_t mean_task_comm_bytes(const TaskModel& model);

/// Bipartite locality instance for semi-matching: task (i,j) is eligible
/// on the owners of shells i and j plus `window` neighbouring procs on
/// each side (window >= n_procs degenerates to the complete instance).
lb::BipartiteTaskGraph make_locality_instance(const TaskModel& model,
                                              int n_procs, int window = 1);

/// Task-interaction hypergraph: one net per shell connecting all tasks
/// whose bra pair touches that shell (tasks sharing a bra shell reuse the
/// same Fock/density stripes). Vertex weights are task costs.
graph::Hypergraph make_task_hypergraph(const TaskModel& model);

/// Executes every task against a model density and returns measured wall
/// seconds per task. Each task is timed `repeats` times and the minimum
/// kept (the standard de-noising for microsecond-scale kernels on a
/// shared machine).
std::vector<double> measure_task_costs(const TaskModel& model,
                                       int repeats = 3);

}  // namespace emc::core
