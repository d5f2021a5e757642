#include "core/task_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/timer.hpp"

namespace emc::core {

double TaskModel::total_cost() const {
  double s = 0.0;
  for (double c : costs) s += c;
  return s;
}

TaskModel build_task_model(const std::string& molecule_name,
                           const TaskModelOptions& options) {
  return build_task_model(chem::make_named_molecule(molecule_name), options);
}

TaskModel build_task_model(const chem::Molecule& molecule,
                           const TaskModelOptions& options) {
  TaskModel model{molecule,
                  chem::BasisSet::build(molecule, options.basis_name),
                  {},
                  {},
                  {}};

  const chem::FockBuilder builder(model.basis);
  model.tasks = builder.make_tasks();

  model.shell_atom.reserve(model.basis.shell_count());
  for (const chem::Shell& s : model.basis.shells()) {
    model.shell_atom.push_back(s.atom_index);
  }

  if (options.measure_costs) {
    model.costs = measure_task_costs(model);
  } else {
    model.costs.reserve(model.tasks.size());
    for (const auto& task : model.tasks) {
      model.costs.push_back(builder.estimate_task_cost(task) *
                            options.analytic_cost_scale);
    }
  }
  return model;
}

int shell_owner(int shell, int n_shells, int n_procs) {
  if (shell < 0 || shell >= n_shells) {
    throw std::out_of_range("shell_owner: shell out of range");
  }
  return static_cast<int>(static_cast<std::int64_t>(shell) * n_procs /
                          n_shells);
}

std::size_t mean_task_comm_bytes(const TaskModel& model) {
  if (model.tasks.empty()) return 0;
  const auto& shells = model.basis.shells();
  const double n = static_cast<double>(model.basis.function_count());
  double elements = 0.0;
  for (const chem::ShellPairTask& task : model.tasks) {
    const double di =
        shells[static_cast<std::size_t>(task.si)].function_count();
    const double dj =
        shells[static_cast<std::size_t>(task.sj)].function_count();
    // Density rows for shells i and j fetched, plus the same J and K
    // stripes accumulated back: 2 stripes each way.
    elements += 2.0 * (di + dj) * n;
  }
  return static_cast<std::size_t>(
      8.0 * elements / static_cast<double>(model.tasks.size()));
}

lb::BipartiteTaskGraph make_locality_instance(const TaskModel& model,
                                              int n_procs, int window) {
  if (n_procs < 1) {
    throw std::invalid_argument("make_locality_instance: n_procs < 1");
  }
  lb::BipartiteTaskGraph g;
  g.n_procs = n_procs;
  g.weights = model.costs;
  g.eligible.reserve(model.tasks.size());

  const int n_shells = model.shell_count();
  std::vector<int> procs;
  for (const auto& task : model.tasks) {
    procs.clear();
    for (int shell : {task.si, task.sj}) {
      const int owner = shell_owner(shell, n_shells, n_procs);
      for (int d = -window; d <= window; ++d) {
        const int p = owner + d;
        if (p >= 0 && p < n_procs) procs.push_back(p);
      }
    }
    std::sort(procs.begin(), procs.end());
    procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
    g.eligible.push_back(procs);
  }
  return g;
}

graph::Hypergraph make_task_hypergraph(const TaskModel& model) {
  graph::Hypergraph::Builder b(
      static_cast<graph::VertexId>(model.task_count()));
  for (std::size_t t = 0; t < model.task_count(); ++t) {
    b.set_vertex_weight(static_cast<graph::VertexId>(t), model.costs[t]);
  }

  // Net per shell: the tasks whose bra pair includes it.
  std::vector<std::vector<graph::VertexId>> pins(
      static_cast<std::size_t>(model.shell_count()));
  for (std::size_t t = 0; t < model.task_count(); ++t) {
    pins[static_cast<std::size_t>(model.tasks[t].si)].push_back(
        static_cast<graph::VertexId>(t));
    if (model.tasks[t].sj != model.tasks[t].si) {
      pins[static_cast<std::size_t>(model.tasks[t].sj)].push_back(
          static_cast<graph::VertexId>(t));
    }
  }
  for (auto& net : pins) {
    if (net.size() >= 2) b.add_net(std::move(net));
  }
  return b.build();
}

std::vector<double> measure_task_costs(const TaskModel& model,
                                       int repeats) {
  const chem::FockBuilder builder(model.basis);
  const auto n = static_cast<std::size_t>(model.basis.function_count());

  // Crude but realistic model density: identity-like with decaying
  // off-diagonals; magnitudes only affect digestion, not integral cost.
  linalg::Matrix density(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const auto d = r > c ? r - c : c - r;
      density(r, c) = d == 0 ? 1.0 : (d < 4 ? 0.1 : 0.0);
    }
  }

  linalg::Matrix j_accum(n, n), k_accum(n, n);
  std::vector<double> costs;
  costs.reserve(model.tasks.size());
  emc::Timer timer;
  for (const auto& task : model.tasks) {
    double best = 0.0;
    for (int rep = 0; rep < std::max(1, repeats); ++rep) {
      timer.reset();
      builder.execute_task(task, density, j_accum, k_accum);
      const double t = timer.seconds();
      if (rep == 0 || t < best) best = t;
    }
    costs.push_back(best);
  }
  return costs;
}

}  // namespace emc::core
