// Inputs and per-layer timing shared by the two chemistry workloads.

#include <algorithm>
#include <cmath>
#include <vector>

#include "chem/basis.hpp"
#include "chem/eri.hpp"
#include "chem/fock.hpp"
#include "chem/integrals.hpp"
#include "chem/shell_pair.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using emc::chem::Molecule;
using emc::linalg::Matrix;

Molecule rigid_motion(const Molecule& molecule, std::uint64_t seed) {
  emc::Rng rng(seed);
  // One of the 24 rotations that map the coordinate axes onto each other
  // (a signed axis permutation with determinant +1). These permute the
  // cartesian components of every shell, so Schwarz screening keeps the
  // same quartets and the work does not depend on the seed.
  int axis[3] = {0, 1, 2};
  for (int i = 2; i > 0; --i) std::swap(axis[i], axis[rng.below(i + 1)]);
  double sign[3];
  for (double& s : sign) s = rng.below(2) == 0 ? 1.0 : -1.0;
  const int inversions = (axis[0] > axis[1]) + (axis[0] > axis[2]) +
                         (axis[1] > axis[2]);
  if ((inversions % 2 == 1) == (sign[0] * sign[1] * sign[2] > 0.0)) {
    sign[2] = -sign[2];  // make the determinant +1
  }
  const double shift[3] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                           rng.uniform(-2.0, 2.0)};
  std::vector<emc::chem::Atom> atoms = molecule.atoms();
  for (emc::chem::Atom& atom : atoms) {
    const emc::chem::Vec3 r = atom.xyz;
    for (int i = 0; i < 3; ++i) atom.xyz[i] = sign[i] * r[axis[i]] + shift[i];
  }
  return Molecule(std::move(atoms));
}

namespace {

constexpr int kLayerRepeats = 5;

template <typename Fn>
double median_time(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kLayerRepeats; ++i) t.push_back(timed_seconds(fn));
  return median(t);
}

}  // namespace

void report_chem_layer(Report& report, const Molecule& molecule,
                       const std::string& basis_name, const Matrix& density,
                       double fock_build_s, bool one_electron) {
  namespace chem = emc::chem;
  const chem::BasisSet basis = chem::BasisSet::build(molecule, basis_name);
  report.metric("chem.basis_s", median_time([&] {
                  chem::BasisSet::build(molecule, basis_name);
                }),
                "s");
  report.metric("chem.shell_pairs_s",
                median_time([&] { chem::ShellPairList pairs(basis); }), "s");
  const chem::ShellPairList pairs(basis);
  report.metric("chem.schwarz_s",
                median_time([&] { chem::schwarz_matrix(pairs); }), "s");
  if (one_electron) {
    report.metric("chem.one_electron_s", median_time([&] {
                    chem::overlap_matrix(basis);
                    chem::kinetic_matrix(basis);
                    chem::nuclear_attraction_matrix(basis, molecule);
                  }),
                  "s");
  }

  const chem::FockBuilder builder(basis);
  const std::vector<chem::ShellPairTask> tasks = builder.make_tasks();
  chem::TaskCostFeatures total;
  for (const chem::ShellPairTask& task : tasks) {
    const chem::TaskCostFeatures f = builder.task_cost_features(task);
    total.quartets += f.quartets;
    total.prim_quartets += f.prim_quartets;
    total.scan += f.scan;
  }

  // ERI evaluation alone, over exactly the quartets a build evaluates:
  // every canonical ket pair up to the task's rank whose Schwarz bound
  // product survives the builder's threshold.
  const Matrix& q = builder.schwarz();
  const double threshold = builder.screen_threshold();
  const int n_shells = static_cast<int>(basis.shell_count());
  double swept = 0.0;
  double sink = 0.0;
  const double eri_s = timed_seconds([&] {
    for (const chem::ShellPairTask& task : tasks) {
      const chem::ShellPairData& bra = pairs.pair(task.si, task.sj);
      const double q_bra = q(static_cast<std::size_t>(task.si),
                             static_cast<std::size_t>(task.sj));
      for (int k = 0; k < n_shells; ++k) {
        for (int l = 0; l <= k && chem::pair_rank(k, l) <= task.rank; ++l) {
          const double q_ket =
              q(static_cast<std::size_t>(k), static_cast<std::size_t>(l));
          if (threshold > 0.0 && q_bra * q_ket < threshold) continue;
          sink += chem::eri_shell_quartet(bra, pairs.pair(k, l))(0, 0, 0, 0);
          swept += 1.0;
        }
      }
    }
  });
  report.check(swept == total.quartets,
               "ERI sweep evaluated a different quartet set than the build");
  report.check(std::isfinite(sink), "ERI sweep produced a non-finite value");

  // Per-task wall time of the build's unit of scheduling.
  const std::size_t n = static_cast<std::size_t>(basis.function_count());
  Matrix j(n, n);
  Matrix k(n, n);
  std::vector<double> task_s;
  task_s.reserve(tasks.size());
  for (const chem::ShellPairTask& task : tasks) {
    task_s.push_back(
        timed_seconds([&] { builder.execute_task(task, density, j, k); }));
  }
  const double mean_task = sum(task_s) / static_cast<double>(task_s.size());

  report.metric("chem.fock_build_s", fock_build_s, "s");
  report.metric("chem.eri_s", eri_s, "s");
  report.metric("chem.digest_s", fock_build_s - eri_s, "s");
  report.metric("chem.quartets_per_s", total.quartets / fock_build_s, "1/s");
  report.metric("chem.quartets", total.quartets, "count");
  report.metric("chem.prim_quartets", total.prim_quartets, "count");
  report.metric("chem.screen_survival", total.quartets / total.scan, "ratio");
  report.metric("chem.task_cost_max_over_mean",
                *std::max_element(task_s.begin(), task_s.end()) / mean_task,
                "ratio");
}

}  // namespace perfbench
