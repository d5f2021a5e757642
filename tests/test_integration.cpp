// Cross-module integration tests: the parallel executors build the same
// Fock matrices (and hence the same SCF energy) as the sequential
// reference, both through the distributed builder and via hand-written
// one-sided accumulation into a GlobalArray.

#include <gtest/gtest.h>

#include <functional>

#include "chem/fock.hpp"
#include "chem/scf.hpp"
#include "core/distributed_fock.hpp"
#include "core/experiment.hpp"
#include "core/task_model.hpp"
#include "sim/simulators.hpp"
#include "lb/simple.hpp"
#include "pgas/global_array.hpp"
#include "pgas/runtime.hpp"

namespace {

using namespace emc;
using chem::FockBuilder;
using linalg::Matrix;

/// Work-stealing distributed builder at 4 ranks (block-seeded slots).
core::DistributedFockOptions work_stealing_options() {
  core::DistributedFockOptions options;
  options.model = core::ExecModel::kWorkStealing;
  options.static_balancer = "block";
  return options;
}

TEST(IntegrationTest, WorkStealingGBuildMatchesSequential) {
  const chem::Molecule mol = chem::make_water();
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());

  Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = (i == j ? 1.0 : 0.05);
    }
  }

  pgas::Runtime runtime(4);
  core::DistributedFockBuilder parallel_builder(basis, runtime,
                                                work_stealing_options());
  const Matrix parallel = parallel_builder.build_g(density);
  const Matrix sequential = builder.build_g(density);
  // Same contributions in a different summation order.
  EXPECT_TRUE(parallel.almost_equal(sequential, 1e-10));
}

TEST(IntegrationTest, FullScfThroughParallelExecutor) {
  const chem::Molecule mol = chem::make_water();
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");

  pgas::Runtime runtime(4);
  core::DistributedFockBuilder parallel_builder(basis, runtime,
                                                work_stealing_options());
  chem::IncrementalGBuilder g(parallel_builder);
  const chem::ScfResult parallel =
      chem::run_rhf_with_builder(mol, basis, std::ref(g));
  const chem::ScfResult sequential = chem::run_rhf(mol, basis);

  EXPECT_TRUE(parallel.converged);
  EXPECT_NEAR(parallel.energy, sequential.energy, 1e-10);
}

TEST(IntegrationTest, CounterSchedulerScfMatchesToo) {
  const chem::Molecule mol = chem::make_h2(1.4);
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  pgas::Runtime runtime(2);
  core::DistributedFockOptions options;
  options.model = core::ExecModel::kCounter;
  options.counter_chunk = 1;
  core::DistributedFockBuilder counter_builder(basis, runtime, options);

  chem::IncrementalGBuilder g(counter_builder);
  const chem::ScfResult a =
      chem::run_rhf_with_builder(mol, basis, std::ref(g));
  const chem::ScfResult b = chem::run_rhf(mol, basis);
  EXPECT_NEAR(a.energy, b.energy, 1e-10);
  EXPECT_NEAR(a.energy, -1.1167, 2e-4);
}

TEST(IntegrationTest, GlobalArrayAccumulationPath) {
  // The fully PGAS-flavoured pipeline: ranks accumulate J/K contributions
  // into GlobalArrays with one-sided atomic accumulate, like the GA-based
  // implementation the paper studies.
  const chem::Molecule mol = chem::make_water();
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  const FockBuilder builder(basis);
  const auto n = static_cast<std::size_t>(basis.function_count());
  const int n_ranks = 4;

  Matrix density(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      density(i, j) = (i == j ? 0.9 : 0.02);
    }
  }

  pgas::Runtime runtime(n_ranks);
  pgas::GlobalArray j_global(n, n, n_ranks);
  pgas::GlobalArray k_global(n, n, n_ranks);
  const auto tasks = builder.make_tasks();
  const auto assignment =
      lb::cyclic_assignment(tasks.size(), n_ranks);

  runtime.run([&](pgas::Context& ctx) {
    // Each rank digests its tasks locally, then accumulates once.
    Matrix j_local(n, n), k_local(n, n);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (assignment[t] != ctx.rank()) continue;
      builder.execute_task(tasks[t], density, j_local, k_local);
    }
    j_global.accumulate(ctx.rank(), 0, 0, n, n,
                        std::span<const double>(j_local.data(), n * n));
    k_global.accumulate(ctx.rank(), 0, 0, n, n,
                        std::span<const double>(k_local.data(), n * n));
  });

  Matrix j_total(n, n), k_total(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      j_total(r, c) = j_global.at(r, c);
      k_total(r, c) = k_global.at(r, c);
    }
  }
  const Matrix g = FockBuilder::combine_jk(j_total, k_total);
  const Matrix reference = builder.build_g(density);
  EXPECT_TRUE(g.almost_equal(reference, 1e-10));
}

TEST(IntegrationTest, TaskModelDrivesSimulatorConsistently) {
  // End-to-end: chemistry -> task costs -> balancer -> simulator, with
  // totals conserved at every hand-off.
  const core::TaskModel model = core::build_task_model("water2");
  core::ExperimentConfig config;
  config.machine.n_procs = 8;

  const auto balance = core::balance_tasks(model, "semi-matching", 8, config);
  const auto result =
      sim::simulate_static(config.machine, model.costs, balance.assignment);

  double busy_total = 0.0;
  for (double b : result.busy) busy_total += b;
  EXPECT_NEAR(busy_total, model.total_cost(), 1e-9);
  EXPECT_GE(result.makespan,
            model.total_cost() / 8.0 - 1e-12);  // mean-load lower bound
}

}  // namespace
